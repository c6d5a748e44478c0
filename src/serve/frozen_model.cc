#include "serve/frozen_model.h"

#include <utility>
#include <vector>

#include "graph/csr.h"
#include "nn/serialization.h"
#include "utils/check.h"

namespace sagdfn::serve {

namespace {

// Weight-file entry names for the frozen snapshot. The "__frozen:" prefix
// cannot collide with module state: parameter names are dot-qualified and
// buffers are stored under "buffer:".
constexpr char kFrozenPrefix[] = "__frozen:";
constexpr char kFrozenAs[] = "__frozen:a_s";
constexpr char kFrozenInvDeg[] = "__frozen:inv_deg";
constexpr char kFrozenIndexSet[] = "__frozen:index_set";
constexpr char kFrozenConfig[] = "__frozen:config";

// Shape-determining config fields; a weight file only loads against a
// config that agrees on all of them. The layer-count slot (always 1) and
// the input-channel slot keep the 12-word layout weight files carry.
std::vector<uint64_t> ConfigFingerprint(const core::SagdfnConfig& c) {
  return {static_cast<uint64_t>(c.num_nodes),
          static_cast<uint64_t>(c.embedding_dim),
          static_cast<uint64_t>(c.m),
          static_cast<uint64_t>(c.k),
          static_cast<uint64_t>(c.hidden_dim),
          static_cast<uint64_t>(c.heads),
          static_cast<uint64_t>(c.ffn_hidden),
          static_cast<uint64_t>(c.diffusion_steps),
          uint64_t{1},
          static_cast<uint64_t>(c.history),
          static_cast<uint64_t>(c.horizon),
          static_cast<uint64_t>(c.input_dim)};
}

bool HasPrefix(const std::string& s, const std::string& prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}

}  // namespace

FrozenModel::FrozenModel(std::unique_ptr<core::SagdfnModel> model,
                         core::AdjacencySnapshot snapshot)
    : model_(std::move(model)), snapshot_(std::move(snapshot)) {}

std::unique_ptr<FrozenModel> FrozenModel::Freeze(
    std::unique_ptr<core::SagdfnModel> model) {
  SAGDFN_CHECK(model != nullptr);
  model->SetTraining(false);
  core::AdjacencySnapshot snapshot = model->Snapshot();
  return std::unique_ptr<FrozenModel>(
      new FrozenModel(std::move(model), std::move(snapshot)));
}

utils::Status FrozenModel::Load(const core::SagdfnConfig& config,
                                const std::string& checkpoint_path,
                                std::unique_ptr<FrozenModel>* out) {
  auto model = std::make_unique<core::SagdfnModel>(config);
  SAGDFN_RETURN_IF_ERROR(nn::LoadModule(model.get(), checkpoint_path));
  *out = Freeze(std::move(model));
  return utils::Status::Ok();
}

utils::Status FrozenModel::Save(const std::string& path) const {
  nn::Checkpoint checkpoint;
  nn::AppendModuleState(*model_, /*prefix=*/"", &checkpoint);
  checkpoint.tensors.emplace_back(kFrozenAs, snapshot_.a_s);
  checkpoint.tensors.emplace_back(kFrozenInvDeg, snapshot_.inv_deg);
  checkpoint.meta.emplace_back(
      kFrozenIndexSet,
      std::vector<uint64_t>(snapshot_.index_set.begin(),
                            snapshot_.index_set.end()));
  checkpoint.meta.emplace_back(kFrozenConfig, ConfigFingerprint(config()));
  return nn::SaveCheckpoint(checkpoint, path);
}

utils::Status FrozenModel::LoadMapped(const core::SagdfnConfig& config,
                                      const std::string& path,
                                      std::unique_ptr<FrozenModel>* out) {
  nn::Checkpoint file;
  SAGDFN_RETURN_IF_ERROR(nn::LoadCheckpoint(&file, path));

  const std::vector<uint64_t>* fingerprint = file.FindMeta(kFrozenConfig);
  if (fingerprint == nullptr) {
    return utils::Status::InvalidArgument(
        "not a frozen-model weight file (no config fingerprint): " + path);
  }
  if (*fingerprint != ConfigFingerprint(config)) {
    return utils::Status::InvalidArgument(
        "weight file was written for a different model configuration: " +
        path);
  }

  // Validate the module state (every entry outside the frozen snapshot)
  // before anything is bound, so a bad file never leaves a half-bound
  // model.
  nn::Checkpoint state;
  for (const auto& entry : file.tensors) {
    if (!HasPrefix(entry.first, kFrozenPrefix)) state.tensors.push_back(entry);
  }
  auto model = std::make_unique<core::SagdfnModel>(config);
  std::vector<const tensor::Tensor*> sources;
  SAGDFN_RETURN_IF_ERROR(
      nn::MatchModuleState(*model, state, /*prefix=*/"", &sources));

  const tensor::Tensor* a_s = file.FindTensor(kFrozenAs);
  const tensor::Tensor* inv_deg = file.FindTensor(kFrozenInvDeg);
  const std::vector<uint64_t>* ids = file.FindMeta(kFrozenIndexSet);
  if (a_s == nullptr || inv_deg == nullptr || ids == nullptr) {
    return utils::Status::InvalidArgument(
        "weight file is missing the frozen adjacency snapshot: " + path);
  }
  const int64_t n = config.num_nodes;
  if (a_s->ndim() != 2 || a_s->dim(0) != n || a_s->dim(1) != config.m ||
      inv_deg->size() != n ||
      static_cast<int64_t>(ids->size()) != config.m) {
    return utils::Status::InvalidArgument(
        "frozen snapshot shapes disagree with the configuration: " + path);
  }
  core::AdjacencySnapshot snapshot;
  snapshot.index_set.reserve(ids->size());
  for (uint64_t id : *ids) {
    if (id >= static_cast<uint64_t>(n)) {
      return utils::Status::InvalidArgument(
          "frozen index set references node " + std::to_string(id) +
          " outside [0, " + std::to_string(n) + "): " + path);
    }
    snapshot.index_set.push_back(static_cast<int64_t>(id));
  }

  // Bind: parameters alias the mapping (zero copy — the Variables' nodes
  // rebind their storage to the mapped pages); buffers are tiny mutable
  // state and are copied onto the heap.
  size_t i = 0;
  for (auto& [name, var] : model->NamedParameters()) {
    var.mutable_value() = *sources[i++];
  }
  for (auto& [name, buffer] : model->NamedBuffers()) {
    buffer.CopyFrom(*sources[i++]);
  }
  model->OnStateLoaded();
  model->SetTraining(false);

  // The snapshot tensors alias the mapping too; only the CSR arrays are
  // rebuilt (an O(N*M) scan of mapped a_s — the expensive attention /
  // entmax recomputation the heap path pays is skipped entirely).
  snapshot.a_s = *a_s;
  snapshot.inv_deg = *inv_deg;
  snapshot.csr = std::make_shared<const graph::CsrMatrix>(
      graph::CsrFromDense(snapshot.a_s));

  *out = std::unique_ptr<FrozenModel>(
      new FrozenModel(std::move(model), std::move(snapshot)));
  return utils::Status::Ok();
}

tensor::Tensor FrozenModel::Predict(const tensor::Tensor& x,
                                    const tensor::Tensor& future_tod) const {
  return PlanFor(x.dim(0))->Run(x, future_tod);
}

std::shared_ptr<const core::RolloutPlan> FrozenModel::PlanFor(
    int64_t batch) const {
  return PlanFor(batch, core::PlanKind::kFull);
}

std::shared_ptr<const core::RolloutPlan> FrozenModel::PlanFor(
    int64_t batch, core::PlanKind kind) const {
  // A compile (instruction build + dry run) happens under the lock:
  // concurrent first requests build it once, and replays through a plan
  // that already covers them only pay the lock.
  std::lock_guard<std::mutex> lock(plans_mu_);
  std::shared_ptr<const core::RolloutPlan>& plan =
      plans_[static_cast<size_t>(kind)];
  if (plan == nullptr || plan->batch() < batch) {
    plan = std::make_shared<const core::RolloutPlan>(*model_, snapshot_,
                                                     batch, kind);
  }
  return plan;
}

}  // namespace sagdfn::serve
