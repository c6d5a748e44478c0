#include "core/sagdfn.h"
#include <algorithm>


#include "obs/telemetry.h"
#include "tensor/tensor_ops.h"
#include "utils/check.h"

namespace sagdfn::core {

namespace ag = ::sagdfn::autograd;

SagdfnModel::SagdfnModel(const SagdfnConfig& config)
    : config_(config), rng_(config.seed) {
  SAGDFN_CHECK_GT(config_.num_nodes, 0);
  SAGDFN_CHECK_LE(config_.m, config_.num_nodes);
  SAGDFN_CHECK_LE(config_.k, config_.m);
  SAGDFN_CHECK_GT(config_.history, 0);
  SAGDFN_CHECK_GT(config_.horizon, 0);

  embeddings_ = RegisterParameter(
      "embeddings",
      ag::Variable(tensor::Tensor::Normal(
          tensor::Shape({config_.num_nodes, config_.embedding_dim}), rng_,
          0.0f, 1.0f)));

  sampler_ = std::make_unique<SignificantNeighborSampler>(
      config_.num_nodes, config_.m, config_.k, config_.seed + 1);

  SsmaConfig ssma;
  ssma.embedding_dim = config_.embedding_dim;
  ssma.m = config_.m;
  ssma.heads = config_.heads;
  ssma.ffn_hidden = config_.ffn_hidden;
  ssma.alpha = config_.alpha;
  ssma.use_entmax = config_.use_entmax;
  attention_ = std::make_unique<SparseSpatialAttention>(ssma, rng_);
  RegisterModule("attention", attention_.get());

  SAGDFN_CHECK_GE(config_.num_layers, 1);
  for (int64_t layer = 0; layer < config_.num_layers; ++layer) {
    const int64_t in_dim =
        layer == 0 ? config_.input_dim : config_.hidden_dim;
    cells_.push_back(std::make_unique<GConvGruCell>(
        in_dim, config_.hidden_dim, config_.diffusion_steps, rng_));
    RegisterModule("cell" + std::to_string(layer), cells_.back().get());
  }

  output_proj_ = std::make_unique<nn::Linear>(config_.hidden_dim, 1, rng_);
  RegisterModule("output_proj", output_proj_.get());

  // Checkpointed derived state: the selected index set plus the frozen
  // flag (entry m). -1 ids mean "not sampled yet".
  index_state_ = RegisterBuffer(
      "index_state",
      tensor::Tensor::Full(tensor::Shape({config_.m + 1}), -1.0f));
}

void SagdfnModel::OnStateLoaded() {
  if (index_state_[0] < 0.0f) {
    index_set_.clear();
    frozen_ = false;
    return;
  }
  index_set_.resize(config_.m);
  for (int64_t j = 0; j < config_.m; ++j) {
    index_set_[j] = static_cast<int64_t>(index_state_[j]);
    SAGDFN_CHECK_GE(index_set_[j], 0);
    SAGDFN_CHECK_LT(index_set_[j], config_.num_nodes);
  }
  frozen_ = index_state_[config_.m] > 0.5f;
}

std::vector<std::pair<std::string, std::vector<uint64_t>>>
SagdfnModel::ExportRuntimeState() const {
  return {{"rng", rng_.SerializeState()}, {"sns", sampler_->SerializeState()}};
}

utils::Status SagdfnModel::ImportRuntimeState(
    const std::vector<std::pair<std::string, std::vector<uint64_t>>>&
        state) {
  bool have_rng = false;
  bool have_sns = false;
  for (const auto& [name, words] : state) {
    if (name == "rng") {
      if (static_cast<int64_t>(words.size()) != utils::Rng::kStateWords) {
        return utils::Status::InvalidArgument(
            "SAGDFN rng state has wrong size");
      }
      rng_.DeserializeState(words);
      have_rng = true;
    } else if (name == "sns") {
      SAGDFN_RETURN_IF_ERROR(sampler_->DeserializeState(words));
      have_sns = true;
    } else {
      return utils::Status::InvalidArgument(
          "unknown SAGDFN runtime-state entry: " + name);
    }
  }
  if (!have_rng || !have_sns) {
    return utils::Status::InvalidArgument(
        "SAGDFN runtime state requires both 'rng' and 'sns' entries");
  }
  return utils::Status::Ok();
}

void SagdfnModel::OnTrainingPlan(int64_t total_iterations) {
  SAGDFN_CHECK_GT(total_iterations, 0);
  const int64_t cap =
      std::max<int64_t>(1, (total_iterations * 3) / 5);
  config_.convergence_iters = std::min(config_.convergence_iters, cap);
}

void SagdfnModel::MaybeResample(int64_t iteration) {
  if (!config_.use_sns) {
    if (index_set_.empty()) {
      // "w/o SNS" ablation: a random (but fixed) index set.
      index_set_ =
          rng_.SampleWithoutReplacement(config_.num_nodes, config_.m);
      SyncIndexState();
    }
    return;
  }
  if (!training() && index_set_.empty()) {
    // Cold-start inference (never trained / freshly loaded without a
    // sampled set): deterministic exploration-free draw.
    index_set_ = sampler_->Sample(embeddings_.value(), /*explore=*/false);
    SyncIndexState();
    return;
  }
  if (!training()) return;
  if (frozen_) return;
  if (iteration < config_.convergence_iters) {
    index_set_ = sampler_->Sample(embeddings_.value(), /*explore=*/true);
  } else {
    // Convergence reached: one final exploration-free draw, then freeze.
    index_set_ = sampler_->Sample(embeddings_.value(), /*explore=*/false);
    frozen_ = true;
  }
  SyncIndexState();
}

void SagdfnModel::SyncIndexState() {
  for (int64_t j = 0; j < config_.m; ++j) {
    index_state_[j] = static_cast<float>(index_set_[j]);
  }
  index_state_[config_.m] = frozen_ ? 1.0f : 0.0f;
}

ag::Variable SagdfnModel::Adjacency() {
  SAGDFN_SCOPED_TIMER("sagdfn.adjacency");
  if (config_.use_attention) {
    return attention_->Forward(embeddings_, index_set_);
  }
  return InnerProductAdjacency(embeddings_, index_set_);
}

ag::Variable SagdfnModel::Forward(const tensor::Tensor& x,
                                  const tensor::Tensor& future_tod,
                                  int64_t iteration,
                                  const tensor::Tensor* teacher,
                                  double teacher_prob) {
  // Training windows are exactly `history` frames; only the inference
  // path (Predict) accepts longer accumulated windows.
  SAGDFN_CHECK_EQ(x.ndim(), 4);
  SAGDFN_CHECK_EQ(x.dim(1), config_.history);
  MaybeResample(iteration);
  ag::Variable a_s = Adjacency();
  // (D + I)^{-1} depends only on a_s: compute once for the whole
  // encoder-decoder rollout instead of per conv per timestep.
  ag::Variable inv_deg = FastGraphConv::InverseDegree(a_s);
  return Rollout(a_s, inv_deg, index_set_, x, future_tod, teacher,
                 teacher_prob, &rng_);
}

ag::Variable SagdfnModel::Rollout(
    const ag::Variable& a_s, const ag::Variable& inv_deg,
    const std::vector<int64_t>& index_set, const tensor::Tensor& x,
    const tensor::Tensor& future_tod, const tensor::Tensor* teacher,
    double teacher_prob, utils::Rng* sampling_rng) const {
  SAGDFN_CHECK_EQ(x.ndim(), 4);
  const int64_t b = x.dim(0);
  const int64_t h = x.dim(1);
  const int64_t n = x.dim(2);
  const int64_t c = x.dim(3);
  // Training rollouts (via Forward, which checks) consume exactly
  // `history` frames. Inference (Predict) may pass a longer accumulated
  // window: the streaming differential tests re-encode every frame
  // received so far as the eager reference for incremental-tick replay.
  SAGDFN_CHECK_GE(h, 1);
  SAGDFN_CHECK_EQ(n, config_.num_nodes);
  SAGDFN_CHECK_EQ(c, config_.input_dim);
  const int64_t f = config_.horizon;
  SAGDFN_CHECK_EQ(future_tod.dim(0), b);
  SAGDFN_CHECK_EQ(future_tod.dim(1), f);
  SAGDFN_CHECK(teacher == nullptr || sampling_rng != nullptr)
      << "scheduled sampling needs an RNG";

  // Encoder over the h history steps; each layer consumes the previous
  // layer's state sequence.
  ag::Variable x_var{x};
  std::vector<ag::Variable> hidden(config_.num_layers);
  for (int64_t layer = 0; layer < config_.num_layers; ++layer) {
    hidden[layer] = cells_[layer]->InitialState(b, n);
  }
  ag::Variable step;
  {
    SAGDFN_SCOPED_TIMER("sagdfn.encoder");
    for (int64_t t = 0; t < h; ++t) {
      step = ag::Reshape(ag::Slice(x_var, 1, t, t + 1), {b, n, c});
      ag::Variable layer_input = step;
      for (int64_t layer = 0; layer < config_.num_layers; ++layer) {
        hidden[layer] = cells_[layer]->Forward(a_s, index_set,
                                               layer_input, hidden[layer],
                                               &inv_deg);
        layer_input = hidden[layer];
      }
    }
  }

  // Decoder: first input is X_{t0} (the last observation, covariates
  // included); afterwards the previous prediction plus the known
  // time-of-day of the step being consumed. Covariate channels beyond
  // time-of-day (e.g. day-of-week) are carried forward from the last
  // observation — they change at most once within a horizon window.
  ag::Variable dec_input = step;
  ag::Variable extra_covariates;
  if (c > 2) extra_covariates = ag::Slice(step, 2, 2, c).Detach();
  std::vector<ag::Variable> predictions;
  predictions.reserve(f);
  SAGDFN_SCOPED_TIMER("sagdfn.decoder");
  for (int64_t t = 0; t < f; ++t) {
    ag::Variable layer_input = dec_input;
    for (int64_t layer = 0; layer < config_.num_layers; ++layer) {
      hidden[layer] = cells_[layer]->Forward(a_s, index_set, layer_input,
                                             hidden[layer], &inv_deg);
      layer_input = hidden[layer];
    }
    ag::Variable pred = output_proj_->Forward(ag::Reshape(
        hidden[config_.num_layers - 1],
        {b * n, config_.hidden_dim}));  // [B*N, 1]
    pred = ag::Reshape(pred, {b, n});
    predictions.push_back(pred);
    if (t + 1 < f) {
      // Next decoder input: [value, tod of step t] per node, where value
      // is the model's prediction or — under scheduled sampling — the
      // ground truth.
      tensor::Tensor tod(tensor::Shape({b, n, 1}));
      const float* ft = future_tod.data();
      float* pt = tod.data();
      for (int64_t bi = 0; bi < b; ++bi) {
        const float v = ft[bi * f + t];
        for (int64_t i = 0; i < n; ++i) pt[bi * n + i] = v;
      }
      ag::Variable value = ag::Reshape(pred, {b, n, 1});
      if (teacher != nullptr && training() &&
          sampling_rng->Bernoulli(teacher_prob)) {
        value = ag::Variable(
            tensor::Slice(*teacher, 1, t, t + 1).Reshape({b, n, 1}));
      }
      if (c > 2) {
        dec_input = ag::Concat(
            {value, ag::Variable(tod), extra_covariates}, 2);
      } else {
        dec_input = ag::Concat({value, ag::Variable(tod)}, 2);
      }
    }
  }
  return ag::Stack(predictions, 1);  // [B, f, N]
}

tensor::Tensor SagdfnModel::ComputeSlimAdjacency() {
  ag::NoGradGuard guard;
  MaybeResample(/*iteration=*/0);
  return Adjacency().value();
}

AdjacencySnapshot SagdfnModel::Snapshot() {
  ag::NoGradGuard guard;
  // Freeze through the eval path: an already-sampled (trained or
  // restored) index set is kept as-is; a cold-start model gets one
  // deterministic exploration-free draw. A model snapshotted mid-training
  // must not advance its exploration RNG.
  const bool was_training = training();
  if (was_training) SetTraining(false);
  MaybeResample(/*iteration=*/0);
  if (was_training) SetTraining(true);
  AdjacencySnapshot snapshot;
  snapshot.index_set = index_set_;
  ag::Variable a_s = Adjacency();
  snapshot.a_s = a_s.value();
  snapshot.inv_deg = FastGraphConv::InverseDegree(a_s).value();
  snapshot.csr = std::make_shared<const graph::CsrMatrix>(
      graph::CsrFromDense(snapshot.a_s));
  return snapshot;
}

tensor::Tensor SagdfnModel::Predict(
    const tensor::Tensor& x, const tensor::Tensor& future_tod,
    const AdjacencySnapshot& snapshot) const {
  SAGDFN_CHECK_EQ(static_cast<int64_t>(snapshot.index_set.size()),
                  config_.m);
  ag::NoGradGuard guard;
  return Rollout(ag::Variable(snapshot.a_s), ag::Variable(snapshot.inv_deg),
                 snapshot.index_set, x, future_tod, /*teacher=*/nullptr,
                 /*teacher_prob=*/0.0, /*sampling_rng=*/nullptr)
      .value();
}

tensor::Tensor SagdfnModel::DenseAdjacency() {
  tensor::Tensor slim = ComputeSlimAdjacency();
  const int64_t n = config_.num_nodes;
  const int64_t m = config_.m;
  tensor::Tensor dense = tensor::Tensor::Zeros(tensor::Shape({n, n}));
  const float* ps = slim.data();
  float* pd = dense.data();
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < m; ++j) {
      pd[i * n + index_set_[j]] = ps[i * m + j];
    }
  }
  return dense;
}

}  // namespace sagdfn::core
