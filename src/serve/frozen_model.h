#ifndef SAGDFN_SERVE_FROZEN_MODEL_H_
#define SAGDFN_SERVE_FROZEN_MODEL_H_

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "core/rollout_plan.h"
#include "core/sagdfn.h"
#include "utils/status.h"

namespace sagdfn::serve {

/// An immutable model snapshot prepared for serving: a SagdfnModel in
/// eval mode (SNS exploration and teacher forcing off) plus the frozen
/// adjacency snapshot (slim A_s + inverse degrees + index set) computed
/// exactly once. After Freeze()/Load() nothing in here mutates, so one
/// FrozenModel is shared read-only by every InferenceEngine worker.
class FrozenModel {
 public:
  /// Takes ownership of an already-built (trained or restored) model,
  /// switches it to eval mode, and freezes the adjacency.
  static std::unique_ptr<FrozenModel> Freeze(
      std::unique_ptr<core::SagdfnModel> model);

  /// Builds a model from `config`, restores it from a checkpoint written
  /// by nn::SaveModule (parameters, buffers, and the trained index set),
  /// and freezes it. Fails cleanly — never returns a
  /// partially populated model — on any checkpoint mismatch.
  static utils::Status Load(const core::SagdfnConfig& config,
                            const std::string& checkpoint_path,
                            std::unique_ptr<FrozenModel>* out);

  /// Writes this frozen model as a weight file (nn::SaveCheckpoint, the
  /// one "SAGM" format): all parameters and buffers plus
  /// the frozen adjacency snapshot (a_s, inverse degrees, index set) and
  /// a config fingerprint. Written atomically (verify-before-publish).
  utils::Status Save(const std::string& path) const;

  /// Opens a weight file written by Save() via mmap and builds a frozen
  /// model around it with ZERO parameter copies: parameter storage and
  /// the adjacency snapshot alias the mapped pages (read-only; shared
  /// physically with every other process serving the same file), so load
  /// time is O(index + CSR build) — milliseconds at N=100k — instead of
  /// the heap Load() path's full-checkpoint copy plus attention/entmax
  /// snapshot recomputation. Forecasts are memcmp-identical to Load().
  /// Fails cleanly on a corrupt file or a config mismatch.
  static utils::Status LoadMapped(const core::SagdfnConfig& config,
                                  const std::string& path,
                                  std::unique_ptr<FrozenModel>* out);

  /// Thread-safe batched inference: `x` [B, h, N, C], `future_tod`
  /// [B, f] -> scaled predictions [B, f, N]. Per batch row the result is
  /// bit-identical however the rows are batched. Replays the kFull
  /// rollout plan, which covers any batch up to its capacity; a batch
  /// larger than every batch seen so far recompiles it first (the
  /// engine sizes the plan for its max_batch up front, so serving never
  /// does). Bit-identical to model().Predict(x, future_tod, snapshot()).
  tensor::Tensor Predict(const tensor::Tensor& x,
                         const tensor::Tensor& future_tod) const;

  /// The full-rollout execution plan, with capacity for at least `batch`
  /// rows. Thread-safe; the returned plan is immutable and replayable
  /// concurrently.
  std::shared_ptr<const core::RolloutPlan> PlanFor(int64_t batch) const;

  /// The same, explicit plan kind: kIncremental plans power the streaming
  /// tick path (see serve::TickStreamer). The model keeps one plan per
  /// kind. If that plan's capacity is below `batch`, a replacement is
  /// compiled at `batch`; in-flight replays finish on the old plan
  /// through their shared_ptr.
  std::shared_ptr<const core::RolloutPlan> PlanFor(
      int64_t batch, core::PlanKind kind) const;

  const core::SagdfnModel& model() const { return *model_; }
  const core::AdjacencySnapshot& snapshot() const { return snapshot_; }
  const core::SagdfnConfig& config() const { return model_->config(); }

 private:
  FrozenModel(std::unique_ptr<core::SagdfnModel> model,
              core::AdjacencySnapshot snapshot);

  std::unique_ptr<core::SagdfnModel> model_;
  core::AdjacencySnapshot snapshot_;
  /// One plan slot per PlanKind, indexed by the enum value. Guarded by
  /// plans_mu_.
  mutable std::mutex plans_mu_;
  mutable std::array<std::shared_ptr<const core::RolloutPlan>, 2> plans_;
};

}  // namespace sagdfn::serve

#endif  // SAGDFN_SERVE_FROZEN_MODEL_H_
