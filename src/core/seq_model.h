#ifndef SAGDFN_CORE_SEQ_MODEL_H_
#define SAGDFN_CORE_SEQ_MODEL_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "autograd/variable.h"
#include "nn/module.h"
#include "utils/status.h"

namespace sagdfn::core {

/// Interface shared by SAGDFN and every neural baseline: a trainable model
/// mapping a history window to multi-step scaled predictions. One Trainer
/// (core/trainer.h) drives any SeqModel, so the paper's Tables III-X all
/// run through identical training/eval machinery.
class SeqModel : public nn::Module {
 public:
  /// `x`: [B, h, N, C] scaled readings and their time of day
  /// (C = data::kInputChannels); `future_tod`:
  /// [B, f] time-of-day of the target steps. `iteration` is the global
  /// training step (models with curricula, like SAGDFN's neighbor
  /// sampling, key off it; ignored by most). Returns scaled predictions
  /// [B, f, N].
  ///
  /// `teacher` (optional, training only): scaled targets [B, f, N] for
  /// scheduled sampling — autoregressive decoders feed the ground-truth
  /// value instead of their own prediction with probability
  /// `teacher_prob` per decoder step (curriculum learning against
  /// exposure bias, as in DCRNN's training recipe). Models without an
  /// autoregressive decoder ignore it.
  virtual autograd::Variable Forward(const tensor::Tensor& x,
                                     const tensor::Tensor& future_tod,
                                     int64_t iteration,
                                     const tensor::Tensor* teacher = nullptr,
                                     double teacher_prob = 0.0) = 0;

  /// Human-readable model name for result tables.
  virtual std::string name() const = 0;

  /// Forecast horizon f this model was built for.
  virtual int64_t horizon() const = 0;

  /// Called by the Trainer before training with the planned number of
  /// optimizer iterations. Models with iteration-based curricula (SAGDFN's
  /// neighbor-sampling convergence r) can calibrate against it.
  virtual void OnTrainingPlan(int64_t total_iterations) {
    (void)total_iterations;
  }

  /// Named opaque 64-bit state that lives outside parameters and buffers
  /// but still determines the training trajectory — RNG streams
  /// (scheduled sampling, exploration) and derived sampler state. The
  /// Trainer bundles these into its checkpoints so a resumed run is
  /// bit-exact. Models without such state return nothing.
  virtual std::vector<std::pair<std::string, std::vector<uint64_t>>>
  ExportRuntimeState() const {
    return {};
  }

  /// Restores state captured by ExportRuntimeState() on an identically
  /// configured model. Unknown names or wrong-sized payloads are
  /// rejected; entries this model does not export are an error too.
  virtual utils::Status ImportRuntimeState(
      const std::vector<std::pair<std::string, std::vector<uint64_t>>>&
          state) {
    if (!state.empty()) {
      return utils::Status::InvalidArgument(
          name() + " has no runtime state but checkpoint carries " +
          std::to_string(state.size()) + " entries");
    }
    return utils::Status::Ok();
  }

 protected:
  /// Restores runtime state for models whose only such state is one RNG
  /// stream exported as {"rng", words} (the autoregressive baselines).
  static utils::Status ImportSingleRng(
      const std::vector<std::pair<std::string, std::vector<uint64_t>>>&
          state,
      utils::Rng* rng) {
    if (state.size() != 1 || state[0].first != "rng" ||
        static_cast<int64_t>(state[0].second.size()) !=
            utils::Rng::kStateWords) {
      return utils::Status::InvalidArgument(
          "expected a single 'rng' runtime-state entry of " +
          std::to_string(utils::Rng::kStateWords) + " words");
    }
    rng->DeserializeState(state[0].second);
    return utils::Status::Ok();
  }
};

}  // namespace sagdfn::core

#endif  // SAGDFN_CORE_SEQ_MODEL_H_
