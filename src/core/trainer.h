#ifndef SAGDFN_CORE_TRAINER_H_
#define SAGDFN_CORE_TRAINER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/seq_model.h"
#include "data/window_dataset.h"
#include "metrics/metrics.h"
#include "optim/optimizer.h"
#include "utils/rng.h"
#include "utils/status.h"

namespace sagdfn::core {

/// Consecutive non-finite batches tolerated (each is skipped with its
/// gradients zeroed) before the trainer rolls back to the last good
/// checkpoint with a reduced learning rate.
inline constexpr int64_t kMaxConsecutiveSkips = 3;

/// Learning-rate multiplier applied at each rollback (bounded backoff:
/// after TrainOptions::max_rollbacks the run fails rather than decaying
/// forever).
inline constexpr double kRollbackLrBackoff = 0.5;

/// Training-loop knobs. The paper trains with Adam on L1 loss (Eq. 11);
/// `max_train_batches_per_epoch` lets CPU benches subsample epochs while
/// keeping the protocol.
struct TrainOptions {
  int64_t epochs = 5;
  int64_t batch_size = 8;
  double learning_rate = 0.01;
  double grad_clip = 5.0;
  /// 0 = use every training window each epoch.
  int64_t max_train_batches_per_epoch = 0;
  /// 0 = evaluate on the whole split.
  int64_t max_eval_batches = 0;
  /// Early stopping patience in epochs (0 disables).
  int64_t patience = 0;
  bool verbose = false;
  uint64_t seed = 123;

  // -- Fault tolerance ------------------------------------------------------

  /// Directory for full-state checkpoints (model + buffers + Adam
  /// moments + iteration + every RNG stream + the SNS index set). One
  /// checkpoint is written atomically after each epoch, plus `best.ckpt`
  /// (model-only, best validation MAE). Empty disables checkpointing —
  /// and with it Resume() and rollback weight-restores.
  std::string checkpoint_dir;
  /// Epoch checkpoints kept on disk; older ones are deleted after each
  /// successful save.
  int64_t keep_last_k = 3;
  /// Rollback + learning-rate-backoff attempts (kRollbackLrBackoff each)
  /// before Train() gives up and reports a utils::Status error instead
  /// of looping.
  int64_t max_rollbacks = 3;
};

/// What Train() reports (feeds the paper's Table X cost columns and the
/// convergence plots).
struct TrainResult {
  std::vector<double> epoch_train_loss;
  std::vector<double> epoch_val_mae;
  int64_t epochs_run = 0;
  double seconds_per_epoch = 0.0;
  double total_seconds = 0.0;
  double best_val_mae = 0.0;
  /// Non-OK when training aborted: fault storm after bounded LR backoff,
  /// a rollback restore that itself failed, or an injected crash.
  utils::Status status;
  /// Batches skipped by the non-finite guard (loss or gradient NaN/Inf).
  int64_t skipped_batches = 0;
  /// Rollbacks to the last good checkpoint performed.
  int64_t rollbacks = 0;
  /// Checkpoint/best saves that failed (training continues; the previous
  /// checkpoint stays the rollback/resume anchor).
  int64_t checkpoint_failures = 0;
};

/// Trains any SeqModel on a ForecastDataset with Adam + L1 loss and
/// evaluates it with the paper's masked metrics.
///
/// Fault-tolerant runtime: with `TrainOptions::checkpoint_dir` set the
/// trainer writes atomic full-state checkpoints each epoch, recovers
/// from non-finite losses/gradients by skipping batches and — past a
/// threshold — rolling back to the last good checkpoint with a halved
/// learning rate, and supports bit-exact mid-run restarts: a fresh
/// Trainer that Resume()s a checkpoint and finishes the plan produces
/// byte-identical parameters to an uninterrupted run.
class Trainer {
 public:
  /// Neither pointer is owned; both must outlive the Trainer.
  Trainer(SeqModel* model, const data::ForecastDataset* dataset,
          TrainOptions options);

  /// Runs the full training loop (or, after Resume(), the remainder).
  TrainResult Train();

  /// Restores the full training state — model parameters and buffers,
  /// Adam moments and step count, iteration, every RNG stream, and the
  /// SNS index set — from a checkpoint written by a Trainer with the
  /// same model architecture and options. Call before Train(); the
  /// resumed run continues bit-exactly where the checkpoint left off.
  utils::Status Resume(const std::string& path);

  /// The newest epoch checkpoint in `dir` ("" if none).
  static std::string LatestCheckpoint(const std::string& dir);

  /// Where the best-validation model checkpoint is written ("" when
  /// checkpointing is disabled).
  std::string BestCheckpointPath() const;

  /// Predicts a split in original units: [S, f, N] where S is the number
  /// of evaluated windows (capped by max_eval_batches).
  tensor::Tensor Predict(data::Split split);

  /// Ground truth aligned with Predict(): [S, f, N].
  tensor::Tensor Truth(data::Split split) const;

  /// Convenience: per-horizon scores of Predict() vs Truth().
  std::vector<metrics::Scores> EvaluateSplit(
      data::Split split, const std::vector<int64_t>& horizons);

  int64_t global_iteration() const { return iteration_; }

  /// The Adam state driving this trainer (nullptr before the first
  /// Train()/Resume() call). Exposed for checkpoint round-trip tests.
  const optim::Adam* optimizer() const { return optimizer_.get(); }

 private:
  enum class EpochOutcome { kOk, kFaultStorm };

  int64_t EvalWindowCount(data::Split split) const;
  int64_t TrainBatchesPerEpoch() const;

  /// Builds the Adam optimizer over the model parameters (idempotent).
  void EnsureOptimizer();

  /// Runs one training epoch; appends the epoch loss on success. Returns
  /// kFaultStorm when kMaxConsecutiveSkips non-finite batches hit.
  EpochOutcome RunTrainEpoch(int64_t epoch, TrainResult* result);

  /// Rolls back to the last good checkpoint with a reduced learning
  /// rate. Returns false (with result->status set) when the backoff
  /// budget is exhausted or the restore itself fails.
  bool TryRollback(TrainResult* result);

  /// Full-state checkpoint I/O (model + optim + trainer meta sections).
  /// The Save/Restore wrappers time the I/O and emit ckpt.save/ckpt.load
  /// telemetry records around the Do* workers.
  std::string EpochCheckpointPath(int64_t completed_epochs) const;
  utils::Status SaveTrainerCheckpoint(const std::string& path,
                                      int64_t completed_epochs);
  utils::Status DoSaveTrainerCheckpoint(const std::string& path,
                                        int64_t completed_epochs);
  utils::Status RestoreTrainerCheckpoint(const std::string& path,
                                         bool rollback);
  utils::Status DoRestoreTrainerCheckpoint(const std::string& path);
  /// Deletes epoch checkpoints beyond keep_last_k (best.ckpt exempt).
  void RotateCheckpoints();

  /// Puts the best-validation parameters back on the model: from
  /// best.ckpt when checkpointing, else from the in-memory snapshot.
  void RestoreBestWeights(TrainResult* result);

  bool checkpointing() const { return !options_.checkpoint_dir.empty(); }

  SeqModel* model_;
  const data::ForecastDataset* dataset_;
  TrainOptions options_;
  utils::Rng rng_;
  std::unique_ptr<optim::Adam> optimizer_;

  int64_t iteration_ = 0;
  /// First epoch the next Train() call will run (set by Resume/rollback).
  int64_t next_epoch_ = 0;
  double decay_steps_ = 1.0;

  double best_val_ = 0.0;  // re-initialized at the top of Train()
  int64_t bad_epochs_ = 0;
  /// In-memory best-weights snapshot (only when checkpointing is off).
  std::vector<tensor::Tensor> best_weights_;

  int64_t consecutive_skips_ = 0;
  int64_t rollbacks_ = 0;
  /// Rollback count read from the last restored checkpoint (adopted on
  /// resume, ignored on rollback).
  int64_t restored_rollbacks_ = 0;
  /// Last finite clipped gradient norm (reported per epoch by telemetry).
  double last_grad_norm_ = 0.0;
  /// Path of the newest successfully written epoch checkpoint.
  std::string last_good_ckpt_;
  bool resumed_ = false;
};

class SagdfnModel;

/// One round of online fine-tuning for the serving loop: clones
/// `snapshot` (fresh SagdfnModel on the same config, parameters and
/// buffers copied in memory — the restored SNS buffer keeps the clone's
/// index set frozen, so only weights move), runs a short Trainer::Train
/// on `dataset` (which the caller builds over freshly buffered ticks
/// with the deployment's pinned scaler), and atomically writes the
/// resulting weights to `candidate_path` via nn::SaveModule. The caller
/// then offers the file to a serve::ModelRegistry, whose gate decides
/// publish vs reject — this function never touches live serving state.
/// `result`, when non-null, receives the inner training report.
utils::Status FineTuneFromSnapshot(const SagdfnModel& snapshot,
                                   const data::ForecastDataset& dataset,
                                   const TrainOptions& options,
                                   const std::string& candidate_path,
                                   TrainResult* result = nullptr);

}  // namespace sagdfn::core

#endif  // SAGDFN_CORE_TRAINER_H_
