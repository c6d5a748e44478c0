#include "core/trainer.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>

#include "autograd/ops.h"
#include "core/sagdfn.h"
#include "nn/serialization.h"
#include "obs/telemetry.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"
#include "utils/check.h"
#include "utils/fault.h"
#include "utils/logging.h"
#include "utils/stopwatch.h"

namespace sagdfn::core {

namespace ag = ::sagdfn::autograd;
namespace fs = ::std::filesystem;

namespace {

constexpr const char* kEpochPrefix = "epoch-";
constexpr const char* kCkptSuffix = ".ckpt";

uint64_t DoubleBits(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

double BitsToDouble(uint64_t bits) {
  double value = 0.0;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

/// Parses "epoch-NNNNNN.ckpt"; returns -1 for anything else.
int64_t EpochFromFilename(const std::string& filename) {
  const size_t prefix_len = std::strlen(kEpochPrefix);
  const size_t suffix_len = std::strlen(kCkptSuffix);
  if (filename.size() <= prefix_len + suffix_len) return -1;
  if (filename.compare(0, prefix_len, kEpochPrefix) != 0) return -1;
  if (filename.compare(filename.size() - suffix_len, suffix_len,
                       kCkptSuffix) != 0) {
    return -1;
  }
  const std::string digits = filename.substr(
      prefix_len, filename.size() - prefix_len - suffix_len);
  if (digits.empty()) return -1;
  int64_t epoch = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') return -1;
    epoch = epoch * 10 + (c - '0');
  }
  return epoch;
}

/// Epoch checkpoints in `dir` as (completed_epochs, path), unsorted.
std::vector<std::pair<int64_t, std::string>> ListEpochCheckpoints(
    const std::string& dir) {
  std::vector<std::pair<int64_t, std::string>> found;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const int64_t epoch = EpochFromFilename(entry.path().filename().string());
    if (epoch >= 0) found.emplace_back(epoch, entry.path().string());
  }
  return found;
}

}  // namespace

Trainer::Trainer(SeqModel* model, const data::ForecastDataset* dataset,
                 TrainOptions options)
    : model_(model),
      dataset_(dataset),
      options_(std::move(options)),
      rng_(options_.seed) {
  SAGDFN_CHECK(model_ != nullptr);
  SAGDFN_CHECK(dataset_ != nullptr);
  SAGDFN_CHECK_GT(options_.batch_size, 0);
  SAGDFN_CHECK_EQ(model_->horizon(), dataset_->spec().horizon);
  SAGDFN_CHECK_GE(options_.keep_last_k, 1);
  SAGDFN_CHECK_GE(options_.max_rollbacks, 0);
}

void Trainer::EnsureOptimizer() {
  if (optimizer_ == nullptr) {
    optimizer_ = std::make_unique<optim::Adam>(model_->Parameters(),
                                               options_.learning_rate);
  }
}

int64_t Trainer::TrainBatchesPerEpoch() const {
  int64_t per_epoch =
      dataset_->NumBatches(data::Split::kTrain, options_.batch_size);
  if (options_.max_train_batches_per_epoch > 0) {
    per_epoch = std::min(per_epoch, options_.max_train_batches_per_epoch);
  }
  return per_epoch;
}

std::string Trainer::BestCheckpointPath() const {
  if (!checkpointing()) return "";
  return options_.checkpoint_dir + "/best" + kCkptSuffix;
}

std::string Trainer::EpochCheckpointPath(int64_t completed_epochs) const {
  char name[64];
  std::snprintf(name, sizeof(name), "%s%06lld%s", kEpochPrefix,
                static_cast<long long>(completed_epochs), kCkptSuffix);
  return options_.checkpoint_dir + "/" + name;
}

std::string Trainer::LatestCheckpoint(const std::string& dir) {
  int64_t best_epoch = -1;
  std::string best_path;
  for (const auto& [epoch, path] : ListEpochCheckpoints(dir)) {
    if (epoch > best_epoch) {
      best_epoch = epoch;
      best_path = path;
    }
  }
  return best_path;
}

void Trainer::RotateCheckpoints() {
  auto found = ListEpochCheckpoints(options_.checkpoint_dir);
  if (static_cast<int64_t>(found.size()) <= options_.keep_last_k) return;
  std::sort(found.begin(), found.end());  // ascending by epoch
  const int64_t remove_count =
      static_cast<int64_t>(found.size()) - options_.keep_last_k;
  for (int64_t i = 0; i < remove_count; ++i) {
    std::error_code ec;
    fs::remove(found[i].second, ec);
    if (ec) {
      SAGDFN_LOG(Warning) << "failed to rotate old checkpoint "
                          << found[i].second << ": " << ec.message();
    }
  }
}

utils::Status Trainer::SaveTrainerCheckpoint(const std::string& path,
                                             int64_t completed_epochs) {
  utils::Stopwatch watch;
  utils::Status status = DoSaveTrainerCheckpoint(path, completed_epochs);
  obs::Telemetry::Global().Emit(obs::Event("ckpt.save")
                                    .Str("path", path)
                                    .Int("epoch", completed_epochs)
                                    .Double("seconds",
                                            watch.ElapsedSeconds())
                                    .Bool("ok", status.ok()));
  return status;
}

utils::Status Trainer::DoSaveTrainerCheckpoint(const std::string& path,
                                               int64_t completed_epochs) {
  SAGDFN_SCOPED_TIMER("trainer.ckpt_save");
  EnsureOptimizer();
  nn::Checkpoint ckpt;
  nn::AppendModuleState(*model_, "model/", &ckpt);
  const auto& m = optimizer_->moments_m();
  const auto& v = optimizer_->moments_v();
  for (size_t i = 0; i < m.size(); ++i) {
    ckpt.tensors.emplace_back("optim/m/" + std::to_string(i), m[i]);
    ckpt.tensors.emplace_back("optim/v/" + std::to_string(i), v[i]);
  }
  ckpt.meta = {
      {"completed_epochs", {static_cast<uint64_t>(completed_epochs)}},
      {"total_epochs", {static_cast<uint64_t>(options_.epochs)}},
      {"iteration", {static_cast<uint64_t>(iteration_)}},
      {"adam_step", {static_cast<uint64_t>(optimizer_->step_count())}},
      {"trainer_rng", rng_.SerializeState()},
      {"lr_bits", {DoubleBits(optimizer_->lr())}},
      {"best_val_bits", {DoubleBits(best_val_)}},
      {"bad_epochs", {static_cast<uint64_t>(bad_epochs_)}},
      {"rollbacks", {static_cast<uint64_t>(rollbacks_)}},
  };
  for (auto& [name, words] : model_->ExportRuntimeState()) {
    ckpt.meta.emplace_back("model_rt/" + name, std::move(words));
  }
  return nn::SaveCheckpoint(ckpt, path);
}

utils::Status Trainer::RestoreTrainerCheckpoint(const std::string& path,
                                                bool rollback) {
  utils::Stopwatch watch;
  utils::Status status = DoRestoreTrainerCheckpoint(path);
  obs::Telemetry::Global().Emit(obs::Event("ckpt.load")
                                    .Str("path", path)
                                    .Bool("rollback", rollback)
                                    .Double("seconds",
                                            watch.ElapsedSeconds())
                                    .Bool("ok", status.ok()));
  if (status.ok() && !rollback) {
    rollbacks_ = restored_rollbacks_;
  }
  return status;
}

utils::Status Trainer::DoRestoreTrainerCheckpoint(const std::string& path) {
  SAGDFN_SCOPED_TIMER("trainer.ckpt_load");
  nn::Checkpoint ckpt;
  SAGDFN_RETURN_IF_ERROR(nn::LoadCheckpoint(&ckpt, path));
  SAGDFN_RETURN_IF_ERROR(
      nn::LoadModuleFromCheckpoint(model_, ckpt, "model/"));

  EnsureOptimizer();
  const auto& m = optimizer_->moments_m();
  const auto& v = optimizer_->moments_v();
  for (size_t i = 0; i < m.size(); ++i) {
    const tensor::Tensor* cm = ckpt.FindTensor("optim/m/" + std::to_string(i));
    const tensor::Tensor* cv = ckpt.FindTensor("optim/v/" + std::to_string(i));
    if (cm == nullptr || cv == nullptr) {
      return utils::Status::InvalidArgument(
          "checkpoint is missing Adam moments for parameter " +
          std::to_string(i) + ": " + path);
    }
    if (!(cm->shape() == m[i].shape()) || !(cv->shape() == v[i].shape())) {
      return utils::Status::InvalidArgument(
          "Adam moment shape mismatch for parameter " + std::to_string(i) +
          ": " + path);
    }
    // The moment accessors return shared-storage handles, so copying
    // through local handles writes into the live optimizer slots.
    tensor::Tensor slot_m = m[i];
    tensor::Tensor slot_v = v[i];
    slot_m.CopyFrom(*cm);
    slot_v.CopyFrom(*cv);
  }

  auto word = [&ckpt, &path](const std::string& name,
                             uint64_t* out) -> utils::Status {
    const std::vector<uint64_t>* words = ckpt.FindMeta(name);
    if (words == nullptr || words->size() != 1) {
      return utils::Status::InvalidArgument(
          "checkpoint is missing meta entry '" + name + "': " + path);
    }
    *out = (*words)[0];
    return utils::Status::Ok();
  };
  uint64_t completed = 0, total = 0, iteration = 0, adam_step = 0;
  uint64_t lr_bits = 0, best_val_bits = 0, bad_epochs = 0, rollbacks = 0;
  SAGDFN_RETURN_IF_ERROR(word("completed_epochs", &completed));
  SAGDFN_RETURN_IF_ERROR(word("total_epochs", &total));
  SAGDFN_RETURN_IF_ERROR(word("iteration", &iteration));
  SAGDFN_RETURN_IF_ERROR(word("adam_step", &adam_step));
  SAGDFN_RETURN_IF_ERROR(word("lr_bits", &lr_bits));
  SAGDFN_RETURN_IF_ERROR(word("best_val_bits", &best_val_bits));
  SAGDFN_RETURN_IF_ERROR(word("bad_epochs", &bad_epochs));
  SAGDFN_RETURN_IF_ERROR(word("rollbacks", &rollbacks));
  const std::vector<uint64_t>* rng_words = ckpt.FindMeta("trainer_rng");
  if (rng_words == nullptr ||
      static_cast<int64_t>(rng_words->size()) != utils::Rng::kStateWords) {
    return utils::Status::InvalidArgument(
        "checkpoint has a malformed trainer_rng entry: " + path);
  }

  std::vector<std::pair<std::string, std::vector<uint64_t>>> runtime;
  for (const auto& [name, words] : ckpt.meta) {
    constexpr std::string_view kRtPrefix = "model_rt/";
    if (name.size() > kRtPrefix.size() &&
        name.compare(0, kRtPrefix.size(), kRtPrefix) == 0) {
      runtime.emplace_back(name.substr(kRtPrefix.size()), words);
    }
  }
  SAGDFN_RETURN_IF_ERROR(model_->ImportRuntimeState(runtime));

  if (static_cast<int64_t>(total) != options_.epochs) {
    SAGDFN_LOG(Warning)
        << "resuming a run planned for " << total << " epochs with epochs="
        << options_.epochs << "; iteration-based schedules (scheduled "
        << "sampling, SNS convergence) will not match the original plan";
  }

  iteration_ = static_cast<int64_t>(iteration);
  next_epoch_ = static_cast<int64_t>(completed);
  rng_.DeserializeState(*rng_words);
  optimizer_->set_step_count(static_cast<int64_t>(adam_step));
  optimizer_->set_lr(BitsToDouble(lr_bits));
  best_val_ = BitsToDouble(best_val_bits);
  bad_epochs_ = static_cast<int64_t>(bad_epochs);
  // On a resume the saved rollback count is adopted; a rollback keeps the
  // live count (the caller applies this distinction).
  restored_rollbacks_ = static_cast<int64_t>(rollbacks);
  return utils::Status::Ok();
}

utils::Status Trainer::Resume(const std::string& path) {
  if (resumed_ || iteration_ != 0) {
    return utils::Status::FailedPrecondition(
        "Resume() must be called once, before Train()");
  }
  EnsureOptimizer();
  SAGDFN_RETURN_IF_ERROR(RestoreTrainerCheckpoint(path, /*rollback=*/false));
  resumed_ = true;
  last_good_ckpt_ = path;
  SAGDFN_LOG(Info) << "resumed " << model_->name() << " from " << path
                   << " (completed epochs: " << next_epoch_
                   << ", iteration: " << iteration_ << ")";
  return utils::Status::Ok();
}

bool Trainer::TryRollback(TrainResult* result) {
  consecutive_skips_ = 0;
  if (rollbacks_ >= options_.max_rollbacks) {
    result->status = utils::Status::FailedPrecondition(
        "training aborted: non-finite batches persisted through " +
        std::to_string(rollbacks_) +
        " rollback/backoff attempts (max_rollbacks)");
    return false;
  }
  ++rollbacks_;
  ++result->rollbacks;
  const double lr_before = optimizer_->lr();
  if (!last_good_ckpt_.empty()) {
    utils::Status status =
        RestoreTrainerCheckpoint(last_good_ckpt_, /*rollback=*/true);
    if (!status.ok()) {
      result->status = utils::Status::Internal(
          "rollback restore from " + last_good_ckpt_ +
          " failed: " + status.ToString());
      return false;
    }
  }
  // Compound the backoff across rollbacks: the restored checkpoint
  // carries the LR it was saved with, so halve whichever is smaller.
  const double lr =
      std::min(lr_before, optimizer_->lr()) * kRollbackLrBackoff;
  optimizer_->set_lr(lr);
  obs::Telemetry::Global().AddCounter("fault.rollbacks");
  obs::Telemetry::Global().Emit(obs::Event("fault.rollback")
                                    .Str("checkpoint", last_good_ckpt_)
                                    .Double("lr", lr)
                                    .Int("rollback", rollbacks_)
                                    .Int("max_rollbacks",
                                         options_.max_rollbacks));
  SAGDFN_LOG(Warning) << "rolled back to "
                      << (last_good_ckpt_.empty()
                              ? "current weights (no checkpoint available)"
                              : last_good_ckpt_)
                      << "; learning rate now " << lr << " (rollback "
                      << rollbacks_ << "/" << options_.max_rollbacks << ")";
  return true;
}

Trainer::EpochOutcome Trainer::RunTrainEpoch(int64_t epoch,
                                             TrainResult* result) {
  (void)epoch;
  SAGDFN_SCOPED_TIMER("trainer.train_epoch");
  utils::FaultInjector& injector = utils::FaultInjector::Global();
  model_->SetTraining(true);
  std::vector<int64_t> order = dataset_->ShuffledTrainOrder(rng_);
  int64_t num_batches =
      (static_cast<int64_t>(order.size()) + options_.batch_size - 1) /
      options_.batch_size;
  if (options_.max_train_batches_per_epoch > 0) {
    num_batches = std::min(num_batches, options_.max_train_batches_per_epoch);
  }

  double epoch_loss = 0.0;
  int64_t good_batches = 0;
  for (int64_t bi = 0; bi < num_batches; ++bi) {
    const int64_t start = bi * options_.batch_size;
    const int64_t end = std::min<int64_t>(
        start + options_.batch_size, static_cast<int64_t>(order.size()));
    std::vector<int64_t> offsets(order.begin() + start, order.begin() + end);
    data::Batch batch = dataset_->GetBatchAt(data::Split::kTrain, offsets);

    const double teacher_prob =
        decay_steps_ / (decay_steps_ + std::exp(iteration_ / decay_steps_));
    ag::Variable pred = model_->Forward(batch.x, batch.future_tod,
                                        iteration_, &batch.y_scaled,
                                        teacher_prob);
    ag::Variable loss = ag::L1Loss(pred, ag::Variable(batch.y_scaled));

    if (injector.Fire(utils::FaultSite::kLoss, iteration_)) {
      loss.mutable_value().data()[0] =
          std::numeric_limits<float>::quiet_NaN();
    }

    // Non-finite guard #1: a NaN/Inf loss poisons every gradient through
    // backprop, so skip the batch before touching the tape.
    const float loss_value = loss.value().Item();
    bool poisoned = !std::isfinite(loss_value);
    if (!poisoned) {
      model_->ZeroGrad();
      loss.Backward();
      if (injector.Fire(utils::FaultSite::kGrad, iteration_)) {
        tensor::Tensor g = optimizer_->params()[0].grad();
        g.data()[0] = std::numeric_limits<float>::quiet_NaN();
      }
      // Non-finite guard #2: ClipGradNorm reports a non-finite global
      // norm instead of scaling by it; skip the optimizer step.
      const double norm =
          optim::ClipGradNorm(optimizer_->params(), options_.grad_clip);
      if (std::isfinite(norm)) {
        last_grad_norm_ = norm;
        optimizer_->Step();
      } else {
        poisoned = true;
      }
    }

    ++iteration_;
    if (poisoned) {
      model_->ZeroGrad();
      ++result->skipped_batches;
      ++consecutive_skips_;
      obs::Telemetry::Global().AddCounter("fault.skipped_batches");
      obs::Telemetry::Global().Emit(
          obs::Event("fault.skipped_batch")
              .Int("iteration", iteration_ - 1)
              .Int("consecutive", consecutive_skips_)
              .Int("max_consecutive", kMaxConsecutiveSkips));
      SAGDFN_LOG(Warning) << model_->name()
                          << ": non-finite loss/gradient at iteration "
                          << (iteration_ - 1) << ", skipping batch ("
                          << consecutive_skips_ << "/"
                          << kMaxConsecutiveSkips
                          << " consecutive)";
      if (consecutive_skips_ >= kMaxConsecutiveSkips) {
        return EpochOutcome::kFaultStorm;
      }
      continue;
    }
    consecutive_skips_ = 0;
    epoch_loss += loss_value;
    ++good_batches;
  }
  epoch_loss /= std::max<int64_t>(good_batches, 1);
  result->epoch_train_loss.push_back(epoch_loss);
  return EpochOutcome::kOk;
}

void Trainer::RestoreBestWeights(TrainResult* result) {
  if (checkpointing()) {
    const std::string best = BestCheckpointPath();
    std::error_code ec;
    if (!fs::exists(best, ec)) return;  // validation never improved
    nn::Checkpoint ckpt;
    utils::Status status = nn::LoadCheckpoint(&ckpt, best);
    // Validate the whole file first so a malformed best.ckpt cannot
    // leave the model half-overwritten; only the parameters are restored.
    std::vector<const tensor::Tensor*> sources;
    if (status.ok()) {
      status = nn::MatchModuleState(*model_, ckpt, /*prefix=*/"", &sources);
    }
    if (status.ok()) {
      size_t i = 0;
      for (auto& [name, var] : model_->NamedParameters()) {
        var.mutable_value().CopyFrom(*sources[i++]);
      }
    }
    if (!status.ok()) {
      ++result->checkpoint_failures;
      SAGDFN_LOG(Warning) << "could not restore best weights from " << best
                          << " (" << status.ToString()
                          << "); keeping final-epoch weights";
    }
  } else if (!best_weights_.empty()) {
    const auto& params = optimizer_->params();
    for (size_t i = 0; i < params.size(); ++i) {
      autograd::Variable param = params[i];  // shared handle
      param.mutable_value().CopyFrom(best_weights_[i]);
    }
  }
}

TrainResult Trainer::Train() {
  TrainResult result;
  utils::FaultInjector& injector = utils::FaultInjector::Global();
  EnsureOptimizer();

  const int64_t planned_iterations =
      TrainBatchesPerEpoch() * options_.epochs;
  model_->OnTrainingPlan(planned_iterations);
  // Scheduled-sampling decay (DCRNN-style inverse sigmoid): start with
  // mostly ground-truth decoder inputs, end with the model's own
  // predictions.
  decay_steps_ =
      std::max(1.0, static_cast<double>(planned_iterations) / 4.0);

  if (!resumed_) {
    best_val_ = std::numeric_limits<double>::infinity();
    bad_epochs_ = 0;
  }
  const int64_t run_start_epoch = next_epoch_;
  utils::Stopwatch total_watch;

  if (checkpointing()) {
    std::error_code ec;
    fs::create_directories(options_.checkpoint_dir, ec);
    if (last_good_ckpt_.empty()) {
      // Initial-state checkpoint: gives epoch 0 a rollback anchor and
      // makes a crash before the first epoch boundary resumable.
      const std::string path = EpochCheckpointPath(next_epoch_);
      utils::Status status = SaveTrainerCheckpoint(path, next_epoch_);
      if (status.ok()) {
        last_good_ckpt_ = path;
      } else {
        ++result.checkpoint_failures;
        SAGDFN_LOG(Warning) << "initial checkpoint failed ("
                            << status.ToString() << "); continuing without "
                            << "a rollback anchor";
      }
    }
  }

  int64_t epoch = next_epoch_;
  while (epoch < options_.epochs) {
    utils::Stopwatch epoch_watch;
    const int64_t skips_before = result.skipped_batches;
    if (RunTrainEpoch(epoch, &result) == EpochOutcome::kFaultStorm) {
      if (!TryRollback(&result)) break;
      // Drop any epochs recorded past the restored checkpoint; they will
      // be re-run (deterministically, from the restored RNG streams).
      const size_t keep = static_cast<size_t>(
          std::max<int64_t>(0, next_epoch_ - run_start_epoch));
      result.epoch_train_loss.resize(
          std::min(result.epoch_train_loss.size(), keep));
      result.epoch_val_mae.resize(
          std::min(result.epoch_val_mae.size(), keep));
      result.epochs_run = static_cast<int64_t>(result.epoch_val_mae.size());
      epoch = next_epoch_;
      continue;
    }

    // Validation metrics in original units: one Evaluate() pass instead
    // of a full tensor scan per metric.
    tensor::Tensor val_pred = Predict(data::Split::kValidation);
    tensor::Tensor val_truth = Truth(data::Split::kValidation);
    const metrics::Scores val = metrics::Evaluate(val_pred, val_truth);
    const double val_mae = val.mae;
    result.epoch_val_mae.push_back(val_mae);
    result.epochs_run = static_cast<int64_t>(result.epoch_val_mae.size());

    if (options_.verbose) {
      SAGDFN_LOG(Info) << model_->name() << " epoch " << epoch
                       << " train_l1=" << result.epoch_train_loss.back()
                       << " val_mae=" << val_mae;
    }

    if (obs::Telemetry::CollectionEnabled()) {
      const tensor::StorageBytes storage = tensor::StorageStats();
      obs::Telemetry::Global().SetGauge(
          "tensor.storage.retained_bytes",
          static_cast<double>(storage.retained));
      obs::Telemetry::Global().SetGauge(
          "tensor.storage.high_water_bytes",
          static_cast<double>(storage.high_water));
    }
    obs::Telemetry::Global().Emit(
        obs::Event("train.epoch")
            .Str("model", model_->name())
            .Int("epoch", epoch)
            .Double("train_loss", result.epoch_train_loss.back())
            .Double("val_mae", val.mae)
            .Double("val_rmse", val.rmse)
            .Double("val_mape", val.mape)
            .Double("lr", optimizer_->lr())
            .Double("grad_norm", last_grad_norm_)
            .Int("skipped_batches",
                 result.skipped_batches - skips_before)
            .Double("seconds", epoch_watch.ElapsedSeconds()));

    bool stop = false;
    if (!val.IsSignal()) {
      // Every validation entry was masked: no signal. Neither a new best
      // nor a bad epoch — patience only counts real regressions.
      SAGDFN_LOG(Warning)
          << model_->name() << " epoch " << epoch
          << ": validation window is fully masked (val_mae=NaN); "
          << "skipping best-model/early-stopping bookkeeping";
    } else if (val_mae < best_val_ - 1e-9) {
      best_val_ = val_mae;
      bad_epochs_ = 0;
      // Snapshot the best-validation weights (restored after training,
      // the standard METR-LA benchmark protocol).
      if (checkpointing()) {
        utils::Status status =
            nn::SaveModule(*model_, BestCheckpointPath());
        if (!status.ok()) {
          ++result.checkpoint_failures;
          SAGDFN_LOG(Warning) << "best-checkpoint save failed: "
                              << status.ToString();
        }
      } else {
        best_weights_.clear();
        for (const auto& p : optimizer_->params()) {
          best_weights_.push_back(p.value().Clone());
        }
      }
    } else {
      ++bad_epochs_;
      if (options_.patience > 0 && bad_epochs_ >= options_.patience) {
        stop = true;
      }
    }

    ++epoch;
    next_epoch_ = epoch;
    if (checkpointing()) {
      const std::string path = EpochCheckpointPath(epoch);
      utils::Status status = SaveTrainerCheckpoint(path, epoch);
      if (status.ok()) {
        last_good_ckpt_ = path;
        RotateCheckpoints();
      } else {
        ++result.checkpoint_failures;
        SAGDFN_LOG(Warning)
            << "checkpoint save failed after epoch " << epoch << " ("
            << status.ToString() << "); previous checkpoint "
            << (last_good_ckpt_.empty() ? "none" : last_good_ckpt_)
            << " remains the resume/rollback anchor";
      }
    }
    if (stop) break;
    if (injector.Fire(utils::FaultSite::kCrash, epoch)) {
      result.status = utils::Status::Internal(
          "injected crash after epoch " + std::to_string(epoch));
      break;
    }
  }

  RestoreBestWeights(&result);

  result.total_seconds = total_watch.ElapsedSeconds();
  result.seconds_per_epoch =
      result.epochs_run > 0 ? result.total_seconds / result.epochs_run : 0.0;
  result.best_val_mae = best_val_;
  obs::Telemetry::Global().Emit(
      obs::Event("train.done")
          .Str("model", model_->name())
          .Int("epochs_run", result.epochs_run)
          .Double("total_seconds", result.total_seconds)
          .Double("best_val_mae", result.best_val_mae)
          .Int("skipped_batches", result.skipped_batches)
          .Int("rollbacks", result.rollbacks)
          .Int("checkpoint_failures", result.checkpoint_failures)
          .Bool("ok", result.status.ok()));
  obs::Telemetry::Global().EmitSnapshot("train.done");
  return result;
}

int64_t Trainer::EvalWindowCount(data::Split split) const {
  int64_t windows = dataset_->NumSamples(split);
  if (options_.max_eval_batches > 0) {
    windows = std::min(windows,
                       options_.max_eval_batches * options_.batch_size);
  }
  return windows;
}

tensor::Tensor Trainer::Predict(data::Split split) {
  SAGDFN_SCOPED_TIMER("trainer.predict");
  ag::NoGradGuard guard;
  model_->SetTraining(false);
  const int64_t windows = EvalWindowCount(split);
  const int64_t f = dataset_->spec().horizon;
  const int64_t n = dataset_->num_nodes();
  tensor::Tensor all =
      tensor::Tensor::Zeros(tensor::Shape({windows, f, n}));

  int64_t written = 0;
  while (written < windows) {
    const int64_t take =
        std::min(options_.batch_size, windows - written);
    std::vector<int64_t> offsets(take);
    for (int64_t i = 0; i < take; ++i) offsets[i] = written + i;
    data::Batch batch = dataset_->GetBatchAt(split, offsets);
    ag::Variable pred =
        model_->Forward(batch.x, batch.future_tod, iteration_);
    tensor::Tensor unscaled =
        dataset_->scaler().InverseTransform(pred.value());
    std::copy(unscaled.data(), unscaled.data() + unscaled.size(),
              all.data() + written * f * n);
    written += take;
  }
  model_->SetTraining(true);
  return all;
}

tensor::Tensor Trainer::Truth(data::Split split) const {
  const int64_t windows = EvalWindowCount(split);
  const int64_t f = dataset_->spec().horizon;
  const int64_t n = dataset_->num_nodes();
  tensor::Tensor all =
      tensor::Tensor::Zeros(tensor::Shape({windows, f, n}));
  int64_t written = 0;
  while (written < windows) {
    const int64_t take =
        std::min(options_.batch_size, windows - written);
    std::vector<int64_t> offsets(take);
    for (int64_t i = 0; i < take; ++i) offsets[i] = written + i;
    data::Batch batch = dataset_->GetBatchAt(split, offsets);
    std::copy(batch.y.data(), batch.y.data() + batch.y.size(),
              all.data() + written * f * n);
    written += take;
  }
  return all;
}

std::vector<metrics::Scores> Trainer::EvaluateSplit(
    data::Split split, const std::vector<int64_t>& horizons) {
  tensor::Tensor pred = Predict(split);
  tensor::Tensor truth = Truth(split);
  return metrics::EvaluateHorizons(pred, truth, horizons);
}

utils::Status FineTuneFromSnapshot(const SagdfnModel& snapshot,
                                   const data::ForecastDataset& dataset,
                                   const TrainOptions& options,
                                   const std::string& candidate_path,
                                   TrainResult* result) {
  SAGDFN_CHECK_EQ(snapshot.config().num_nodes, dataset.num_nodes())
      << "fine-tune dataset node count must match the serving snapshot";
  auto clone = std::make_unique<SagdfnModel>(snapshot.config());
  utils::Status status = nn::CopyModuleState(snapshot, clone.get());
  if (!status.ok()) return status;

  Trainer trainer(clone.get(), &dataset, options);
  TrainResult train_result = trainer.Train();
  if (result != nullptr) *result = train_result;
  if (!train_result.status.ok()) return train_result.status;

  clone->SetTraining(false);
  return nn::SaveModule(*clone, candidate_path);
}

}  // namespace sagdfn::core
