#include "core/trainer.h"

#include <cstring>
#include <filesystem>

#include <gtest/gtest.h>

#include "core/sagdfn.h"
#include "data/synthetic.h"
#include "data/window_dataset.h"
#include "obs/telemetry.h"
#include "tensor/tensor_ops.h"
#include "test_support.h"
#include "utils/fault.h"

namespace sagdfn::core {
namespace {

data::ForecastDataset TinyDataset() {
  data::TrafficOptions options;
  options.num_nodes = 12;
  options.num_days = 4;
  options.steps_per_day = 48;
  options.seed = 3;
  return data::ForecastDataset(data::GenerateTraffic(options),
                               data::WindowSpec{6, 3});
}

SagdfnConfig TinyModelConfig(const data::ForecastDataset& dataset) {
  SagdfnConfig config;
  config.num_nodes = dataset.num_nodes();
  config.embedding_dim = 4;
  config.m = 6;
  config.k = 4;
  config.hidden_dim = 8;
  config.heads = 2;
  config.ffn_hidden = 4;
  config.diffusion_steps = 2;
  config.history = dataset.spec().history;
  config.horizon = dataset.spec().horizon;
  config.convergence_iters = 4;
  return config;
}

TrainOptions QuickOptions() {
  TrainOptions options;
  options.epochs = 2;
  options.batch_size = 8;
  options.learning_rate = 0.02;
  options.max_train_batches_per_epoch = 6;
  options.max_eval_batches = 3;
  return options;
}

TEST(TrainerTest, TrainingReducesLoss) {
  data::ForecastDataset dataset = TinyDataset();
  SagdfnModel model(TinyModelConfig(dataset));
  TrainOptions options = QuickOptions();
  options.epochs = 4;
  options.max_train_batches_per_epoch = 10;
  Trainer trainer(&model, &dataset, options);
  TrainResult result = trainer.Train();
  ASSERT_EQ(result.epochs_run, 4);
  EXPECT_LT(result.epoch_train_loss.back(),
            result.epoch_train_loss.front());
  EXPECT_GT(result.total_seconds, 0.0);
}

// With collection on, each epoch end exports the tensor storage
// recycler's retained and high-water bytes, and retained stays under the
// high-water.
TEST(TrainerTest, ExportsTensorStorageGaugesAtEpochEnd) {
  struct Restore {
    bool previous = obs::Telemetry::CollectionEnabled();
    ~Restore() { obs::Telemetry::SetCollectionEnabled(previous); }
  } restore;
  obs::Telemetry::SetCollectionEnabled(true);
  data::ForecastDataset dataset = TinyDataset();
  SagdfnModel model(TinyModelConfig(dataset));
  Trainer trainer(&model, &dataset, QuickOptions());
  trainer.Train();
  const obs::Telemetry& telemetry = obs::Telemetry::Global();
  const double high_water =
      telemetry.gauge("tensor.storage.high_water_bytes");
  const double retained = telemetry.gauge("tensor.storage.retained_bytes");
  EXPECT_GT(high_water, 0.0);
  EXPECT_GT(retained, 0.0);
  EXPECT_LE(retained, high_water);
}

TEST(TrainerTest, PredictShapesAndFiniteness) {
  data::ForecastDataset dataset = TinyDataset();
  SagdfnModel model(TinyModelConfig(dataset));
  Trainer trainer(&model, &dataset, QuickOptions());
  trainer.Train();
  tensor::Tensor pred = trainer.Predict(data::Split::kTest);
  tensor::Tensor truth = trainer.Truth(data::Split::kTest);
  EXPECT_EQ(pred.shape(), truth.shape());
  EXPECT_EQ(pred.ndim(), 3);
  EXPECT_EQ(pred.dim(1), 3);
  EXPECT_EQ(pred.dim(2), 12);
  EXPECT_FALSE(tensor::HasNonFinite(pred));
}

TEST(TrainerTest, EvalCapRespected) {
  data::ForecastDataset dataset = TinyDataset();
  SagdfnModel model(TinyModelConfig(dataset));
  TrainOptions options = QuickOptions();
  options.max_eval_batches = 2;
  options.batch_size = 4;
  Trainer trainer(&model, &dataset, options);
  tensor::Tensor pred = trainer.Predict(data::Split::kValidation);
  EXPECT_EQ(pred.dim(0), 8);  // 2 batches * 4
}

TEST(TrainerTest, EvaluateSplitHorizons) {
  data::ForecastDataset dataset = TinyDataset();
  SagdfnModel model(TinyModelConfig(dataset));
  Trainer trainer(&model, &dataset, QuickOptions());
  trainer.Train();
  auto scores = trainer.EvaluateSplit(data::Split::kTest, {1, 3});
  ASSERT_EQ(scores.size(), 2u);
  EXPECT_GT(scores[0].mae, 0.0);
  // Beats an absurd bound (speeds are in [3, 80]).
  EXPECT_LT(scores[0].mae, 40.0);
}

TEST(TrainerTest, BetterThanUntrainedModel) {
  data::ForecastDataset dataset = TinyDataset();

  SagdfnConfig config = TinyModelConfig(dataset);
  SagdfnModel untrained(config);
  Trainer eval_only(&untrained, &dataset, QuickOptions());
  const double untrained_mae =
      metrics::Evaluate(eval_only.Predict(data::Split::kTest),
                        eval_only.Truth(data::Split::kTest))
          .mae;

  SagdfnModel trained(config);
  TrainOptions options = QuickOptions();
  options.epochs = 5;
  options.max_train_batches_per_epoch = 12;
  Trainer trainer(&trained, &dataset, options);
  trainer.Train();
  const double trained_mae =
      metrics::Evaluate(trainer.Predict(data::Split::kTest),
                        trainer.Truth(data::Split::kTest))
          .mae;
  EXPECT_LT(trained_mae, untrained_mae);
}

TEST(TrainerTest, EarlyStoppingHonorsPatience) {
  data::ForecastDataset dataset = TinyDataset();
  SagdfnModel model(TinyModelConfig(dataset));
  TrainOptions options = QuickOptions();
  options.epochs = 50;
  options.patience = 1;
  options.max_train_batches_per_epoch = 1;
  options.learning_rate = 0.0;  // no progress -> val plateaus immediately
  Trainer trainer(&model, &dataset, options);
  TrainResult result = trainer.Train();
  EXPECT_LT(result.epochs_run, 50);
}

TEST(TrainerTest, HorizonMismatchDies) {
  data::ForecastDataset dataset = TinyDataset();
  SagdfnConfig config = TinyModelConfig(dataset);
  config.horizon = 5;  // dataset horizon is 3
  SagdfnModel model(config);
  EXPECT_DEATH(Trainer(&model, &dataset, QuickOptions()), "horizon");
}

std::string FreshDir(const std::string& name) {
  const std::string dir = test_support::TempPath(name);
  std::filesystem::remove_all(dir);
  return dir;
}

void ExpectBitIdenticalParameters(const SagdfnModel& a,
                                  const SagdfnModel& b) {
  auto pa = a.NamedParameters();
  auto pb = b.NamedParameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t i = 0; i < pa.size(); ++i) {
    ASSERT_EQ(pa[i].first, pb[i].first);
    const tensor::Tensor& ta = pa[i].second.value();
    const tensor::Tensor& tb = pb[i].second.value();
    ASSERT_EQ(ta.shape(), tb.shape()) << pa[i].first;
    EXPECT_EQ(std::memcmp(ta.data(), tb.data(), ta.size() * sizeof(float)),
              0)
        << "parameter bytes diverged: " << pa[i].first;
  }
}

// The headline fault-tolerance guarantee: kill training mid-run (injected
// crash after epoch 3's checkpoint), resume from disk in a fresh
// trainer + model, and the final parameters are byte-identical to an
// uninterrupted run — every RNG stream, Adam moment, and the SNS index
// set round-trips through the checkpoint.
TEST(TrainerTest, KillAndResumeIsBitExact) {
  data::ForecastDataset dataset = TinyDataset();
  SagdfnConfig config = TinyModelConfig(dataset);
  TrainOptions options = QuickOptions();
  options.epochs = 6;

  TrainOptions ref_options = options;
  ref_options.checkpoint_dir = FreshDir("ckpt_ref");
  SagdfnModel ref_model(config);
  Trainer ref_trainer(&ref_model, &dataset, ref_options);
  TrainResult ref_result = ref_trainer.Train();
  ASSERT_TRUE(ref_result.status.ok()) << ref_result.status.ToString();
  ASSERT_EQ(ref_result.epochs_run, 6);

  TrainOptions crash_options = options;
  crash_options.checkpoint_dir = FreshDir("ckpt_crash");
  ASSERT_TRUE(
      utils::FaultInjector::Global().Configure("crash@epoch=3").ok());
  SagdfnModel crashed_model(config);
  Trainer crashed_trainer(&crashed_model, &dataset, crash_options);
  TrainResult crash_result = crashed_trainer.Train();
  utils::FaultInjector::Global().Reset();
  ASSERT_FALSE(crash_result.status.ok());
  ASSERT_EQ(crash_result.epochs_run, 3);

  const std::string latest =
      Trainer::LatestCheckpoint(crash_options.checkpoint_dir);
  ASSERT_FALSE(latest.empty());
  SagdfnModel resumed_model(config);
  Trainer resumed_trainer(&resumed_model, &dataset, crash_options);
  ASSERT_TRUE(resumed_trainer.Resume(latest).ok());
  TrainResult resumed_result = resumed_trainer.Train();
  ASSERT_TRUE(resumed_result.status.ok()) << resumed_result.status.ToString();
  ASSERT_EQ(resumed_result.epochs_run, 3);  // epochs 3, 4, 5

  // The resumed half of the training curve matches exactly (doubles
  // compared for equality on purpose: bit-exact, not approximately).
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(ref_result.epoch_val_mae[3 + i],
              resumed_result.epoch_val_mae[i])
        << "val curve diverged at resumed epoch " << i;
    EXPECT_EQ(ref_result.epoch_train_loss[3 + i],
              resumed_result.epoch_train_loss[i])
        << "train curve diverged at resumed epoch " << i;
  }
  ExpectBitIdenticalParameters(ref_model, resumed_model);
}

TEST(TrainerTest, ResumeRestoresOptimizerAndIterationBitExactly) {
  data::ForecastDataset dataset = TinyDataset();
  SagdfnConfig config = TinyModelConfig(dataset);
  TrainOptions options = QuickOptions();
  options.checkpoint_dir = FreshDir("ckpt_roundtrip");

  SagdfnModel model(config);
  Trainer trainer(&model, &dataset, options);
  TrainResult result = trainer.Train();
  ASSERT_TRUE(result.status.ok());

  const std::string latest =
      Trainer::LatestCheckpoint(options.checkpoint_dir);
  ASSERT_FALSE(latest.empty());
  SagdfnModel fresh(config);
  Trainer resumed(&fresh, &dataset, options);
  ASSERT_TRUE(resumed.Resume(latest).ok());

  EXPECT_EQ(resumed.global_iteration(), trainer.global_iteration());
  ASSERT_NE(resumed.optimizer(), nullptr);
  EXPECT_EQ(resumed.optimizer()->step_count(),
            trainer.optimizer()->step_count());
  const auto& m1 = trainer.optimizer()->moments_m();
  const auto& v1 = trainer.optimizer()->moments_v();
  const auto& m2 = resumed.optimizer()->moments_m();
  const auto& v2 = resumed.optimizer()->moments_v();
  ASSERT_EQ(m1.size(), m2.size());
  for (size_t i = 0; i < m1.size(); ++i) {
    EXPECT_EQ(std::memcmp(m1[i].data(), m2[i].data(),
                          m1[i].size() * sizeof(float)),
              0)
        << "Adam first moment diverged for parameter " << i;
    EXPECT_EQ(std::memcmp(v1[i].data(), v2[i].data(),
                          v1[i].size() * sizeof(float)),
              0)
        << "Adam second moment diverged for parameter " << i;
  }
}

TEST(TrainerTest, CheckpointRotationKeepsLastK) {
  data::ForecastDataset dataset = TinyDataset();
  SagdfnModel model(TinyModelConfig(dataset));
  TrainOptions options = QuickOptions();
  options.epochs = 4;
  options.keep_last_k = 2;
  options.checkpoint_dir = FreshDir("ckpt_rotate");
  Trainer trainer(&model, &dataset, options);
  TrainResult result = trainer.Train();
  ASSERT_TRUE(result.status.ok());

  EXPECT_EQ(Trainer::LatestCheckpoint(options.checkpoint_dir),
            options.checkpoint_dir + "/epoch-000004.ckpt");
  int64_t epoch_files = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(options.checkpoint_dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("epoch-", 0) == 0) ++epoch_files;
  }
  EXPECT_EQ(epoch_files, 2);
  EXPECT_TRUE(std::filesystem::exists(trainer.BestCheckpointPath()));
}

TEST(TrainerTest, ResumeFromMissingCheckpointFails) {
  data::ForecastDataset dataset = TinyDataset();
  SagdfnModel model(TinyModelConfig(dataset));
  Trainer trainer(&model, &dataset, QuickOptions());
  utils::Status status = trainer.Resume("/nonexistent/epoch-000001.ckpt");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), utils::StatusCode::kNotFound);
}

TEST(TrainerTest, LatestCheckpointEmptyForMissingDir) {
  EXPECT_EQ(Trainer::LatestCheckpoint("/nonexistent-dir"), "");
}

}  // namespace
}  // namespace sagdfn::core
