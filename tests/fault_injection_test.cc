#include "utils/fault.h"

#include <cmath>
#include <filesystem>

#include <gtest/gtest.h>

#include "core/sagdfn.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "data/window_dataset.h"
#include "nn/serialization.h"
#include "tensor/tensor_ops.h"
#include "test_support.h"

namespace sagdfn {
namespace {

using core::SagdfnConfig;
using core::SagdfnModel;
using core::Trainer;
using core::TrainOptions;
using core::TrainResult;

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

std::string FreshDir(const std::string& name) {
  const std::string dir = test_support::TempPath(name);
  std::filesystem::remove_all(dir);
  return dir;
}

/// Guarantees every test starts and ends with a disabled injector, even
/// when an assertion fails mid-test.
class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override { utils::FaultInjector::Global().Reset(); }
  void TearDown() override { utils::FaultInjector::Global().Reset(); }
};

TEST_F(FaultInjectionTest, SpecParsing) {
  utils::FaultInjector injector;
  EXPECT_TRUE(injector.Configure("").ok());
  EXPECT_FALSE(injector.enabled());
  EXPECT_TRUE(injector.Configure("nan_loss@iter=7").ok());
  EXPECT_TRUE(injector.enabled());
  EXPECT_TRUE(injector
                  .Configure("nan_grad@prob=0.25; crash@epoch=3, "
                             "io_fail@save=2, truncate_ckpt, seed=99")
                  .ok());
  EXPECT_TRUE(injector.Configure("io_fail@load=1,truncate_ckpt@save=2").ok());

  EXPECT_FALSE(injector.Configure("nan_loss").ok());        // no trigger
  EXPECT_FALSE(injector.Configure("crash@iter=1").ok());    // wrong key
  EXPECT_FALSE(injector.Configure("io_fail@save=0").ok());  // 1-based
  EXPECT_FALSE(injector.Configure("nan_grad@prob=2").ok()); // p > 1
  EXPECT_FALSE(injector.Configure("bogus@iter=1").ok());    // unknown kind
  EXPECT_FALSE(injector.enabled());  // failed Configure leaves it disabled
}

TEST_F(FaultInjectionTest, IndexedRulesFireExactlyOnce) {
  utils::FaultInjector injector;
  ASSERT_TRUE(injector.Configure("nan_loss@iter=3").ok());
  EXPECT_FALSE(injector.Fire(utils::FaultSite::kLoss, 2));
  EXPECT_TRUE(injector.Fire(utils::FaultSite::kLoss, 3));
  EXPECT_FALSE(injector.Fire(utils::FaultSite::kLoss, 3));  // latched
  EXPECT_FALSE(injector.Fire(utils::FaultSite::kGrad, 3));  // other site
}

TEST_F(FaultInjectionTest, CountedRulesUseOccurrenceNumbers) {
  utils::FaultInjector injector;
  ASSERT_TRUE(injector.Configure("io_fail@save=2").ok());
  EXPECT_FALSE(injector.FireCounted(utils::FaultSite::kSaveFail));  // 1st
  EXPECT_TRUE(injector.FireCounted(utils::FaultSite::kSaveFail));   // 2nd
  EXPECT_FALSE(injector.FireCounted(utils::FaultSite::kSaveFail));  // 3rd
}

TEST_F(FaultInjectionTest, ProbabilisticRulesAreSeedDeterministic) {
  utils::FaultInjector a;
  utils::FaultInjector b;
  ASSERT_TRUE(a.Configure("nan_grad@prob=0.5,seed=7").ok());
  ASSERT_TRUE(b.Configure("nan_grad@prob=0.5,seed=7").ok());
  int fired = 0;
  for (int i = 0; i < 64; ++i) {
    const bool fa = a.Fire(utils::FaultSite::kGrad, i);
    EXPECT_EQ(fa, b.Fire(utils::FaultSite::kGrad, i)) << "probe " << i;
    fired += fa ? 1 : 0;
  }
  EXPECT_GT(fired, 0);
  EXPECT_LT(fired, 64);
}

TEST_F(FaultInjectionTest, NanLossSkipsBatchAndTrainingContinues) {
  data::ForecastDataset dataset = TinyDataset();
  SagdfnModel model(TinyModelConfig(dataset));
  ASSERT_TRUE(
      utils::FaultInjector::Global().Configure("nan_loss@iter=2").ok());
  Trainer trainer(&model, &dataset, QuickOptions());
  TrainResult result = trainer.Train();
  EXPECT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.skipped_batches, 1);
  EXPECT_EQ(result.rollbacks, 0);
  EXPECT_EQ(result.epochs_run, 2);
  EXPECT_FALSE(tensor::HasNonFinite(trainer.Predict(data::Split::kTest)));
}

TEST_F(FaultInjectionTest, NanGradSkipsBatchAndTrainingContinues) {
  data::ForecastDataset dataset = TinyDataset();
  SagdfnModel model(TinyModelConfig(dataset));
  ASSERT_TRUE(
      utils::FaultInjector::Global().Configure("nan_grad@iter=1").ok());
  Trainer trainer(&model, &dataset, QuickOptions());
  TrainResult result = trainer.Train();
  EXPECT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.skipped_batches, 1);
  EXPECT_FALSE(tensor::HasNonFinite(trainer.Predict(data::Split::kTest)));
}

// Three consecutive poisoned batches trip the fault-storm threshold; the
// trainer rolls back to the last good checkpoint with a halved learning
// rate, the one-shot rules are spent, and the replayed epoch completes.
TEST_F(FaultInjectionTest, FaultStormRollsBackAndHalvesLearningRate) {
  data::ForecastDataset dataset = TinyDataset();
  SagdfnModel model(TinyModelConfig(dataset));
  TrainOptions options = QuickOptions();
  options.checkpoint_dir = FreshDir("ckpt_storm");
  ASSERT_TRUE(utils::FaultInjector::Global()
                  .Configure("nan_loss@iter=0,nan_loss@iter=1,"
                             "nan_grad@iter=2")
                  .ok());
  Trainer trainer(&model, &dataset, options);
  TrainResult result = trainer.Train();
  EXPECT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.skipped_batches, 3);
  EXPECT_EQ(result.rollbacks, 1);
  EXPECT_EQ(result.epochs_run, 2);
  ASSERT_NE(trainer.optimizer(), nullptr);
  EXPECT_DOUBLE_EQ(trainer.optimizer()->lr(),
                   options.learning_rate * core::kRollbackLrBackoff);
  EXPECT_FALSE(tensor::HasNonFinite(trainer.Predict(data::Split::kTest)));
}

// A persistent fault (every batch poisoned) must exhaust the bounded
// backoff budget and report a clear error — never abort the process or
// loop forever.
TEST_F(FaultInjectionTest, PersistentFaultExhaustsRollbackBudget) {
  data::ForecastDataset dataset = TinyDataset();
  SagdfnModel model(TinyModelConfig(dataset));
  TrainOptions options = QuickOptions();
  options.checkpoint_dir = FreshDir("ckpt_giveup");
  options.max_rollbacks = 2;
  ASSERT_TRUE(
      utils::FaultInjector::Global().Configure("nan_loss@prob=1").ok());
  Trainer trainer(&model, &dataset, options);
  TrainResult result = trainer.Train();
  EXPECT_FALSE(result.status.ok());
  EXPECT_EQ(result.status.code(), utils::StatusCode::kFailedPrecondition);
  EXPECT_EQ(result.rollbacks, 2);
  ASSERT_NE(trainer.optimizer(), nullptr);
  EXPECT_DOUBLE_EQ(trainer.optimizer()->lr(), options.learning_rate * 0.25);
  // The model still holds finite weights (rolled back, never stepped on
  // a poisoned gradient).
  EXPECT_FALSE(tensor::HasNonFinite(trainer.Predict(data::Split::kTest)));
}

TEST_F(FaultInjectionTest, FailedCheckpointSaveDoesNotStopTraining) {
  data::ForecastDataset dataset = TinyDataset();
  SagdfnModel model(TinyModelConfig(dataset));
  TrainOptions options = QuickOptions();
  options.checkpoint_dir = FreshDir("ckpt_iofail");
  // Save #1 is the initial anchor, #2 is best.ckpt or epoch 1 — fail the
  // epoch-boundary one and training must shrug it off.
  ASSERT_TRUE(
      utils::FaultInjector::Global().Configure("io_fail@save=3").ok());
  Trainer trainer(&model, &dataset, options);
  TrainResult result = trainer.Train();
  EXPECT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.checkpoint_failures, 1);
  EXPECT_EQ(result.epochs_run, 2);
  // Whatever survived on disk still parses.
  const std::string latest =
      Trainer::LatestCheckpoint(options.checkpoint_dir);
  ASSERT_FALSE(latest.empty());
  nn::Checkpoint ckpt;
  EXPECT_TRUE(nn::LoadCheckpoint(&ckpt, latest).ok());
}

TEST_F(FaultInjectionTest, TruncatedCheckpointNeverShadowsAGoodOne) {
  data::ForecastDataset dataset = TinyDataset();
  SagdfnModel model(TinyModelConfig(dataset));
  TrainOptions options = QuickOptions();
  options.checkpoint_dir = FreshDir("ckpt_trunc");
  ASSERT_TRUE(utils::FaultInjector::Global()
                  .Configure("truncate_ckpt@save=3")
                  .ok());
  Trainer trainer(&model, &dataset, options);
  TrainResult result = trainer.Train();
  EXPECT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.checkpoint_failures, 1);
  // Every checkpoint left on disk must parse cleanly: the truncated one
  // failed post-write verification and was never published.
  int64_t checked = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(options.checkpoint_dir)) {
    nn::Checkpoint ckpt;
    EXPECT_TRUE(nn::LoadCheckpoint(&ckpt, entry.path().string()).ok())
        << entry.path();
    ++checked;
  }
  EXPECT_GT(checked, 0);
}

TEST_F(FaultInjectionTest, InjectedLoadFailureSurfacesAsStatus) {
  data::ForecastDataset dataset = TinyDataset();
  SagdfnConfig config = TinyModelConfig(dataset);
  TrainOptions options = QuickOptions();
  options.checkpoint_dir = FreshDir("ckpt_loadfail");
  SagdfnModel model(config);
  Trainer trainer(&model, &dataset, options);
  ASSERT_TRUE(trainer.Train().status.ok());
  const std::string latest =
      Trainer::LatestCheckpoint(options.checkpoint_dir);
  ASSERT_FALSE(latest.empty());

  ASSERT_TRUE(
      utils::FaultInjector::Global().Configure("io_fail@load=1").ok());
  SagdfnModel fresh(config);
  Trainer resumed(&fresh, &dataset, options);
  utils::Status status = resumed.Resume(latest);
  EXPECT_FALSE(status.ok());
  // The failure is an error return, not an abort; a retry succeeds.
  utils::FaultInjector::Global().Reset();
  SagdfnModel fresh2(config);
  Trainer resumed2(&fresh2, &dataset, options);
  EXPECT_TRUE(resumed2.Resume(latest).ok());
}

TEST_F(FaultInjectionTest, ServeSiteSpecsParse) {
  utils::FaultInjector injector;
  EXPECT_TRUE(injector.Configure("bad_candidate").ok());
  EXPECT_TRUE(injector.Configure("bad_candidate@publish=3").ok());
  EXPECT_TRUE(injector.Configure("nan_forecast@prob=0.5,seed=9").ok());
  EXPECT_TRUE(injector.Configure("nan_forecast@batch=2").ok());
  EXPECT_TRUE(injector.Configure("slow_batch@us=500").ok());
  EXPECT_TRUE(injector.Configure("swap_race").ok());
  EXPECT_TRUE(injector.Configure("swap_race@us=10000").ok());
  EXPECT_TRUE(
      injector.Configure("bad_candidate, slow_batch@us=100, swap_race").ok());

  EXPECT_FALSE(injector.Configure("bad_candidate@publish=0").ok());
  EXPECT_FALSE(injector.Configure("nan_forecast").ok());      // no trigger
  EXPECT_FALSE(injector.Configure("nan_forecast@prob=2").ok());
  EXPECT_FALSE(injector.Configure("slow_batch").ok());        // us required
  EXPECT_FALSE(injector.Configure("slow_batch@us=0").ok());
  EXPECT_FALSE(injector.Configure("swap_race@iter=1").ok());  // wrong key
  EXPECT_FALSE(injector.enabled());
}

TEST_F(FaultInjectionTest, BadCandidateCountsPublishes) {
  utils::FaultInjector injector;
  ASSERT_TRUE(injector.Configure("bad_candidate@publish=2").ok());
  EXPECT_FALSE(injector.FireCounted(utils::FaultSite::kBadCandidate));
  EXPECT_TRUE(injector.FireCounted(utils::FaultSite::kBadCandidate));
  EXPECT_FALSE(injector.FireCounted(utils::FaultSite::kBadCandidate));
}

TEST_F(FaultInjectionTest, ParamSitesReturnConfiguredValue) {
  utils::FaultInjector injector;
  ASSERT_TRUE(injector.Configure("slow_batch@us=750").ok());
  int64_t us = 0;
  EXPECT_TRUE(injector.FireParam(utils::FaultSite::kSlowBatch, &us));
  EXPECT_EQ(us, 750);
  // Param rules are always-on, not one-shot: every batch stalls.
  EXPECT_TRUE(injector.FireParam(utils::FaultSite::kSlowBatch, &us));
  // A site with no rule never fires and leaves the param untouched.
  int64_t race = -1;
  EXPECT_FALSE(injector.FireParam(utils::FaultSite::kSwapRace, &race));
  EXPECT_EQ(race, -1);

  ASSERT_TRUE(injector.Configure("swap_race").ok());
  EXPECT_TRUE(injector.FireParam(utils::FaultSite::kSwapRace, &race));
  EXPECT_EQ(race, 2000);  // documented default window
}

// ---------------------------------------------------------------------------
// Tenant-qualified rules (multi-tenant serving)
// ---------------------------------------------------------------------------

TEST_F(FaultInjectionTest, TenantQualifiedSpecsParse) {
  utils::FaultInjector injector;
  EXPECT_TRUE(injector.Configure("nan_forecast@batch=1@tenant=carpark").ok());
  EXPECT_TRUE(injector.Configure("slow_batch@us=500@tenant=london2000").ok());
  EXPECT_TRUE(injector.Configure("bad_candidate@tenant=newyork2000").ok());
  EXPECT_TRUE(injector
                  .Configure("bad_candidate@publish=2@tenant=a, "
                             "nan_forecast@prob=0.5@tenant=b, seed=5")
                  .ok());

  // The tenant qualifier never substitutes for a required trigger.
  EXPECT_FALSE(injector.Configure("nan_forecast@tenant=x").ok());
  EXPECT_FALSE(injector.Configure("slow_batch@us=1@tenant=").ok());
  EXPECT_FALSE(injector.Configure("slow_batch@us=1@vs=2").ok());
  EXPECT_FALSE(injector.enabled());
}

TEST_F(FaultInjectionTest, TenantQualifiedRulesMatchOnlyTheirTenant) {
  utils::FaultInjector injector;
  ASSERT_TRUE(injector.Configure("bad_candidate@tenant=carpark").ok());
  // A tenant-less probe (single-tenant code path) never matches a
  // qualified rule, and neither does another tenant's probe.
  EXPECT_FALSE(injector.FireCounted(utils::FaultSite::kBadCandidate));
  EXPECT_FALSE(injector.FireCounted(utils::FaultSite::kBadCandidate, "metr"));
  EXPECT_TRUE(
      injector.FireCounted(utils::FaultSite::kBadCandidate, "carpark"));

  int64_t us = 0;
  ASSERT_TRUE(injector.Configure("slow_batch@us=300@tenant=ldn").ok());
  EXPECT_FALSE(injector.FireParam(utils::FaultSite::kSlowBatch, &us));
  EXPECT_FALSE(injector.FireParam(utils::FaultSite::kSlowBatch, "nyc", &us));
  EXPECT_EQ(us, 0);
  EXPECT_TRUE(injector.FireParam(utils::FaultSite::kSlowBatch, "ldn", &us));
  EXPECT_EQ(us, 300);
}

TEST_F(FaultInjectionTest, UnqualifiedRulesMatchEveryTenant) {
  utils::FaultInjector injector;
  ASSERT_TRUE(injector.Configure("slow_batch@us=250").ok());
  int64_t us = 0;
  EXPECT_TRUE(injector.FireParam(utils::FaultSite::kSlowBatch, "any", &us));
  EXPECT_EQ(us, 250);
  us = 0;
  EXPECT_TRUE(injector.FireParam(utils::FaultSite::kSlowBatch, &us));
  EXPECT_EQ(us, 250);
}

TEST_F(FaultInjectionTest, TenantCountedRulesCountOnlyMatchingProbes) {
  utils::FaultInjector injector;
  ASSERT_TRUE(injector.Configure("bad_candidate@publish=2@tenant=a").ok());
  EXPECT_FALSE(injector.FireCounted(utils::FaultSite::kBadCandidate, "a"));
  // Another tenant's publishes do not advance tenant a's occurrence
  // count toward the trigger.
  EXPECT_FALSE(injector.FireCounted(utils::FaultSite::kBadCandidate, "b"));
  EXPECT_TRUE(injector.FireCounted(utils::FaultSite::kBadCandidate, "a"));
  EXPECT_FALSE(injector.FireCounted(utils::FaultSite::kBadCandidate, "a"));
}

}  // namespace
}  // namespace sagdfn
