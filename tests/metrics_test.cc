#include "metrics/metrics.h"

#include <cmath>

#include <gtest/gtest.h>

#include "tensor/tensor_ops.h"
#include "utils/parallel.h"
#include "utils/rng.h"

namespace sagdfn::metrics {
namespace {

using tensor::Shape;
using tensor::Tensor;

TEST(MetricsTest, PerfectPredictionIsZero) {
  Tensor t = Tensor::FromVector({1, 2, 3, 4}, Shape({4}));
  Scores s = Evaluate(t, t);
  EXPECT_DOUBLE_EQ(s.mae, 0.0);
  EXPECT_DOUBLE_EQ(s.rmse, 0.0);
  EXPECT_DOUBLE_EQ(s.mape, 0.0);
}

TEST(MetricsTest, KnownValues) {
  Tensor pred = Tensor::FromVector({2, 2}, Shape({2}));
  Tensor truth = Tensor::FromVector({1, 4}, Shape({2}));
  Scores s = Evaluate(pred, truth);
  EXPECT_DOUBLE_EQ(s.mae, 1.5);  // (1 + 2) / 2
  EXPECT_NEAR(s.rmse, std::sqrt(2.5), 1e-9);
  EXPECT_NEAR(s.mape, (1.0 + 0.5) / 2, 1e-9);
}

TEST(MetricsTest, ZeroTruthMasked) {
  // Second entry has truth 0 -> excluded entirely.
  Tensor pred = Tensor::FromVector({2, 100}, Shape({2}));
  Tensor truth = Tensor::FromVector({1, 0}, Shape({2}));
  Scores s = Evaluate(pred, truth);
  EXPECT_DOUBLE_EQ(s.mae, 1.0);
  EXPECT_DOUBLE_EQ(s.mape, 1.0);
}

TEST(MetricsTest, AllMaskedReturnsNan) {
  // Every truth is 0 (missing reading) -> there is nothing to score, and
  // reporting 0.0 would claim a perfect forecast. The contract is NaN.
  Tensor pred = Tensor::FromVector({5, 5}, Shape({2}));
  Tensor truth = Tensor::Zeros(Shape({2}));
  Scores s = Evaluate(pred, truth);
  EXPECT_TRUE(std::isnan(s.mae));
  EXPECT_TRUE(std::isnan(s.rmse));
  EXPECT_TRUE(std::isnan(s.mape));
  EXPECT_FALSE(s.IsSignal());
}

TEST(MetricsTest, IsSignalWithAnyUnmaskedEntry) {
  Tensor pred = Tensor::FromVector({5, 5}, Shape({2}));
  Tensor truth = Tensor::FromVector({0, 4}, Shape({2}));
  Scores s = Evaluate(pred, truth);
  EXPECT_TRUE(s.IsSignal());
  EXPECT_DOUBLE_EQ(s.mae, 1.0);
}

TEST(MetricsTest, TinyTruthExcludedFromMapeOnly) {
  // |truth| = 1e-6 is unmasked (counts for MAE/RMSE) but below
  // kMapeTruthFloor, so MAPE ignores it instead of reporting a
  // million-percent error.
  Tensor pred = Tensor::FromVector({1e-6f, 11}, Shape({2}));
  Tensor truth = Tensor::FromVector({2e-6f, 10}, Shape({2}));
  Scores s = Evaluate(pred, truth);
  EXPECT_NEAR(s.mae, (1e-6 + 1.0) / 2, 1e-7);
  EXPECT_NEAR(s.mape, 0.1, 1e-6);  // only the truth=10 entry
  EXPECT_LT(s.mape, 1.0);          // regression: no 50%-error blowup
}

TEST(MetricsTest, AllTinyTruthsGiveNanMapeButFiniteMae) {
  Tensor pred = Tensor::FromVector({1e-5f, 2e-5f}, Shape({2}));
  Tensor truth = Tensor::FromVector({1e-6f, 1e-6f}, Shape({2}));
  Scores s = Evaluate(pred, truth);
  EXPECT_TRUE(s.IsSignal());
  EXPECT_TRUE(std::isfinite(s.mae));
  EXPECT_TRUE(std::isnan(s.mape));
}

TEST(MetricsTest, RmseAtLeastMae) {
  utils::Rng rng(1);
  Tensor pred = Tensor::Uniform(Shape({100}), rng, 1.0f, 2.0f);
  Tensor truth = Tensor::Uniform(Shape({100}), rng, 1.0f, 2.0f);
  Scores s = Evaluate(pred, truth);
  EXPECT_GE(s.rmse, s.mae);
}

TEST(MetricsTest, HorizonSlicing) {
  // [S=1, f=3, N=2]; horizon h picks row h-1.
  Tensor pred = Tensor::FromVector({1, 1, 2, 2, 3, 3}, Shape({1, 3, 2}));
  Tensor truth = Tensor::FromVector({1, 1, 1, 1, 1, 1}, Shape({1, 3, 2}));
  auto scores = EvaluateHorizons(pred, truth, {1, 2, 3});
  ASSERT_EQ(scores.size(), 3u);
  EXPECT_DOUBLE_EQ(scores[0].mae, 0.0);
  EXPECT_DOUBLE_EQ(scores[1].mae, 1.0);
  EXPECT_DOUBLE_EQ(scores[2].mae, 2.0);
}

TEST(MetricsTest, ScoresToString) {
  Scores s;
  s.mae = 2.561;
  s.rmse = 5.004;
  s.mape = 0.0653;
  EXPECT_EQ(s.ToString(), "2.56 5.00 6.5%");
}

// Property: scaling errors scales MAE/RMSE linearly; MAPE is
// scale-invariant under joint scaling of pred and truth.
class MetricScaleProperty : public ::testing::TestWithParam<float> {};

TEST_P(MetricScaleProperty, Scaling) {
  utils::Rng rng(2);
  Tensor truth = Tensor::Uniform(Shape({50}), rng, 5.0f, 10.0f);
  Tensor noise = Tensor::Uniform(Shape({50}), rng, -1.0f, 1.0f);
  Tensor pred = tensor::Add(truth, noise);
  const float k = GetParam();
  Tensor pred_k = tensor::MulScalar(pred, k);
  Tensor truth_k = tensor::MulScalar(truth, k);
  Scores base = Evaluate(pred, truth);
  Scores scaled = Evaluate(pred_k, truth_k);
  EXPECT_NEAR(scaled.mae, k * base.mae, 1e-3);
  EXPECT_NEAR(scaled.mape, base.mape, 1e-5);
}

INSTANTIATE_TEST_SUITE_P(Factors, MetricScaleProperty,
                         ::testing::Values(2.0f, 5.0f, 10.0f));

// The parallel accumulation must be bit-identical across thread counts
// (fixed-size blocks combined in block order — the repo-wide determinism
// invariant). Uses > kReduceBlock elements so multiple blocks exist.
TEST(MetricsTest, ParallelAccumulationIsThreadCountInvariant) {
  utils::Rng rng(3);
  const int64_t n = utils::kReduceBlock * 3 + 1234;
  Tensor pred = Tensor::Uniform(Shape({n}), rng, 0.0f, 100.0f);
  Tensor truth = Tensor::Uniform(Shape({n}), rng, 0.0f, 100.0f);
  // Sprinkle masked and sub-floor truths across blocks.
  float* pt = truth.data();
  for (int64_t i = 0; i < n; i += 97) pt[i] = 0.0f;
  for (int64_t i = 1; i < n; i += 131) pt[i] = 1e-5f;

  const int64_t previous = utils::GetNumThreads();
  utils::SetNumThreads(1);
  Scores serial = Evaluate(pred, truth);
  utils::SetNumThreads(3);
  Scores threaded = Evaluate(pred, truth);
  utils::SetNumThreads(previous);

  EXPECT_EQ(serial.mae, threaded.mae);
  EXPECT_EQ(serial.rmse, threaded.rmse);
  EXPECT_EQ(serial.mape, threaded.mape);
}

}  // namespace
}  // namespace sagdfn::metrics
