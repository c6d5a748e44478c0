#include <cmath>
#include <gtest/gtest.h>

#include "baselines/classical.h"
#include "baselines/dense_stgnn.h"
#include "baselines/linalg.h"
#include "baselines/registry.h"
#include "baselines/rnn_seq2seq.h"
#include "baselines/temporal_only.h"
#include "data/synthetic.h"
#include "metrics/metrics.h"
#include "tensor/tensor_ops.h"

namespace sagdfn::baselines {
namespace {

using tensor::Shape;
using tensor::Tensor;

data::ForecastDataset TinyDataset(uint64_t seed = 3) {
  data::TrafficOptions options;
  options.num_nodes = 10;
  options.num_days = 4;
  options.steps_per_day = 48;
  options.seed = seed;
  return data::ForecastDataset(data::GenerateTraffic(options),
                               data::WindowSpec{6, 3});
}

FitOptions QuickFit() {
  FitOptions options;
  options.epochs = 2;
  options.batch_size = 8;
  options.max_train_batches_per_epoch = 5;
  options.max_eval_batches = 3;
  return options;
}

TEST(LinalgTest, RidgeSolveKnownSystem) {
  // gram = [[2, 0], [0, 2]], rhs = [[2], [4]] with lambda=0-ish.
  std::vector<double> gram = {2, 0, 0, 2};
  std::vector<double> rhs = {2, 4};
  auto w = RidgeSolve(gram, 2, rhs, 1, 1e-9);
  EXPECT_NEAR(w[0], 1.0, 1e-6);
  EXPECT_NEAR(w[1], 2.0, 1e-6);
}

TEST(LinalgTest, RidgeSolveMultipleRhs) {
  std::vector<double> gram = {4, 1, 1, 3};
  std::vector<double> rhs = {1, 2, 0, 1};  // [2 x 2]
  auto w = RidgeSolve(gram, 2, rhs, 2, 1e-9);
  // Verify gram @ w = rhs.
  EXPECT_NEAR(4 * w[0] + 1 * w[2], 1.0, 1e-6);
  EXPECT_NEAR(4 * w[1] + 1 * w[3], 2.0, 1e-6);
  EXPECT_NEAR(1 * w[0] + 3 * w[2], 0.0, 1e-6);
  EXPECT_NEAR(1 * w[1] + 3 * w[3], 1.0, 1e-6);
}

TEST(LinalgTest, RidgeRegularizesSingularGram) {
  std::vector<double> gram = {1, 1, 1, 1};  // rank 1
  std::vector<double> rhs = {1, 1};
  auto w = RidgeSolve(gram, 2, rhs, 1, 0.5);
  EXPECT_FALSE(std::isnan(w[0]));
  EXPECT_NEAR(w[0], w[1], 1e-9);
}

TEST(HistoricalAverageTest, PredictsDailyPattern) {
  data::ForecastDataset dataset = TinyDataset();
  HistoricalAverage model;
  model.Fit(dataset, QuickFit());
  Tensor pred = model.Predict(dataset, data::Split::kTest, 10);
  Tensor truth = CollectTruth(dataset, data::Split::kTest, 10);
  EXPECT_EQ(pred.shape(), truth.shape());
  // Far better than predicting a constant 0.
  EXPECT_LT(metrics::Evaluate(pred, truth).mae, 30.0);
}

TEST(ArForecasterTest, NailsSyntheticArProcess) {
  // Build a dataset from a pure AR(1) process; the AR baseline should be
  // very accurate at horizon 1.
  utils::Rng rng(5);
  const int64_t t_steps = 600;
  const int64_t n = 3;
  Tensor values = Tensor::Zeros(Shape({t_steps, n}));
  std::vector<double> state(n, 0.0);
  for (int64_t t = 0; t < t_steps; ++t) {
    for (int64_t i = 0; i < n; ++i) {
      state[i] = 0.95 * state[i] + 0.1 * rng.Normal();
      values.At({t, i}) = static_cast<float>(10.0 + state[i]);
    }
  }
  data::TimeSeries series{"ar", values, 24};
  data::ForecastDataset dataset(series, data::WindowSpec{8, 4});
  ArForecaster model(4);
  model.Fit(dataset, QuickFit());
  Tensor pred = model.Predict(dataset, data::Split::kTest, 20);
  Tensor truth = CollectTruth(dataset, data::Split::kTest, 20);
  auto scores = metrics::EvaluateHorizons(pred, truth, {1});
  EXPECT_LT(scores[0].mae, 0.15);
  EXPECT_GT(model.ParameterCount(), 0);
}

TEST(VarForecasterTest, CapturesCrossNodeDependence) {
  // Node 1 follows node 0 with one step of lag; VAR must exploit it,
  // per-node AR cannot.
  utils::Rng rng(6);
  const int64_t t_steps = 600;
  Tensor values = Tensor::Zeros(Shape({t_steps, 2}));
  double driver = 0.0;
  double prev_driver = 0.0;
  for (int64_t t = 0; t < t_steps; ++t) {
    const double next = 0.9 * driver + rng.Normal();
    values.At({t, 0}) = static_cast<float>(10 + next);
    values.At({t, 1}) = static_cast<float>(10 + prev_driver);
    prev_driver = driver = next;
  }
  data::TimeSeries series{"var", values, 24};
  data::ForecastDataset dataset(series, data::WindowSpec{6, 2});

  VarForecaster var(2);
  var.Fit(dataset, QuickFit());
  Tensor var_pred = var.Predict(dataset, data::Split::kTest, 30);

  ArForecaster ar(2);
  ar.Fit(dataset, QuickFit());
  Tensor ar_pred = ar.Predict(dataset, data::Split::kTest, 30);

  Tensor truth = CollectTruth(dataset, data::Split::kTest, 30);
  // Node 1 at horizon 1 is exactly predictable from node 0's last value.
  Tensor var_n1 = tensor::Slice(tensor::Slice(var_pred, 1, 0, 1), 2, 1, 2);
  Tensor ar_n1 = tensor::Slice(tensor::Slice(ar_pred, 1, 0, 1), 2, 1, 2);
  Tensor truth_n1 = tensor::Slice(tensor::Slice(truth, 1, 0, 1), 2, 1, 2);
  EXPECT_LT(metrics::Evaluate(var_n1, truth_n1).mae,
            0.5 * metrics::Evaluate(ar_n1, truth_n1).mae);
}

TEST(SvrForecasterTest, BeatsZeroPredictor) {
  data::ForecastDataset dataset = TinyDataset();
  SvrForecaster model;
  FitOptions options = QuickFit();
  options.epochs = 4;
  model.Fit(dataset, options);
  Tensor pred = model.Predict(dataset, data::Split::kTest, 15);
  Tensor truth = CollectTruth(dataset, data::Split::kTest, 15);
  Tensor zeros = Tensor::Zeros(truth.shape());
  EXPECT_LT(metrics::Evaluate(pred, truth).mae,
            metrics::Evaluate(zeros, truth).mae);
}

TEST(RnnSeq2SeqTest, ForwardShape) {
  RnnSeq2Seq model(RnnSeq2Seq::CellType::kLstm, 2, 8, 6, 3, 7);
  utils::Rng rng(8);
  Tensor x = Tensor::Normal(Shape({2, 6, 5, 2}), rng);
  Tensor tod = Tensor::Zeros(Shape({2, 3}));
  auto pred = model.Forward(x, tod, 0);
  EXPECT_EQ(pred.shape(), Shape({2, 3, 5}));
  EXPECT_EQ(model.name(), "LSTM");
}

TEST(DenseStgnnTest, AllGraphSourcesForward) {
  utils::Rng rng(9);
  Tensor predefined = Tensor::Uniform(Shape({8, 8}), rng);
  for (auto source :
       {GraphSource::kPredefined, GraphSource::kAdaptive,
        GraphSource::kBoth, GraphSource::kPairwiseFfn,
        GraphSource::kAttention}) {
    DenseStgnnConfig config;
    config.num_nodes = 8;
    config.history = 4;
    config.horizon = 3;
    config.hidden_dim = 6;
    config.embedding_dim = 4;
    config.source = source;
    DenseStgnn model(config, predefined);
    Tensor x = Tensor::Normal(Shape({2, 4, 8, 2}), rng);
    Tensor tod = Tensor::Zeros(Shape({2, 3}));
    auto pred = model.Forward(x, tod, 0);
    EXPECT_EQ(pred.shape(), Shape({2, 3, 8}))
        << "source " << static_cast<int>(source);
    EXPECT_FALSE(tensor::HasNonFinite(pred.value()));
  }
}

TEST(DenseStgnnTest, AdjacencyRowsNormalized) {
  DenseStgnnConfig config;
  config.num_nodes = 6;
  config.source = GraphSource::kAdaptive;
  config.embedding_dim = 4;
  DenseStgnn model(config);
  Tensor a = model.ComputeAdjacency();
  Tensor sums = tensor::Sum(a, 1);
  for (int64_t i = 0; i < 6; ++i) EXPECT_NEAR(sums[i], 1.0f, 1e-4f);
}

TEST(DenseStgnnTest, PredefinedRequiresAdjacency) {
  DenseStgnnConfig config;
  config.num_nodes = 6;
  config.source = GraphSource::kPredefined;
  EXPECT_DEATH(DenseStgnn model(config), "predefined");
}

TEST(TemporalOnlyTest, AllKindsForward) {
  utils::Rng rng(10);
  for (auto kind :
       {TemporalOnlyModel::Kind::kTimesNet,
        TemporalOnlyModel::Kind::kFedformer,
        TemporalOnlyModel::Kind::kEtsformer}) {
    TemporalOnlyModel model(kind, 8, 4, 16, 4, 11);
    Tensor x = Tensor::Normal(Shape({2, 8, 5, 2}), rng);
    Tensor tod = Tensor::Zeros(Shape({2, 4}));
    auto pred = model.Forward(x, tod, 0);
    EXPECT_EQ(pred.shape(), Shape({2, 4, 5})) << model.name();
    EXPECT_FALSE(tensor::HasNonFinite(pred.value()));
  }
}

TEST(RegistryTest, AllPaperBaselinesConstructible) {
  ModelSizing sizing;
  for (const auto& name : PaperBaselineNames()) {
    auto model = MakeForecaster(name, sizing);
    ASSERT_NE(model, nullptr) << name;
    EXPECT_EQ(model->name(), name);
  }
  for (const auto& name : NonGnnBaselineNames()) {
    auto model = MakeForecaster(name, sizing);
    ASSERT_NE(model, nullptr) << name;
  }
  EXPECT_NE(MakeForecaster("SAGDFN", sizing), nullptr);
  EXPECT_NE(MakeForecaster("HistoricalAverage", sizing), nullptr);
}

TEST(RegistryTest, FamiliesCoverStgnnBaselines) {
  EXPECT_TRUE(HasFamily("DCRNN"));
  EXPECT_TRUE(HasFamily("SAGDFN"));
  EXPECT_FALSE(HasFamily("ARIMA"));
  EXPECT_FALSE(HasFamily("LSTM"));
  EXPECT_EQ(FamilyOf("GTS"), core::ModelFamily::kGts);
  EXPECT_EQ(FamilyOf("SAGDFN"), core::ModelFamily::kSagdfn);
}

TEST(RegistryTest, NeuralBaselineEndToEnd) {
  data::ForecastDataset dataset = TinyDataset();
  ModelSizing sizing;
  sizing.hidden = 8;
  sizing.embedding = 4;
  auto model = MakeForecaster("AGCRN", sizing);
  model->Fit(dataset, QuickFit());
  Tensor pred = model->Predict(dataset, data::Split::kTest, 0);
  EXPECT_EQ(pred.dim(1), 3);
  EXPECT_EQ(pred.dim(2), 10);
  EXPECT_GT(model->ParameterCount(), 0);
  EXPECT_GT(model->LastFitSeconds(), 0.0);
}

TEST(RegistryTest, SagdfnVariantTweakApplies) {
  data::ForecastDataset dataset = TinyDataset();
  ModelSizing sizing;
  sizing.sagdfn_m = 6;
  sizing.sagdfn_k = 4;
  auto model = MakeSagdfnForecaster(
      "SAGDFN w/o Entmax", sizing,
      [](core::SagdfnConfig* config) { config->use_entmax = false; });
  EXPECT_EQ(model->name(), "SAGDFN w/o Entmax");
  model->Fit(dataset, QuickFit());
  Tensor pred = model->Predict(dataset, data::Split::kTest, 0);
  EXPECT_FALSE(tensor::HasNonFinite(pred));
}

TEST(RegistryTest, UnknownNameDies) {
  ModelSizing sizing;
  EXPECT_DEATH(MakeForecaster("NoSuchModel", sizing), "unknown");
}

}  // namespace
}  // namespace sagdfn::baselines
