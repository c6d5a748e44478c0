#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>

#include <gtest/gtest.h>

#include "data/csv.h"
#include "data/registry.h"
#include "data/scaler.h"
#include "data/synthetic.h"
#include "data/time_series.h"
#include "data/window_dataset.h"
#include "graph/csr.h"
#include "tensor/tensor_ops.h"
#include "test_support.h"

namespace sagdfn::data {
namespace {

using tensor::Shape;
using tensor::Tensor;

TimeSeries TinySeries(int64_t t_steps = 120, int64_t n = 4,
                      int64_t steps_per_day = 24) {
  TimeSeries series;
  series.name = "tiny";
  series.steps_per_day = steps_per_day;
  series.values = Tensor::Zeros(Shape({t_steps, n}));
  for (int64_t t = 0; t < t_steps; ++t) {
    for (int64_t i = 0; i < n; ++i) {
      series.values.At({t, i}) = static_cast<float>(t + 100 * i);
    }
  }
  return series;
}

TEST(TimeSeriesTest, CovariateHelpers) {
  TimeSeries s = TinySeries();
  EXPECT_DOUBLE_EQ(s.TimeOfDay(0), 0.0);
  EXPECT_DOUBLE_EQ(s.TimeOfDay(12), 0.5);
  EXPECT_DOUBLE_EQ(s.TimeOfDay(24), 0.0);
}

TEST(TimeSeriesTest, SliceAndSelectNodes) {
  TimeSeries s = TinySeries();
  TimeSeries two = SliceNodes(s, 2);
  EXPECT_EQ(two.num_nodes(), 2);
  EXPECT_FLOAT_EQ(two.values.At({5, 1}), 105.0f);
  TimeSeries picked = SelectNodes(s, {3, 0});
  EXPECT_FLOAT_EQ(picked.values.At({5, 0}), 305.0f);
  EXPECT_FLOAT_EQ(picked.values.At({5, 1}), 5.0f);
}

TEST(ScalerTest, RoundTrip) {
  StandardScaler scaler;
  Tensor data = Tensor::FromVector({1, 2, 3, 4, 5, 6}, Shape({3, 2}));
  scaler.Fit(data);
  Tensor scaled = scaler.Transform(data);
  EXPECT_NEAR(tensor::SumAll(scaled).Item() / scaled.size(), 0.0f, 1e-5f);
  Tensor back = scaler.InverseTransform(scaled);
  EXPECT_TRUE(tensor::AllClose(back, data, 1e-4f, 1e-4f));
}

TEST(ScalerTest, ConstantSeriesSafe) {
  StandardScaler scaler;
  scaler.Fit(Tensor::Full(Shape({10}), 5.0f));
  Tensor scaled = scaler.Transform(Tensor::Full(Shape({10}), 5.0f));
  EXPECT_FALSE(tensor::HasNonFinite(scaled));
  EXPECT_NEAR(scaled[0], 0.0f, 1e-6f);
}

TEST(WindowDatasetTest, SplitSizesAndCoverage) {
  ForecastDataset dataset(TinySeries(200), WindowSpec{6, 3});
  // 70/10/20 chronological split; windows never cross boundaries.
  EXPECT_EQ(dataset.NumSamples(Split::kTrain), 140 - 9 + 1);
  EXPECT_EQ(dataset.NumSamples(Split::kValidation), 20 - 9 + 1);
  EXPECT_EQ(dataset.NumSamples(Split::kTest), 40 - 9 + 1);
  EXPECT_EQ(dataset.TrainEndStep(), 140);
}

TEST(WindowDatasetTest, BatchShapesAndAlignment) {
  ForecastDataset dataset(TinySeries(200), WindowSpec{6, 3});
  Batch batch = dataset.GetBatch(Split::kTrain, 0, 4);
  EXPECT_EQ(batch.x.shape(), Shape({4, 6, 4, 2}));
  EXPECT_EQ(batch.y.shape(), Shape({4, 3, 4}));
  EXPECT_EQ(batch.future_tod.shape(), Shape({4, 3}));

  // Window 0 of train: history t=0..5, target t=6..8 for node 0 (values
  // equal to t).
  EXPECT_FLOAT_EQ(batch.y.At({0, 0, 0}), 6.0f);
  EXPECT_FLOAT_EQ(batch.y.At({0, 2, 0}), 8.0f);
  // Scaled inputs invert back to raw values.
  const auto& scaler = dataset.scaler();
  const float x0 = batch.x.At({0, 0, 0, 0});
  EXPECT_NEAR(x0 * scaler.stddev() + scaler.mean(), 0.0f, 1e-2f);
  // Covariate channel carries time of day.
  EXPECT_NEAR(batch.x.At({0, 3, 0, 1}), 3.0f / 24.0f, 1e-6f);
  EXPECT_NEAR(batch.future_tod.At({0, 0}), 6.0f / 24.0f, 1e-6f);
}

TEST(WindowDatasetTest, ValTestValuesComeFromLaterSteps) {
  ForecastDataset dataset(TinySeries(200), WindowSpec{6, 3});
  Batch val = dataset.GetBatch(Split::kValidation, 0, 1);
  // Validation windows start at step 140.
  EXPECT_FLOAT_EQ(val.y.At({0, 0, 0}), 146.0f);
  Batch test = dataset.GetBatch(Split::kTest, 0, 1);
  EXPECT_FLOAT_EQ(test.y.At({0, 0, 0}), 166.0f);
}

TEST(WindowDatasetTest, ShuffledOrderIsPermutation) {
  ForecastDataset dataset(TinySeries(200), WindowSpec{6, 3});
  utils::Rng rng(1);
  auto order = dataset.ShuffledTrainOrder(rng);
  EXPECT_EQ(static_cast<int64_t>(order.size()),
            dataset.NumSamples(Split::kTrain));
  std::set<int64_t> unique(order.begin(), order.end());
  EXPECT_EQ(unique.size(), order.size());
}

TEST(WindowDatasetTest, TooShortSeriesDies) {
  EXPECT_DEATH(ForecastDataset(TinySeries(20), WindowSpec{12, 12}),
               "series too short");
}

TEST(SyntheticTest, TrafficShapeAndRange) {
  TrafficOptions options;
  options.num_nodes = 20;
  options.num_days = 2;
  options.steps_per_day = 48;
  graph::SparseSpatialGraph latent;
  TimeSeries series = GenerateTraffic(options, &latent);
  EXPECT_EQ(series.num_steps(), 96);
  EXPECT_EQ(series.num_nodes(), 20);
  EXPECT_EQ(latent.num_nodes, 20);
  EXPECT_GE(tensor::MinAll(series.values), 3.0f);
  EXPECT_LE(tensor::MaxAll(series.values), 80.0f);
  EXPECT_FALSE(tensor::HasNonFinite(series.values));
}

TEST(SyntheticTest, TrafficDeterministicBySeed) {
  TrafficOptions options;
  options.num_nodes = 10;
  options.num_days = 1;
  options.steps_per_day = 48;
  TimeSeries a = GenerateTraffic(options);
  TimeSeries b = GenerateTraffic(options);
  EXPECT_TRUE(tensor::AllClose(a.values, b.values));
  options.seed = 99;
  TimeSeries c = GenerateTraffic(options);
  EXPECT_FALSE(tensor::AllClose(a.values, c.values));
}

TEST(SyntheticTest, TrafficHasRushHourDip) {
  TrafficOptions options;
  options.num_nodes = 30;
  options.num_days = 7;
  options.steps_per_day = 96;
  options.noise_std = 0.3;
  TimeSeries series = GenerateTraffic(options);
  // Average weekday speed at 08:00 should be well below 03:00.
  double rush = 0.0;
  double night = 0.0;
  int64_t days = 0;
  for (int64_t day = 0; day < 5; ++day) {  // weekdays
    const int64_t base = day * 96;
    ++days;
    for (int64_t i = 0; i < 30; ++i) {
      rush += series.values.At({base + 32, i});   // 08:00
      night += series.values.At({base + 12, i});  // 03:00
    }
  }
  EXPECT_LT(rush / days, night / days - 5.0 * 30);
}

TEST(SyntheticTest, NeighborsCorrelateMoreThanStrangers) {
  TrafficOptions options;
  options.num_nodes = 40;
  options.num_days = 6;
  options.steps_per_day = 96;
  options.noise_std = 0.5;
  graph::SparseSpatialGraph latent;
  TimeSeries series = GenerateTraffic(options, &latent);
  const Tensor adjacency = graph::CsrToDense(latent.adjacency);

  // Compare mean |corr| of connected vs unconnected pairs on residuals
  // (subtract per-slot mean to remove the shared daily pattern).
  const int64_t t_steps = series.num_steps();
  const int64_t n = 40;
  std::vector<double> mean(n, 0.0);
  for (int64_t t = 0; t < t_steps; ++t) {
    for (int64_t i = 0; i < n; ++i) mean[i] += series.values.At({t, i});
  }
  for (auto& m : mean) m /= t_steps;
  auto corr = [&](int64_t a, int64_t b) {
    double num = 0, da = 0, db = 0;
    for (int64_t t = 0; t < t_steps; ++t) {
      const double va = series.values.At({t, a}) - mean[a];
      const double vb = series.values.At({t, b}) - mean[b];
      num += va * vb;
      da += va * va;
      db += vb * vb;
    }
    return num / std::sqrt(da * db + 1e-12);
  };
  double connected = 0, unconnected = 0;
  int64_t nc = 0, nu = 0;
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = i + 1; j < n; ++j) {
      if (adjacency.At({i, j}) > 0.0f) {
        connected += corr(i, j);
        ++nc;
      } else {
        unconnected += corr(i, j);
        ++nu;
      }
    }
  }
  ASSERT_GT(nc, 0);
  ASSERT_GT(nu, 0);
  EXPECT_GT(connected / nc, unconnected / nu + 0.05);
}

TEST(SyntheticTest, CarparkRespectsCapacity) {
  CarparkOptions options;
  options.num_nodes = 30;
  options.num_days = 2;
  options.steps_per_day = 48;
  options.num_clusters = 4;
  std::vector<int64_t> clusters;
  TimeSeries series = GenerateCarpark(options, &clusters);
  EXPECT_EQ(series.num_nodes(), 30);
  EXPECT_EQ(clusters.size(), 30u);
  EXPECT_GE(tensor::MinAll(series.values), 0.0f);
  EXPECT_LE(tensor::MaxAll(series.values),
            static_cast<float>(kCarparkMaxCapacity));
  // Values are integer lot counts.
  for (int64_t i = 0; i < series.values.size(); ++i) {
    const float v = series.values[i];
    EXPECT_FLOAT_EQ(v, std::round(v));
  }
}

TEST(RegistryTest, KnownDatasetsAndInfo) {
  auto names = KnownDatasets();
  EXPECT_EQ(names.size(), 4u);
  DatasetInfo info = GetDatasetInfo("metr-la-sim", DatasetScale::kFull);
  EXPECT_EQ(info.num_nodes, 207);
  EXPECT_EQ(info.steps_per_day, 288);
  DatasetInfo quick = GetDatasetInfo("london2000-sim", DatasetScale::kQuick);
  EXPECT_LT(quick.num_nodes, 2000);
  DatasetInfo full = GetDatasetInfo("london2000-sim", DatasetScale::kFull);
  EXPECT_EQ(full.num_nodes, 2000);
  EXPECT_EQ(full.steps_per_day, 24);
}

TEST(RegistryTest, MakeDatasetMatchesInfo) {
  TimeSeries series = MakeDataset("metr-la-sim", DatasetScale::kQuick);
  DatasetInfo info = GetDatasetInfo("metr-la-sim", DatasetScale::kQuick);
  EXPECT_EQ(series.num_nodes(), info.num_nodes);
  EXPECT_EQ(series.num_steps(), info.num_steps);
}

TEST(RegistryTest, WindowSpecs) {
  WindowSpec traffic = DefaultWindowSpec("metr-la-sim");
  EXPECT_EQ(traffic.history, 12);
  EXPECT_EQ(traffic.horizon, 12);
  WindowSpec carpark = DefaultWindowSpec("carpark1918-sim");
  EXPECT_EQ(carpark.history, 24);
  EXPECT_EQ(carpark.horizon, 12);
}

TEST(CsvTest, RoundTrip) {
  TimeSeries series = TinySeries(30, 3);
  const std::string path = test_support::TempPath("series_roundtrip.csv");
  ASSERT_TRUE(WriteCsv(series, path).ok());
  auto loaded = ReadCsv(path, series.steps_per_day);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(tensor::AllClose(loaded.value().values, series.values));
  std::remove(path.c_str());
}

TEST(CsvTest, MissingFileAndBadContent) {
  EXPECT_FALSE(ReadCsv("/nonexistent/file.csv", 24).ok());
  const std::string path = test_support::TempPath("bad.csv");
  {
    std::ofstream out(path);
    out << "t,node_0\n1,2\n3\n";  // second row too short
  }
  auto result = ReadCsv(path, 24);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), utils::StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sagdfn::data
