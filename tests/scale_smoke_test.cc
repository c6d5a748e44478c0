// The N=10k end-to-end smoke: the `scale` CI job's PR-blocking proof
// that the 10k–100k regime is real. A 10,000-node sparse-latent traffic
// scenario is generated, a small SAGDFN trains one epoch on it, the
// trained model freezes and serves plan-replayed ticks, and the frozen
// weights round-trip through the mmap file with memcmp-identical
// forecasts. Sizes are trimmed so the whole file stays in tier-1 time
// budgets; the nightly leg covers N=100k via the graphsize bench.
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "core/sagdfn.h"
#include "core/trainer.h"
#include "data/registry.h"
#include "data/window_dataset.h"
#include "graph/csr.h"
#include "serve/frozen_model.h"
#include "tensor/tensor.h"
#include "test_support.h"
#include "utils/rng.h"

namespace sagdfn {
namespace {

using tensor::Shape;
using tensor::Tensor;

constexpr int64_t kNodes = 10000;

bool SameBytes(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

core::SagdfnConfig ScaleConfig(const data::ForecastDataset& dataset) {
  core::SagdfnConfig config;
  config.num_nodes = dataset.num_nodes();
  config.embedding_dim = 8;
  config.m = 16;
  config.k = 12;
  config.hidden_dim = 8;
  config.heads = 2;
  config.ffn_hidden = 4;
  config.diffusion_steps = 2;
  config.history = dataset.spec().history;
  config.horizon = dataset.spec().horizon;
  config.convergence_iters = 2;
  config.seed = 77;
  return config;
}

TEST(ScaleSmokeTest, TenThousandNodesTrainServeAndMmapRoundTrip) {
  // Generate: the sparse-latent scenario at its real node count.
  graph::SparseSpatialGraph latent;
  data::TimeSeries series = data::MakeScaleDataset(
      "traffic10k-sim", data::DatasetScale::kQuick, &latent);
  ASSERT_EQ(series.num_nodes(), kNodes);
  ASSERT_EQ(latent.adjacency.rows, kNodes);
  ASSERT_GT(latent.adjacency.nnz(), kNodes);  // mean degree ~20

  data::ForecastDataset dataset(std::move(series),
                                data::WindowSpec{6, 3});
  core::SagdfnConfig config = ScaleConfig(dataset);
  auto model = std::make_unique<core::SagdfnModel>(config);

  // Train: one epoch (subsampled) must run and produce finite losses.
  core::TrainOptions options;
  options.epochs = 1;
  options.batch_size = 2;
  options.learning_rate = 0.01;
  options.max_train_batches_per_epoch = 2;
  options.max_eval_batches = 1;
  options.seed = 5;
  core::Trainer trainer(model.get(), &dataset, options);
  core::TrainResult result = trainer.Train();
  ASSERT_TRUE(result.status.ok());
  ASSERT_EQ(result.epochs_run, 1);
  EXPECT_TRUE(std::isfinite(result.epoch_train_loss.at(0)));
  EXPECT_TRUE(std::isfinite(result.best_val_mae));

  // Serve: freeze the trained model; plan-replayed ticks at N=10k.
  auto heap = serve::FrozenModel::Freeze(std::move(model));
  ASSERT_NE(heap->snapshot().csr, nullptr);

  // Graph recovery stays computable at this scale: the latent ground
  // truth is CSR, the learned side slim, and the overlap is a finite
  // fraction (2 training batches are not expected to recover the graph).
  const double overlap =
      graph::TopKOverlapCsr(latent.adjacency, heap->snapshot().a_s,
                            heap->snapshot().index_set, 5);
  EXPECT_GE(overlap, 0.0);
  EXPECT_LE(overlap, 1.0);

  // The mmap'd weight file reproduces the heap model's forecasts byte
  // for byte.
  const std::string path =
      test_support::TempPath("scale_smoke_10k.sagm");
  ASSERT_TRUE(heap->Save(path).ok());
  std::unique_ptr<serve::FrozenModel> mapped;
  ASSERT_TRUE(
      serve::FrozenModel::LoadMapped(config, path, &mapped).ok());
  EXPECT_TRUE(SameBytes(mapped->snapshot().a_s, heap->snapshot().a_s));

  utils::Rng rng(19);
  Tensor x = Tensor::Normal(
      Shape({1, config.history, kNodes, config.input_dim}), rng);
  Tensor tod = Tensor::Uniform(Shape({1, config.horizon}), rng);
  Tensor tick_heap = heap->Predict(x, tod);
  Tensor tick_mapped = mapped->Predict(x, tod);
  ASSERT_EQ(tick_heap.shape(), Shape({1, config.horizon, kNodes}));
  EXPECT_TRUE(SameBytes(tick_mapped, tick_heap));
  // Second tick replays the cached plan.
  EXPECT_TRUE(SameBytes(mapped->Predict(x, tod), heap->Predict(x, tod)));
}

}  // namespace
}  // namespace sagdfn
