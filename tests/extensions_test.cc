// Tests for the library extensions beyond the paper's fixed setup:
// stacked encoder-decoder layers, the day-of-week covariate channel, and
// masked-loss training over missing readings.
#include <cmath>

#include <gtest/gtest.h>

#include "core/sagdfn.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "data/window_dataset.h"
#include "tensor/tensor_ops.h"

namespace sagdfn {
namespace {

using tensor::Shape;
using tensor::Tensor;

core::SagdfnConfig TinyConfig(int64_t n = 10) {
  core::SagdfnConfig config;
  config.num_nodes = n;
  config.embedding_dim = 4;
  config.m = 5;
  config.k = 3;
  config.hidden_dim = 6;
  config.heads = 2;
  config.ffn_hidden = 4;
  config.diffusion_steps = 2;
  config.history = 4;
  config.horizon = 3;
  config.convergence_iters = 5;
  return config;
}

TEST(MultiLayerTest, ForwardShapeAndParamGrowth) {
  core::SagdfnConfig one = TinyConfig();
  core::SagdfnConfig two = TinyConfig();
  two.num_layers = 2;
  core::SagdfnModel model_one(one);
  core::SagdfnModel model_two(two);
  EXPECT_GT(model_two.ParameterCount(), model_one.ParameterCount());

  utils::Rng rng(1);
  Tensor x = Tensor::Normal(Shape({2, 4, 10, 2}), rng);
  Tensor tod = Tensor::Uniform(Shape({2, 3}), rng);
  auto pred = model_two.Forward(x, tod, 0);
  EXPECT_EQ(pred.shape(), Shape({2, 3, 10}));
  EXPECT_FALSE(tensor::HasNonFinite(pred.value()));
}

TEST(MultiLayerTest, GradientsReachEveryLayer) {
  core::SagdfnConfig config = TinyConfig();
  config.num_layers = 3;
  core::SagdfnModel model(config);
  utils::Rng rng(2);
  Tensor x = Tensor::Normal(Shape({1, 4, 10, 2}), rng);
  Tensor tod = Tensor::Uniform(Shape({1, 3}), rng);
  autograd::MeanAll(autograd::Abs(model.Forward(x, tod, 0))).Backward();
  int layers_with_grad = 0;
  for (auto& [name, p] : model.NamedParameters()) {
    if (name.rfind("cell", 0) == 0 &&
        tensor::SumAll(tensor::Abs(p.grad())).Item() > 0.0f) {
      ++layers_with_grad;
    }
  }
  // Each layer contributes several parameters; all three layers must be
  // represented.
  EXPECT_GE(layers_with_grad, 3 * 4);
}

TEST(MultiLayerTest, TrainsEndToEnd) {
  data::TrafficOptions options;
  options.num_nodes = 8;
  options.num_days = 4;
  options.steps_per_day = 48;
  options.seed = 3;
  data::ForecastDataset dataset(data::GenerateTraffic(options),
                                data::WindowSpec{4, 3});
  core::SagdfnConfig config = TinyConfig(8);
  config.num_layers = 2;
  core::SagdfnModel model(config);
  core::TrainOptions train;
  train.epochs = 2;
  train.batch_size = 8;
  train.max_train_batches_per_epoch = 5;
  train.max_eval_batches = 2;
  core::Trainer trainer(&model, &dataset, train);
  core::TrainResult result = trainer.Train();
  EXPECT_FALSE(std::isnan(result.epoch_train_loss.back()));
  EXPECT_LE(result.epoch_train_loss.back(),
            result.epoch_train_loss.front() + 0.5);
}

TEST(DayOfWeekTest, ThirdChannelPresent) {
  data::TrafficOptions options;
  options.num_nodes = 6;
  options.num_days = 8;
  options.steps_per_day = 24;
  data::WindowSpec spec{6, 3, /*include_day_of_week=*/true};
  data::ForecastDataset dataset(data::GenerateTraffic(options), spec);
  EXPECT_EQ(dataset.num_input_channels(), 3);
  data::Batch batch = dataset.GetBatch(data::Split::kTrain, 0, 2);
  EXPECT_EQ(batch.x.dim(3), 3);
  // Window 0 starts at t=0 (a Monday): day-of-week fraction 0.
  EXPECT_FLOAT_EQ(batch.x.At({0, 0, 0, 2}), 0.0f);
  // Two days later within the same window run: check a later window.
  data::Batch later = dataset.GetBatchAt(data::Split::kTrain, {48});
  // t = 48 at 24 steps/day = day 2 -> 2/7.
  EXPECT_NEAR(later.x.At({0, 0, 0, 2}), 2.0f / 7.0f, 1e-6f);
}

TEST(DayOfWeekTest, ModelConsumesThreeChannels) {
  data::TrafficOptions options;
  options.num_nodes = 8;
  options.num_days = 6;
  options.steps_per_day = 24;
  data::WindowSpec spec{4, 3, /*include_day_of_week=*/true};
  data::ForecastDataset dataset(data::GenerateTraffic(options), spec);
  core::SagdfnConfig config = TinyConfig(8);
  config.input_dim = dataset.num_input_channels();
  core::SagdfnModel model(config);
  data::Batch batch = dataset.GetBatch(data::Split::kTrain, 0, 2);
  auto pred = model.Forward(batch.x, batch.future_tod, 0);
  EXPECT_EQ(pred.shape(), Shape({2, 3, 8}));
}

TEST(MaskedLossTest, MissingReadingsDoNotTrainOrScore) {
  // A series with a dead sensor (all zeros): masked training must not
  // blow up, and the dead sensor must not affect metrics.
  data::TrafficOptions options;
  options.num_nodes = 6;
  options.num_days = 4;
  options.steps_per_day = 48;
  options.seed = 9;
  data::TimeSeries series = data::GenerateTraffic(options);
  for (int64_t t = 0; t < series.num_steps(); ++t) {
    series.values.At({t, 2}) = 0.0f;  // dead sensor
  }
  data::ForecastDataset dataset(series, data::WindowSpec{4, 3});

  core::SagdfnConfig config = TinyConfig(6);
  core::SagdfnModel model(config);
  core::TrainOptions train;
  train.epochs = 2;
  train.batch_size = 8;
  train.max_train_batches_per_epoch = 5;
  train.max_eval_batches = 2;
  train.mask_missing = true;
  core::Trainer trainer(&model, &dataset, train);
  core::TrainResult result = trainer.Train();
  EXPECT_FALSE(std::isnan(result.epoch_train_loss.back()));

  // Metrics ignore the dead sensor entirely: corrupting its predictions
  // does not change the score.
  tensor::Tensor pred = trainer.Predict(data::Split::kTest);
  tensor::Tensor truth = trainer.Truth(data::Split::kTest);
  const double base = metrics::Evaluate(pred, truth).mae;
  for (int64_t s = 0; s < pred.dim(0); ++s) {
    for (int64_t t = 0; t < pred.dim(1); ++t) {
      pred.At({s, t, 2}) = 1e6f;
    }
  }
  EXPECT_DOUBLE_EQ(metrics::Evaluate(pred, truth).mae, base);
}

}  // namespace
}  // namespace sagdfn
