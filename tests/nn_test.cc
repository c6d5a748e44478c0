#include <cmath>

#include <gtest/gtest.h>

#include "autograd/grad_check.h"
#include "autograd/ops.h"
#include "nn/init.h"
#include "nn/linear.h"
#include "nn/mlp.h"
#include "nn/rnn.h"
#include "tensor/tensor_ops.h"
#include "utils/rng.h"

namespace sagdfn::nn {
namespace {

namespace ag = ::sagdfn::autograd;
using tensor::Shape;
using tensor::Tensor;

TEST(LinearTest, ShapesAndBias) {
  utils::Rng rng(1);
  Linear layer(3, 4, rng);
  ag::Variable x(Tensor::Ones(Shape({2, 3})));
  ag::Variable y = layer.Forward(x);
  EXPECT_EQ(y.shape(), Shape({2, 4}));
  EXPECT_EQ(layer.ParameterCount(), 3 * 4 + 4);
}

TEST(LinearTest, Rank3Input) {
  utils::Rng rng(2);
  Linear layer(3, 5, rng);
  ag::Variable x(Tensor::Ones(Shape({2, 7, 3})));
  EXPECT_EQ(layer.Forward(x).shape(), Shape({2, 7, 5}));
}

TEST(LinearTest, NoBias) {
  utils::Rng rng(3);
  Linear layer(3, 4, rng, false);
  EXPECT_EQ(layer.ParameterCount(), 12);
  // Zero input maps to zero without bias.
  ag::Variable y = layer.Forward(ag::Variable(Tensor::Zeros(Shape({1, 3}))));
  EXPECT_TRUE(tensor::AllClose(y.value(), Tensor::Zeros(Shape({1, 4}))));
}

TEST(LinearTest, GradientFlowsToParameters) {
  utils::Rng rng(4);
  Linear layer(2, 2, rng);
  ag::Variable x(Tensor::Ones(Shape({3, 2})));
  ag::SumAll(layer.Forward(x)).Backward();
  for (auto& p : layer.Parameters()) {
    EXPECT_GT(tensor::SumAll(tensor::Abs(p.grad())).Item(), 0.0f);
  }
}

TEST(MlpTest, ForwardAndParamCount) {
  utils::Rng rng(5);
  Mlp mlp({4, 8, 2}, Activation::kRelu, rng);
  EXPECT_EQ(mlp.num_layers(), 2);
  EXPECT_EQ(mlp.ParameterCount(), (4 * 8 + 8) + (8 * 2 + 2));
  ag::Variable y = mlp.Forward(ag::Variable(Tensor::Ones(Shape({3, 4}))));
  EXPECT_EQ(y.shape(), Shape({3, 2}));
}

TEST(MlpTest, GradCheckThroughTwoLayers) {
  utils::Rng rng(6);
  Mlp mlp({2, 3, 1}, Activation::kTanh, rng);
  Tensor x = Tensor::Uniform(Shape({4, 2}), rng, -1.0f, 1.0f);
  std::string error;
  EXPECT_TRUE(ag::CheckGradients(
      [&](const std::vector<ag::Variable>& v) {
        return ag::MeanAll(mlp.Forward(v[0]));
      },
      {x}, &error))
      << error;
}

TEST(GruCellTest, StateShapeAndRange) {
  utils::Rng rng(7);
  GruCell cell(3, 5, rng);
  ag::Variable h = cell.InitialState(2);
  EXPECT_EQ(h.shape(), Shape({2, 5}));
  ag::Variable x(Tensor::Ones(Shape({2, 3})));
  ag::Variable h1 = cell.Forward(x, h);
  EXPECT_EQ(h1.shape(), Shape({2, 5}));
  // GRU state is a convex-ish combination through tanh: bounded by 1.
  EXPECT_LE(tensor::MaxAll(tensor::Abs(h1.value())), 1.0f);
}

TEST(GruCellTest, GradCheckOneStep) {
  utils::Rng rng(8);
  GruCell cell(2, 3, rng);
  Tensor x = Tensor::Uniform(Shape({2, 2}), rng, -1.0f, 1.0f);
  Tensor h = Tensor::Uniform(Shape({2, 3}), rng, -0.5f, 0.5f);
  std::string error;
  EXPECT_TRUE(ag::CheckGradients(
      [&](const std::vector<ag::Variable>& v) {
        return ag::MeanAll(cell.Forward(v[0], v[1]));
      },
      {x, h}, &error))
      << error;
}

TEST(LstmCellTest, TwoStepRollout) {
  utils::Rng rng(9);
  LstmCell cell(2, 4, rng);
  auto [h, c] = cell.InitialState(3);
  ag::Variable x(Tensor::Ones(Shape({3, 2})));
  auto [h1, c1] = cell.Forward(x, h, c);
  auto [h2, c2] = cell.Forward(x, h1, c1);
  EXPECT_EQ(h2.shape(), Shape({3, 4}));
  // States evolve.
  EXPECT_FALSE(tensor::AllClose(h1.value(), h2.value()));
}

TEST(LstmCellTest, GradCheckOneStep) {
  utils::Rng rng(10);
  LstmCell cell(2, 2, rng);
  Tensor x = Tensor::Uniform(Shape({2, 2}), rng, -1.0f, 1.0f);
  Tensor h = Tensor::Uniform(Shape({2, 2}), rng, -0.5f, 0.5f);
  Tensor c = Tensor::Uniform(Shape({2, 2}), rng, -0.5f, 0.5f);
  std::string error;
  EXPECT_TRUE(ag::CheckGradients(
      [&](const std::vector<ag::Variable>& v) {
        auto [hn, cn] = cell.Forward(v[0], v[1], v[2]);
        return ag::MeanAll(ag::Add(hn, cn));
      },
      {x, h, c}, &error))
      << error;
}

TEST(ModuleTest, NamedParametersQualified) {
  utils::Rng rng(14);
  Mlp mlp({2, 3, 1}, Activation::kRelu, rng);
  auto named = mlp.NamedParameters();
  ASSERT_EQ(named.size(), 4u);
  EXPECT_EQ(named[0].first, "layer0.weight");
  EXPECT_EQ(named[3].first, "layer1.bias");
}

TEST(ModuleTest, ZeroGradResetsAll) {
  utils::Rng rng(15);
  Linear layer(2, 2, rng);
  ag::SumAll(layer.Forward(ag::Variable(Tensor::Ones(Shape({1, 2})))))
      .Backward();
  layer.ZeroGrad();
  for (auto& p : layer.Parameters()) {
    EXPECT_FLOAT_EQ(tensor::SumAll(tensor::Abs(p.grad())).Item(), 0.0f);
  }
}

TEST(InitTest, XavierUniformBounds) {
  utils::Rng rng(16);
  Tensor w = XavierUniform(Shape({100, 100}), rng);
  const float bound = std::sqrt(6.0f / 200.0f);
  EXPECT_LE(tensor::MaxAll(w), bound);
  EXPECT_GE(tensor::MinAll(w), -bound);
  EXPECT_NEAR(tensor::MeanAll(w).Item(), 0.0f, 0.01f);
}

TEST(InitTest, ActivationNames) {
  EXPECT_EQ(ActivationFromName("relu"), Activation::kRelu);
  EXPECT_EQ(ActivationFromName("tanh"), Activation::kTanh);
  EXPECT_STREQ(ActivationName(Activation::kSigmoid), "sigmoid");
}

}  // namespace
}  // namespace sagdfn::nn
