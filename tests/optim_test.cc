#include "optim/optimizer.h"

#include <cmath>

#include <gtest/gtest.h>

#include "autograd/ops.h"
#include "tensor/tensor_ops.h"
#include "utils/rng.h"

namespace sagdfn::optim {
namespace {

namespace ag = ::sagdfn::autograd;
using tensor::Shape;
using tensor::Tensor;

TEST(AdamTest, ConvergesOnQuadratic) {
  // Minimizes f(w) = mean((w - target)^2).
  ag::Variable w(Tensor::Full(Shape({4}), 5.0f), true);
  ag::Variable target(Tensor::FromVector({1, -2, 0.5f, 3}, Shape({4})));
  Adam adam({w}, 0.1);
  for (int i = 0; i < 300; ++i) {
    w.ZeroGrad();
    ag::MseLoss(w, target).Backward();
    adam.Step();
  }
  EXPECT_TRUE(tensor::AllClose(w.value(), target.value(), 2e-2f, 2e-2f));
}

TEST(AdamTest, StepCountAdvances) {
  ag::Variable w(Tensor::Ones(Shape({1})), true);
  Adam adam({w}, 0.01);
  EXPECT_EQ(adam.step_count(), 0);
  ag::MseLoss(w, ag::Variable(Tensor::Zeros(Shape({1})))).Backward();
  adam.Step();
  EXPECT_EQ(adam.step_count(), 1);
}

TEST(AdamTest, WeightDecayShrinks) {
  // With zero gradient signal, weight decay alone should shrink weights.
  ag::Variable w(Tensor::Full(Shape({2}), 1.0f), true);
  Adam adam({w}, 0.05, 0.9, 0.999, 1e-8, 0.5);
  for (int i = 0; i < 50; ++i) {
    // Loss that is constant in w: gradient is zero, only decay acts.
    ag::Variable loss(Tensor::Scalar(0.0f), true);
    w.ZeroGrad();
    adam.Step();
  }
  EXPECT_LT(std::fabs(w.value()[0]), 1.0f);
}

TEST(ClipGradNormTest, RescalesLargeGradients) {
  ag::Variable w(Tensor::Zeros(Shape({2})), true);
  ag::Variable target(Tensor::Full(Shape({2}), 100.0f));
  ag::MseLoss(w, target).Backward();
  const double pre = ClipGradNorm({w}, 1.0);
  EXPECT_GT(pre, 1.0);
  double post = 0.0;
  Tensor g = w.grad();
  for (int64_t i = 0; i < g.size(); ++i) post += g[i] * g[i];
  EXPECT_NEAR(std::sqrt(post), 1.0, 1e-4);
}

TEST(ClipGradNormTest, LeavesSmallGradientsAlone) {
  ag::Variable w(Tensor::Zeros(Shape({2})), true);
  ag::Variable target(Tensor::Full(Shape({2}), 0.01f));
  ag::MseLoss(w, target).Backward();
  Tensor before = w.grad().Clone();
  ClipGradNorm({w}, 10.0);
  EXPECT_TRUE(tensor::AllClose(w.grad(), before));
}

}  // namespace
}  // namespace sagdfn::optim
