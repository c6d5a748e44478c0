#include "autograd/ops.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>

#include "autograd/variable.h"
#include "tensor/simd.h"
#include "tensor/tensor_ops.h"
#include "utils/parallel.h"
#include "utils/rng.h"

namespace sagdfn::autograd {
namespace {

using tensor::AllClose;
using tensor::Shape;
using tensor::Tensor;

Tensor T(std::vector<float> v, std::initializer_list<int64_t> dims) {
  return Tensor::FromVector(std::move(v), Shape(dims));
}

TEST(AutogradTest, AddBackward) {
  Variable a(T({1, 2}, {2}), true);
  Variable b(T({3, 4}, {2}), true);
  Variable loss = SumAll(Add(a, b));
  loss.Backward();
  EXPECT_TRUE(AllClose(a.grad(), Tensor::Ones(Shape({2}))));
  EXPECT_TRUE(AllClose(b.grad(), Tensor::Ones(Shape({2}))));
}

TEST(AutogradTest, MulBackwardUsesOtherValue) {
  Variable a(T({2, 3}, {2}), true);
  Variable b(T({5, 7}, {2}), true);
  SumAll(Mul(a, b)).Backward();
  EXPECT_TRUE(AllClose(a.grad(), T({5, 7}, {2})));
  EXPECT_TRUE(AllClose(b.grad(), T({2, 3}, {2})));
}

TEST(AutogradTest, BroadcastBackwardReduces) {
  Variable a(T({1, 2, 3, 4, 5, 6}, {2, 3}), true);
  Variable b(T({10, 20, 30}, {3}), true);
  SumAll(Add(a, b)).Backward();
  EXPECT_EQ(b.grad().shape(), Shape({3}));
  EXPECT_TRUE(AllClose(b.grad(), T({2, 2, 2}, {3})));
}

TEST(AutogradTest, ChainRuleThroughReuse) {
  // y = x * x => dy/dx = 2x (same variable used twice).
  Variable x(T({3}, {1}), true);
  SumAll(Mul(x, x)).Backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 6.0f);
}

TEST(AutogradTest, DiamondGraphAccumulates) {
  // z = (x + x) + (x * x); dz/dx = 2 + 2x = 8 at x=3.
  Variable x(T({3}, {1}), true);
  Variable z = Add(Add(x, x), Mul(x, x));
  SumAll(z).Backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 8.0f);
}

TEST(AutogradTest, MatMulBackward) {
  Variable a(T({1, 2, 3, 4}, {2, 2}), true);
  Variable b(T({1, 0, 0, 1}, {2, 2}), true);
  SumAll(MatMul(a, b)).Backward();
  // d/dA sum(AB) = ones @ B^T.
  EXPECT_TRUE(AllClose(a.grad(), T({1, 1, 1, 1}, {2, 2})));
  // d/dB sum(AB) = A^T @ ones.
  EXPECT_TRUE(AllClose(b.grad(), T({4, 4, 6, 6}, {2, 2})));
}

TEST(AutogradTest, NoGradWhenNotRequired) {
  Variable a(T({1, 2}, {2}), false);
  Variable b(T({3, 4}, {2}), true);
  Variable out = Mul(a, b);
  SumAll(out).Backward();
  EXPECT_TRUE(AllClose(a.grad(), Tensor::Zeros(Shape({2}))));
  EXPECT_TRUE(AllClose(b.grad(), T({1, 2}, {2})));
}

TEST(AutogradTest, NoGradGuardDisablesTape) {
  Variable a(T({1, 2}, {2}), true);
  Variable out;
  {
    NoGradGuard guard;
    out = Mul(a, a);
  }
  EXPECT_FALSE(out.requires_grad());
}

TEST(AutogradTest, ZeroGradClears) {
  Variable a(T({1}, {1}), true);
  SumAll(Mul(a, a)).Backward();
  EXPECT_NE(a.grad()[0], 0.0f);
  a.ZeroGrad();
  EXPECT_FLOAT_EQ(a.grad()[0], 0.0f);
}

TEST(AutogradTest, GradAccumulatesAcrossBackwards) {
  Variable a(T({1}, {1}), true);
  SumAll(Mul(a, a)).Backward();
  const float g1 = a.grad()[0];
  SumAll(Mul(a, a)).Backward();
  EXPECT_FLOAT_EQ(a.grad()[0], 2 * g1);
}

TEST(AutogradTest, SliceConcatRoundTrip) {
  Variable a(T({1, 2, 3, 4}, {4}), true);
  Variable left = Slice(a, 0, 0, 2);
  Variable right = Slice(a, 0, 2, 4);
  Variable back = Concat({right, left}, 0);  // swapped halves
  SumAll(Mul(back, back)).Backward();
  // d/dx sum(x^2) = 2x regardless of the permutation.
  EXPECT_TRUE(AllClose(a.grad(), T({2, 4, 6, 8}, {4})));
}

TEST(AutogradTest, IndexSelectBackwardScatters) {
  Variable a(T({1, 2, 3}, {3}), true);
  Variable s = IndexSelect(a, 0, {0, 0, 2});
  SumAll(s).Backward();
  EXPECT_TRUE(AllClose(a.grad(), T({2, 0, 1}, {3})));
}

TEST(AutogradTest, SoftmaxGradientSumsToZero) {
  utils::Rng rng(4);
  Variable a(Tensor::Normal(Shape({5}), rng), true);
  Variable s = Softmax(a, 0);
  // d/dz sum_i w_i p_i has zero sum (softmax Jacobian rows sum to 0).
  Variable w(Tensor::Normal(Shape({5}), rng), false);
  SumAll(Mul(s, w)).Backward();
  float total = 0.0f;
  for (int64_t i = 0; i < 5; ++i) total += a.grad()[i];
  EXPECT_NEAR(total, 0.0f, 1e-5f);
}

TEST(AutogradTest, L1LossValueAndGrad) {
  Variable pred(T({1, 4}, {2}), true);
  Variable target(T({2, 2}, {2}), false);
  Variable loss = L1Loss(pred, target);
  EXPECT_FLOAT_EQ(loss.value().Item(), 1.5f);  // (1 + 2) / 2
  loss.Backward();
  EXPECT_TRUE(AllClose(pred.grad(), T({-0.5f, 0.5f}, {2})));
}

TEST(AutogradTest, MseLossValue) {
  Variable pred(T({1, 4}, {2}), true);
  Variable target(T({2, 2}, {2}), false);
  EXPECT_FLOAT_EQ(MseLoss(pred, target).value().Item(), 2.5f);  // (1+4)/2
}

TEST(AutogradTest, ExpandBackwardReduces) {
  Variable a(T({1, 2}, {2}), true);
  Variable e = Expand(a, Shape({3, 2}));
  EXPECT_EQ(e.shape(), Shape({3, 2}));
  SumAll(e).Backward();
  EXPECT_TRUE(AllClose(a.grad(), T({3, 3}, {2})));
}

TEST(AutogradTest, TransposeReshapeBackward) {
  Variable a(T({1, 2, 3, 4, 5, 6}, {2, 3}), true);
  Variable t = Transpose(a, 0, 1);           // [3, 2]
  Variable r = Reshape(t, {6});
  Variable w(T({1, 2, 3, 4, 5, 6}, {6}), false);
  SumAll(Mul(r, w)).Backward();
  // r = [a00,a10,a01,a11,a02,a12]; grads land back transposed.
  EXPECT_TRUE(AllClose(a.grad(), T({1, 3, 5, 2, 4, 6}, {2, 3})));
}

TEST(AutogradTest, StackBackwardSplits) {
  Variable a(T({1, 2}, {2}), true);
  Variable b(T({3, 4}, {2}), true);
  Variable s = Stack({a, b}, 0);  // [2, 2]
  Variable w(T({1, 10, 100, 1000}, {2, 2}), false);
  SumAll(Mul(s, w)).Backward();
  EXPECT_TRUE(AllClose(a.grad(), T({1, 10}, {2})));
  EXPECT_TRUE(AllClose(b.grad(), T({100, 1000}, {2})));
}

TEST(AutogradTest, BackwardRequiresScalar) {
  Variable a(T({1, 2}, {2}), true);
  EXPECT_DEATH(Add(a, a).Backward(), "scalar");
}

TEST(AutogradTest, SetRequiresGradOnNonLeafDies) {
  Variable a(T({1}, {1}), true);
  Variable b = Mul(a, a);
  EXPECT_DEATH(b.set_requires_grad(false), "non-leaf");
}

/// Normal values with +0.0 / -0.0 strewn through, and one +inf.
Tensor WithSpecials(const Shape& shape, utils::Rng& rng, bool with_inf) {
  Tensor t = Tensor::Normal(shape, rng);
  float* p = t.data();
  for (int64_t i = 0; i < t.size(); ++i) {
    if (i % 5 == 1) p[i] = 0.0f;
    if (i % 7 == 2) p[i] = -0.0f;
  }
  if (with_inf) p[t.size() / 2] = std::numeric_limits<float>::infinity();
  return t;
}

void ExpectSameBytes(const Tensor& got, const Tensor& want,
                     const std::string& what) {
  ASSERT_TRUE(got.shape() == want.shape()) << what;
  for (int64_t i = 0; i < got.size(); ++i) {
    const uint32_t x = std::bit_cast<uint32_t>(got.data()[i]);
    const uint32_t y = std::bit_cast<uint32_t>(want.data()[i]);
    if (x != y) {
      ADD_FAILURE() << what << " differs at i=" << i << ": " << got.data()[i]
                    << " vs " << want.data()[i];
      return;
    }
  }
}

// BatchedMatMul's backward reads its operands in place; its gradients
// must be the bytes of the transposed-copy products it replaced,
// BatchedMatMul(g, b^T) and BatchedMatMul(a^T, g), summed over the batch
// (tensor::Sum) for the shared 2-D operand. Shapes [B, m, k] x [k, n],
// [m, k] x [B, k, n] and [B, m, k] x [B, k, n], widths across the 8-lane
// and 32-float boundaries, signed zeros in every operand and an inf in the
// incoming gradient, at both SIMD levels and pool sizes 1, 2 and 8.
TEST(AutogradTest, BatchedMatMulBackwardMatchesTransposedProducts) {
  namespace simd = tensor::simd;
  std::vector<simd::Level> levels = {simd::Level::kScalar};
  if (simd::Avx2Available()) levels.push_back(simd::Level::kAvx2);
  // Restores the level and pool size however the test exits.
  struct Restore {
    simd::Level level = simd::ActiveLevel();
    int64_t threads = utils::GetNumThreads();
    ~Restore() {
      simd::SetActiveLevel(level);
      utils::SetNumThreads(threads);
    }
  } restore;
  for (int64_t k : {1, 7, 8, 9, 18, 33}) {
    for (int64_t n : {1, 8, 9, 17, 32, 40}) {
      for (int64_t m : {1, 5, 37}) {
        for (int64_t batch : {1, 3}) {
          for (int form = 0; form < 3; ++form) {
            const bool a2 = form == 1;
            const bool b2 = form == 0;
            utils::Rng rng(static_cast<uint64_t>(k * 997 + n * 31 + m * 7 +
                                                 batch + form * 100000));
            const Tensor a0 = WithSpecials(
                a2 ? Shape({m, k}) : Shape({batch, m, k}), rng, false);
            const Tensor b0 = WithSpecials(
                b2 ? Shape({k, n}) : Shape({batch, k, n}), rng, false);
            const Tensor g = WithSpecials(Shape({batch, m, n}), rng, true);
            for (simd::Level level : levels) {
              simd::SetActiveLevel(level);
              Tensor want_a = tensor::BatchedMatMul(
                  g, b2 ? tensor::Transpose(b0, 0, 1)
                        : tensor::Transpose(b0, 1, 2));
              if (a2) want_a = tensor::Sum(want_a, 0);
              Tensor want_b = tensor::BatchedMatMul(
                  a2 ? tensor::Transpose(a0, 0, 1)
                     : tensor::Transpose(a0, 1, 2),
                  g);
              if (b2) want_b = tensor::Sum(want_b, 0);
              for (int64_t threads : {1, 2, 8}) {
                utils::SetNumThreads(threads);
                Variable a(a0.Clone(), true);
                Variable b(b0.Clone(), true);
                SumAll(Mul(BatchedMatMul(a, b), Variable(g))).Backward();
                const std::string what =
                    std::string(simd::LevelName(level)) +
                    " threads=" + std::to_string(threads) +
                    " form=" + std::to_string(form) +
                    " k=" + std::to_string(k) + " n=" + std::to_string(n) +
                    " m=" + std::to_string(m) +
                    " batch=" + std::to_string(batch);
                ExpectSameBytes(a.grad(), want_a, "grad a, " + what);
                ExpectSameBytes(b.grad(), want_b, "grad b, " + what);
                if (testing::Test::HasFailure()) return;
              }
            }
          }
        }
      }
    }
  }
}

// MatMul's 2-D backward runs the batched backward products on a batch of
// one; its gradients must be the bytes of the transposed-copy products
// MatMul(g, b^T) and MatMul(a^T, g). Inner and outer widths 1-40, signed
// zeros in every operand and an inf in the incoming gradient, at both
// SIMD levels and pool sizes 1, 2 and 8.
TEST(AutogradTest, MatMulBackwardMatchesTransposedProducts) {
  namespace simd = tensor::simd;
  std::vector<simd::Level> levels = {simd::Level::kScalar};
  if (simd::Avx2Available()) levels.push_back(simd::Level::kAvx2);
  struct Restore {
    simd::Level level = simd::ActiveLevel();
    int64_t threads = utils::GetNumThreads();
    ~Restore() {
      simd::SetActiveLevel(level);
      utils::SetNumThreads(threads);
    }
  } restore;
  for (int64_t w = 1; w <= 40; ++w) {
    const int64_t k = w;
    const int64_t n = 41 - w;
    for (int64_t m : {1, 5, 37}) {
      utils::Rng rng(static_cast<uint64_t>(w * 131 + m));
      const Tensor a0 = WithSpecials(Shape({m, k}), rng, false);
      const Tensor b0 = WithSpecials(Shape({k, n}), rng, false);
      const Tensor g = WithSpecials(Shape({m, n}), rng, true);
      for (simd::Level level : levels) {
        simd::SetActiveLevel(level);
        const Tensor want_a = tensor::MatMul(g, tensor::Transpose(b0, 0, 1));
        const Tensor want_b = tensor::MatMul(tensor::Transpose(a0, 0, 1), g);
        for (int64_t threads : {1, 2, 8}) {
          utils::SetNumThreads(threads);
          Variable a(a0.Clone(), true);
          Variable b(b0.Clone(), true);
          SumAll(Mul(MatMul(a, b), Variable(g))).Backward();
          const std::string what = std::string(simd::LevelName(level)) +
                                   " threads=" + std::to_string(threads) +
                                   " m=" + std::to_string(m) +
                                   " k=" + std::to_string(k) +
                                   " n=" + std::to_string(n);
          ExpectSameBytes(a.grad(), want_a, "grad a, " + what);
          ExpectSameBytes(b.grad(), want_b, "grad b, " + what);
          if (testing::Test::HasFailure()) return;
        }
      }
    }
  }
}

// A gradient that nothing else holds moves into the node: no clone.
TEST(AutogradTest, SoleOwnedGradientIsMovedNotCloned) {
  internal::Node node;
  node.value = Tensor::Zeros(Shape({3, 5}));
  Tensor g = Tensor::Full(Shape({3, 5}), 2.0f);
  const float* storage = g.data();
  node.AccumulateGrad(std::move(g));
  ASSERT_TRUE(node.grad_defined);
  EXPECT_EQ(node.grad.data(), storage);
  EXPECT_EQ(node.grad[14], 2.0f);
}

// A gradient with a second handle is cloned, so accumulating into the
// node's gradient leaves the other handle's values alone.
TEST(AutogradTest, SharedGradientIsCloned) {
  internal::Node node;
  node.value = Tensor::Zeros(Shape({4}));
  Tensor g = Tensor::Full(Shape({4}), 1.0f);
  const Tensor kept = g;
  node.AccumulateGrad(std::move(g));
  EXPECT_NE(node.grad.data(), kept.data());
  node.AccumulateGrad(Tensor::Full(Shape({4}), 5.0f));
  EXPECT_EQ(node.grad[0], 6.0f);
  EXPECT_EQ(kept[0], 1.0f);
}

// Add's backward hands one incoming gradient to both parents: each must
// get its own copy, so a later accumulation into one leaves the other.
TEST(AutogradTest, AddParentsGetSeparateGradients) {
  Variable a(T({1, 2, 3}, {3}), true);
  Variable b(T({4, 5, 6}, {3}), true);
  SumAll(Add(a, b)).Backward();
  EXPECT_FALSE(a.grad().SharesStorageWith(b.grad()));
  SumAll(MulScalar(a, 3.0f)).Backward();
  EXPECT_TRUE(AllClose(a.grad(), T({4, 4, 4}, {3})));
  EXPECT_TRUE(AllClose(b.grad(), T({1, 1, 1}, {3})));
}

// Reshape's backward passes a view of its own gradient on: the parent
// must copy it, so accumulating into the parent leaves the view's source.
TEST(AutogradTest, ReshapeViewGradientIsCloned) {
  Variable x(T({1, 2, 3, 4, 5, 6}, {2, 3}), true);
  Variable y = Reshape(x, {6});
  Variable w(T({1, 2, 3, 4, 5, 6}, {6}), false);
  SumAll(Mul(y, w)).Backward();
  const Tensor y_grad = y.grad();
  EXPECT_FALSE(x.grad().Reshape({6}).SharesStorageWith(y_grad));
  SumAll(MulScalar(x, 10.0f)).Backward();
  EXPECT_TRUE(AllClose(x.grad(), T({11, 12, 13, 14, 15, 16}, {2, 3})));
  EXPECT_TRUE(AllClose(y_grad, T({1, 2, 3, 4, 5, 6}, {6})));
}

}  // namespace
}  // namespace sagdfn::autograd
