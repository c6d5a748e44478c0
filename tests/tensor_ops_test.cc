#include "tensor/tensor_ops.h"

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/ops.h"
#include "utils/rng.h"

namespace sagdfn::tensor {
namespace {

Tensor T(std::vector<float> v, std::initializer_list<int64_t> dims) {
  return Tensor::FromVector(std::move(v), Shape(dims));
}

TEST(TensorOpsTest, AddSameShape) {
  Tensor c = Add(T({1, 2, 3}, {3}), T({10, 20, 30}, {3}));
  EXPECT_TRUE(AllClose(c, T({11, 22, 33}, {3})));
}

TEST(TensorOpsTest, BroadcastRowVector) {
  // [2,3] + [3]
  Tensor c = Add(T({1, 2, 3, 4, 5, 6}, {2, 3}), T({10, 20, 30}, {3}));
  EXPECT_TRUE(AllClose(c, T({11, 22, 33, 14, 25, 36}, {2, 3})));
}

TEST(TensorOpsTest, BroadcastColumnVector) {
  // [2,3] * [2,1]
  Tensor c = Mul(T({1, 2, 3, 4, 5, 6}, {2, 3}), T({2, 10}, {2, 1}));
  EXPECT_TRUE(AllClose(c, T({2, 4, 6, 40, 50, 60}, {2, 3})));
}

TEST(TensorOpsTest, BroadcastBothDirections) {
  // [2,1] + [1,3] -> [2,3]
  Tensor c = Add(T({1, 10}, {2, 1}), T({1, 2, 3}, {1, 3}));
  EXPECT_TRUE(AllClose(c, T({2, 3, 4, 11, 12, 13}, {2, 3})));
}

TEST(TensorOpsTest, ScalarBroadcast) {
  Tensor c = Mul(T({1, 2, 3}, {3}), Tensor::Scalar(4.0f));
  EXPECT_TRUE(AllClose(c, T({4, 8, 12}, {3})));
}

TEST(TensorOpsTest, SubDivMaxMin) {
  Tensor a = T({4, 9, 16}, {3});
  Tensor b = T({2, 3, 4}, {3});
  EXPECT_TRUE(AllClose(Sub(a, b), T({2, 6, 12}, {3})));
  EXPECT_TRUE(AllClose(Div(a, b), T({2, 3, 4}, {3})));
  EXPECT_FLOAT_EQ(MaxAll(Sub(a, b)), 12.0f);
  EXPECT_FLOAT_EQ(MinAll(Div(a, b)), 2.0f);
}

TEST(TensorOpsTest, UnaryOps) {
  Tensor a = T({-1, 0, 4}, {3});
  EXPECT_TRUE(AllClose(Neg(a), T({1, 0, -4}, {3})));
  EXPECT_TRUE(AllClose(Abs(a), T({1, 0, 4}, {3})));
  EXPECT_TRUE(AllClose(Sign(a), T({-1, 0, 1}, {3})));
  EXPECT_TRUE(AllClose(Relu(a), T({0, 0, 4}, {3})));
}

TEST(TensorOpsTest, SigmoidStability) {
  Tensor big = T({100.0f, -100.0f}, {2});
  Tensor s = Sigmoid(big);
  EXPECT_NEAR(s[0], 1.0f, 1e-6f);
  EXPECT_NEAR(s[1], 0.0f, 1e-6f);
  EXPECT_FALSE(HasNonFinite(s));
}

TEST(TensorOpsTest, MatMulSmall) {
  Tensor a = T({1, 2, 3, 4}, {2, 2});
  Tensor b = T({5, 6, 7, 8}, {2, 2});
  EXPECT_TRUE(AllClose(MatMul(a, b), T({19, 22, 43, 50}, {2, 2})));
}

TEST(TensorOpsTest, MatMulIdentity) {
  utils::Rng rng(3);
  Tensor a = Tensor::Uniform(Shape({5, 5}), rng);
  EXPECT_TRUE(AllClose(MatMul(a, Tensor::Eye(5)), a));
  EXPECT_TRUE(AllClose(MatMul(Tensor::Eye(5), a), a));
}

TEST(TensorOpsTest, MatMulRectangular) {
  Tensor a = T({1, 2, 3, 4, 5, 6}, {2, 3});
  Tensor b = T({1, 0, 0, 1, 1, 1}, {3, 2});
  EXPECT_TRUE(AllClose(MatMul(a, b), T({4, 5, 10, 11}, {2, 2})));
}

TEST(TensorOpsTest, BatchedMatMul3x3) {
  // Two batches of [1,2]x[2,1].
  Tensor a = T({1, 2, 3, 4}, {2, 1, 2});
  Tensor b = T({1, 1, 2, 2}, {2, 2, 1});
  Tensor c = BatchedMatMul(a, b);
  EXPECT_EQ(c.shape(), Shape({2, 1, 1}));
  EXPECT_FLOAT_EQ(c[0], 3.0f);
  EXPECT_FLOAT_EQ(c[1], 14.0f);
}

TEST(TensorOpsTest, BatchedMatMulBroadcastRhs) {
  Tensor a = T({1, 2, 3, 4}, {2, 1, 2});
  Tensor b = T({1, 1}, {2, 1});
  Tensor c = BatchedMatMul(a, b);
  EXPECT_EQ(c.shape(), Shape({2, 1, 1}));
  EXPECT_FLOAT_EQ(c[0], 3.0f);
  EXPECT_FLOAT_EQ(c[1], 7.0f);
}

TEST(TensorOpsTest, BatchedMatMulBroadcastLhs) {
  Tensor a = T({1, 1}, {1, 2});        // [1, 2]
  Tensor b = T({1, 2, 3, 4}, {2, 2, 1});  // [2, 2, 1]
  Tensor c = BatchedMatMul(a, b);
  EXPECT_EQ(c.shape(), Shape({2, 1, 1}));
  EXPECT_FLOAT_EQ(c[0], 3.0f);
  EXPECT_FLOAT_EQ(c[1], 7.0f);
}

TEST(TensorOpsTest, SumMeanMaxAlongAxis) {
  Tensor a = T({1, 2, 3, 4, 5, 6}, {2, 3});
  EXPECT_TRUE(AllClose(Sum(a, 0), T({5, 7, 9}, {3})));
  EXPECT_TRUE(AllClose(Sum(a, 1), T({6, 15}, {2})));
  EXPECT_TRUE(AllClose(Sum(a, 1, true), T({6, 15}, {2, 1})));
  EXPECT_TRUE(AllClose(Mean(a, 0), T({2.5f, 3.5f, 4.5f}, {3})));
  EXPECT_TRUE(AllClose(Max(a, 1), T({3, 6}, {2})));
}

TEST(TensorOpsTest, FullReductions) {
  Tensor a = T({1, 2, 3, 4}, {2, 2});
  EXPECT_FLOAT_EQ(SumAll(a).Item(), 10.0f);
  EXPECT_FLOAT_EQ(MeanAll(a).Item(), 2.5f);
  EXPECT_FLOAT_EQ(MaxAll(a), 4.0f);
  EXPECT_FLOAT_EQ(MinAll(a), 1.0f);
}

// A NaN anywhere makes MaxAll and MinAll NaN, so bound checks such as
// EXPECT_LE(MaxAll(Abs(h)), 1.0f) fail on NaN outputs.
TEST(TensorOpsTest, MaxAllMinAllReturnNanAtEveryPosition) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (int64_t n = 1; n <= 17; ++n) {
    std::vector<float> v(n);
    for (int64_t i = 0; i < n; ++i) v[i] = static_cast<float>(i % 5) - 2.0f;
    const Tensor clean = T(v, {n});
    EXPECT_EQ(MaxAll(clean), n >= 5 ? 2.0f : static_cast<float>(n - 3));
    EXPECT_EQ(MinAll(clean), -2.0f);
    for (int64_t pos = 0; pos < n; ++pos) {
      std::vector<float> w = v;
      w[pos] = nan;
      const Tensor t = T(w, {n});
      EXPECT_TRUE(std::isnan(MaxAll(t))) << "n=" << n << " NaN at " << pos;
      EXPECT_TRUE(std::isnan(MinAll(t))) << "n=" << n << " NaN at " << pos;
    }
  }
}

TEST(TensorOpsTest, ReduceToIsBroadcastAdjoint) {
  // Sum of broadcast([2,1] -> [2,3]) gradient back to [2,1].
  Tensor g = T({1, 2, 3, 4, 5, 6}, {2, 3});
  Tensor r = ReduceTo(g, Shape({2, 1}));
  EXPECT_TRUE(AllClose(r, T({6, 15}, {2, 1})));
  Tensor r2 = ReduceTo(g, Shape({3}));
  EXPECT_TRUE(AllClose(r2, T({5, 7, 9}, {3})));
}

TEST(TensorOpsTest, Transpose2D) {
  Tensor a = T({1, 2, 3, 4, 5, 6}, {2, 3});
  Tensor t = Transpose(a, 0, 1);
  EXPECT_EQ(t.shape(), Shape({3, 2}));
  EXPECT_TRUE(AllClose(t, T({1, 4, 2, 5, 3, 6}, {3, 2})));
}

TEST(TensorOpsTest, Transpose3DMiddleAxes) {
  Tensor a = Tensor::Arange(24).Reshape({2, 3, 4});
  Tensor t = Transpose(a, 1, 2);
  EXPECT_EQ(t.shape(), Shape({2, 4, 3}));
  EXPECT_FLOAT_EQ(t.At({0, 0, 1}), a.At({0, 1, 0}));
  EXPECT_FLOAT_EQ(t.At({1, 3, 2}), a.At({1, 2, 3}));
  // Double transpose is identity.
  EXPECT_TRUE(AllClose(Transpose(t, 1, 2), a));
}

TEST(TensorOpsTest, ConcatAxis0And1) {
  Tensor a = T({1, 2}, {1, 2});
  Tensor b = T({3, 4}, {1, 2});
  EXPECT_TRUE(AllClose(Concat({a, b}, 0), T({1, 2, 3, 4}, {2, 2})));
  EXPECT_TRUE(AllClose(Concat({a, b}, 1), T({1, 2, 3, 4}, {1, 4})));
}

// The library's Stack is the autograd op (a Reshape per part, then
// Concat); its forward value is plain tensor data.
TEST(TensorOpsTest, StackCreatesNewAxis) {
  autograd::Variable a(T({1, 2}, {2}));
  autograd::Variable b(T({3, 4}, {2}));
  Tensor s = autograd::Stack({a, b}, 0).value();
  EXPECT_EQ(s.shape(), Shape({2, 2}));
  Tensor s1 = autograd::Stack({a, b}, 1).value();
  EXPECT_EQ(s1.shape(), Shape({2, 2}));
  EXPECT_FLOAT_EQ(s1.At({0, 1}), 3.0f);
}

TEST(TensorOpsTest, SliceMiddle) {
  Tensor a = Tensor::Arange(10).Reshape({2, 5});
  Tensor s = Slice(a, 1, 1, 4);
  EXPECT_EQ(s.shape(), Shape({2, 3}));
  EXPECT_TRUE(AllClose(s, T({1, 2, 3, 6, 7, 8}, {2, 3})));
}

TEST(TensorOpsTest, IndexSelectWithRepeats) {
  Tensor a = T({1, 2, 3, 4, 5, 6}, {3, 2});
  Tensor s = IndexSelect(a, 0, {2, 0, 2});
  EXPECT_TRUE(AllClose(s, T({5, 6, 1, 2, 5, 6}, {3, 2})));
}

TEST(TensorOpsTest, IndexAddIsGatherAdjoint) {
  Tensor dst = Tensor::Zeros(Shape({3, 2}));
  Tensor src = T({1, 1, 2, 2, 4, 4}, {3, 2});
  IndexAddInto(dst, 0, {2, 0, 2}, src);
  // Row 2 accumulates twice: 1+4.
  EXPECT_TRUE(AllClose(dst, T({2, 2, 0, 0, 5, 5}, {3, 2})));
}

TEST(TensorOpsTest, SoftmaxRowsSumToOne) {
  utils::Rng rng(5);
  Tensor a = Tensor::Normal(Shape({4, 7}), rng, 0.0f, 3.0f);
  Tensor s = Softmax(a, 1);
  Tensor sums = Sum(s, 1);
  for (int64_t i = 0; i < 4; ++i) EXPECT_NEAR(sums[i], 1.0f, 1e-5f);
  EXPECT_GE(MinAll(s), 0.0f);
}

TEST(TensorOpsTest, SoftmaxLargeLogitsStable) {
  Tensor a = T({1000, 999, -1000}, {3});
  Tensor s = Softmax(a, 0);
  EXPECT_FALSE(HasNonFinite(s));
  EXPECT_GT(s[0], s[1]);
}

TEST(TensorOpsTest, AllCloseDetectsDifference) {
  EXPECT_TRUE(AllClose(T({1, 2}, {2}), T({1, 2}, {2})));
  EXPECT_FALSE(AllClose(T({1, 2}, {2}), T({1, 2.1f}, {2})));
  EXPECT_FALSE(AllClose(T({1, 2}, {2}), T({1, 2}, {1, 2})));
}

TEST(TensorOpsTest, HasNonFinite) {
  EXPECT_FALSE(HasNonFinite(T({1, 2}, {2})));
  EXPECT_TRUE(HasNonFinite(T({1, NAN}, {2})));
  EXPECT_TRUE(HasNonFinite(T({1, INFINITY}, {2})));
  EXPECT_TRUE(HasNonFinite(Div(T({1.0f}, {1}), T({0.0f}, {1}))));
}

// Property suite: algebraic identities on random tensors.
class TensorAlgebraProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TensorAlgebraProperty, Identities) {
  utils::Rng rng(GetParam());
  Tensor a = Tensor::Normal(Shape({3, 4}), rng);
  Tensor b = Tensor::Normal(Shape({3, 4}), rng);
  Tensor c = Tensor::Normal(Shape({4}), rng);

  // Commutativity / associativity-ish (float tolerant).
  EXPECT_TRUE(AllClose(Add(a, b), Add(b, a)));
  EXPECT_TRUE(AllClose(Mul(a, b), Mul(b, a)));
  // a - a = 0, a / a = 1 (avoid tiny denominators).
  Tensor safe = AddScalar(Abs(a), 1.0f);
  EXPECT_TRUE(AllClose(Sub(a, a), Tensor::Zeros(a.shape())));
  EXPECT_TRUE(AllClose(Div(safe, safe), Tensor::Ones(a.shape())));
  // Broadcast distribution: (a + c) - c = a.
  EXPECT_TRUE(AllClose(Sub(Add(a, c), c), a, 1e-4f, 1e-3f));
  // Sum over both axes equals SumAll.
  EXPECT_NEAR(SumAll(a).Item(), SumAll(Sum(a, 0)).Item(), 1e-3f);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TensorAlgebraProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// Property: matmul distributes over addition and respects transpose.
class MatMulProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MatMulProperty, Identities) {
  utils::Rng rng(GetParam());
  Tensor a = Tensor::Normal(Shape({4, 3}), rng);
  Tensor b = Tensor::Normal(Shape({3, 5}), rng);
  Tensor c = Tensor::Normal(Shape({3, 5}), rng);
  // A(B + C) = AB + AC.
  EXPECT_TRUE(AllClose(MatMul(a, Add(b, c)),
                       Add(MatMul(a, b), MatMul(a, c)), 1e-3f, 1e-3f));
  // (AB)^T = B^T A^T.
  EXPECT_TRUE(AllClose(Transpose(MatMul(a, b), 0, 1),
                       MatMul(Transpose(b, 0, 1), Transpose(a, 0, 1)),
                       1e-3f, 1e-3f));
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatMulProperty,
                         ::testing::Values(11, 12, 13, 14, 15));

// Property: batched matmul with broadcast operands matches per-slice 2-D
// matmul.
class BatchedMatMulProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BatchedMatMulProperty, MatchesLoopedMatMul) {
  utils::Rng rng(GetParam());
  Tensor a = Tensor::Normal(Shape({3, 4, 2}), rng);
  Tensor b = Tensor::Normal(Shape({3, 2, 5}), rng);
  Tensor c = BatchedMatMul(a, b);
  for (int64_t bi = 0; bi < 3; ++bi) {
    Tensor as = Slice(a, 0, bi, bi + 1).Reshape({4, 2});
    Tensor bs = Slice(b, 0, bi, bi + 1).Reshape({2, 5});
    Tensor cs = Slice(c, 0, bi, bi + 1).Reshape({4, 5});
    EXPECT_TRUE(AllClose(cs, MatMul(as, bs), 1e-4f, 1e-3f));
  }
  // Broadcast rhs.
  Tensor b2 = Tensor::Normal(Shape({2, 5}), rng);
  Tensor c2 = BatchedMatMul(a, b2);
  for (int64_t bi = 0; bi < 3; ++bi) {
    Tensor as = Slice(a, 0, bi, bi + 1).Reshape({4, 2});
    Tensor cs = Slice(c2, 0, bi, bi + 1).Reshape({4, 5});
    EXPECT_TRUE(AllClose(cs, MatMul(as, b2), 1e-4f, 1e-3f));
  }
  // Broadcast lhs.
  Tensor a2 = Tensor::Normal(Shape({4, 2}), rng);
  Tensor c3 = BatchedMatMul(a2, b);
  for (int64_t bi = 0; bi < 3; ++bi) {
    Tensor bs = Slice(b, 0, bi, bi + 1).Reshape({2, 5});
    Tensor cs = Slice(c3, 0, bi, bi + 1).Reshape({4, 5});
    EXPECT_TRUE(AllClose(cs, MatMul(a2, bs), 1e-4f, 1e-3f));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchedMatMulProperty,
                         ::testing::Values(21, 22, 23));

}  // namespace
}  // namespace sagdfn::tensor
