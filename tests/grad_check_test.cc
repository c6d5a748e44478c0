// Finite-difference verification of every differentiable op. These are the
// tests that guarantee the from-scratch autograd substrate computes the
// same math PyTorch would, which is what makes the SAGDFN reproduction
// faithful.
#include "autograd/grad_check.h"

#include <gtest/gtest.h>

#include "autograd/ops.h"
#include "utils/rng.h"

namespace sagdfn::autograd {
namespace {

using tensor::Shape;
using tensor::Tensor;

using Fn = std::function<Variable(const std::vector<Variable>&)>;

void ExpectGradOk(const Fn& fn, const std::vector<Tensor>& inputs) {
  std::string error;
  EXPECT_TRUE(CheckGradients(fn, inputs, &error)) << error;
}

Tensor RandT(Shape shape, uint64_t seed, float lo = -1.0f, float hi = 1.0f) {
  utils::Rng rng(seed);
  return Tensor::Uniform(std::move(shape), rng, lo, hi);
}

TEST(GradCheckTest, Binary) {
  Tensor a = RandT(Shape({2, 3}), 1);
  Tensor b = RandT(Shape({2, 3}), 2);
  ExpectGradOk([](const auto& v) { return SumAll(Add(v[0], v[1])); },
               {a, b});
  ExpectGradOk([](const auto& v) { return SumAll(Sub(v[0], v[1])); },
               {a, b});
  ExpectGradOk([](const auto& v) { return SumAll(Mul(v[0], v[1])); },
               {a, b});
  Tensor safe_b = RandT(Shape({2, 3}), 3, 1.0f, 2.0f);
  ExpectGradOk([](const auto& v) { return SumAll(Div(v[0], v[1])); },
               {a, safe_b});
}

TEST(GradCheckTest, BinaryBroadcast) {
  Tensor a = RandT(Shape({2, 3}), 4);
  Tensor b = RandT(Shape({3}), 5);
  Tensor c = RandT(Shape({2, 1}), 6);
  ExpectGradOk([](const auto& v) { return SumAll(Add(v[0], v[1])); },
               {a, b});
  ExpectGradOk([](const auto& v) { return SumAll(Mul(v[0], v[1])); },
               {a, c});
  // Weighted so the gradient is non-uniform.
  ExpectGradOk(
      [](const auto& v) {
        return SumAll(Mul(Add(v[0], v[1]), Mul(v[0], v[1])));
      },
      {a, b});
}

TEST(GradCheckTest, Unary) {
  Tensor a = RandT(Shape({2, 3}), 7);
  ExpectGradOk([](const auto& v) { return SumAll(Exp(v[0])); }, {a});
  ExpectGradOk([](const auto& v) { return SumAll(Tanh(v[0])); }, {a});
  ExpectGradOk([](const auto& v) { return SumAll(Sigmoid(v[0])); }, {a});
  ExpectGradOk([](const auto& v) { return SumAll(MulScalar(v[0], -2.5f)); },
               {a});
  ExpectGradOk([](const auto& v) { return SumAll(AddScalar(v[0], 1.5f)); },
               {a});
}

TEST(GradCheckTest, ReluAwayFromKink) {
  // Keep elements away from 0 where the subgradient is ambiguous.
  Tensor a = RandT(Shape({3, 3}), 9, 0.2f, 1.0f);
  Tensor b = RandT(Shape({3, 3}), 10, -1.0f, -0.2f);
  ExpectGradOk([](const auto& v) { return SumAll(Relu(v[0])); }, {a});
  ExpectGradOk([](const auto& v) { return SumAll(Relu(v[0])); }, {b});
  ExpectGradOk([](const auto& v) { return SumAll(Abs(v[0])); }, {a});
}

TEST(GradCheckTest, MatMul) {
  Tensor a = RandT(Shape({3, 4}), 11);
  Tensor b = RandT(Shape({4, 2}), 12);
  // Weight the output so gradients differ per element.
  Tensor w = RandT(Shape({3, 2}), 13);
  ExpectGradOk(
      [w](const auto& v) {
        return SumAll(Mul(MatMul(v[0], v[1]), Variable(w)));
      },
      {a, b});
}

TEST(GradCheckTest, BatchedMatMulAllBroadcasts) {
  Tensor a3 = RandT(Shape({2, 3, 4}), 14);
  Tensor b3 = RandT(Shape({2, 4, 2}), 15);
  Tensor b2 = RandT(Shape({4, 2}), 16);
  Tensor a2 = RandT(Shape({3, 4}), 17);
  Tensor w = RandT(Shape({2, 3, 2}), 18);
  auto weighted = [w](Variable out) {
    return SumAll(Mul(out, Variable(w)));
  };
  ExpectGradOk(
      [&](const auto& v) { return weighted(BatchedMatMul(v[0], v[1])); },
      {a3, b3});
  ExpectGradOk(
      [&](const auto& v) { return weighted(BatchedMatMul(v[0], v[1])); },
      {a3, b2});
  ExpectGradOk(
      [&](const auto& v) { return weighted(BatchedMatMul(v[0], v[1])); },
      {a2, b3});
}

TEST(GradCheckTest, Reductions) {
  Tensor a = RandT(Shape({3, 4}), 19);
  Tensor w0 = RandT(Shape({4}), 20);
  Tensor w1 = RandT(Shape({3}), 21);
  ExpectGradOk(
      [w0](const auto& v) {
        return SumAll(Mul(Sum(v[0], 0), Variable(w0)));
      },
      {a});
  ExpectGradOk(
      [w1](const auto& v) {
        return SumAll(Mul(Mean(v[0], 1), Variable(w1)));
      },
      {a});
  ExpectGradOk([](const auto& v) { return MeanAll(v[0]); }, {a});
}

TEST(GradCheckTest, ShapeOps) {
  Tensor a = RandT(Shape({2, 6}), 22);
  Tensor w = RandT(Shape({3, 4}), 23);
  ExpectGradOk(
      [w](const auto& v) {
        return SumAll(Mul(Reshape(v[0], {3, 4}), Variable(w)));
      },
      {a});
  Tensor wt = RandT(Shape({6, 2}), 24);
  ExpectGradOk(
      [wt](const auto& v) {
        return SumAll(Mul(Transpose(v[0], 0, 1), Variable(wt)));
      },
      {a});
  Tensor ws = RandT(Shape({2, 3}), 25);
  ExpectGradOk(
      [ws](const auto& v) {
        return SumAll(Mul(Slice(v[0], 1, 2, 5), Variable(ws)));
      },
      {a});
  Tensor wi = RandT(Shape({2, 4}), 26);
  ExpectGradOk(
      [wi](const auto& v) {
        return SumAll(
            Mul(IndexSelect(v[0], 1, {0, 0, 5, 3}), Variable(wi)));
      },
      {a});
}

TEST(GradCheckTest, ConcatAndStack) {
  Tensor a = RandT(Shape({2, 2}), 27);
  Tensor b = RandT(Shape({2, 3}), 28);
  Tensor w = RandT(Shape({2, 5}), 29);
  ExpectGradOk(
      [w](const auto& v) {
        return SumAll(Mul(Concat({v[0], v[1]}, 1), Variable(w)));
      },
      {a, b});
  Tensor c = RandT(Shape({2, 2}), 30);
  Tensor ws = RandT(Shape({2, 2, 2}), 31);
  ExpectGradOk(
      [ws](const auto& v) {
        return SumAll(Mul(Stack({v[0], v[1]}, 1), Variable(ws)));
      },
      {a, c});
}

TEST(GradCheckTest, SoftmaxWeighted) {
  Tensor a = RandT(Shape({3, 5}), 32);
  Tensor w = RandT(Shape({3, 5}), 33);
  ExpectGradOk(
      [w](const auto& v) {
        return SumAll(Mul(Softmax(v[0], 1), Variable(w)));
      },
      {a});
}

TEST(GradCheckTest, Losses) {
  Tensor pred = RandT(Shape({3, 4}), 34);
  Tensor target = RandT(Shape({3, 4}), 35, 2.0f, 3.0f);  // no zero diffs
  ExpectGradOk(
      [target](const auto& v) { return L1Loss(v[0], Variable(target)); },
      {pred});
  ExpectGradOk(
      [target](const auto& v) { return MseLoss(v[0], Variable(target)); },
      {pred});
}

TEST(GradCheckTest, CompositeExpression) {
  // A small end-to-end expression resembling one GRU gate.
  Tensor x = RandT(Shape({2, 3}), 36);
  Tensor w = RandT(Shape({3, 3}), 37);
  Tensor h = RandT(Shape({2, 3}), 38);
  ExpectGradOk(
      [](const auto& v) {
        Variable gate = Sigmoid(MatMul(v[0], v[1]));
        Variable cand = Tanh(Add(MatMul(v[0], v[1]), v[2]));
        return MeanAll(Add(Mul(gate, v[2]), Mul(gate, cand)));
      },
      {x, w, h});
}

}  // namespace
}  // namespace sagdfn::autograd
