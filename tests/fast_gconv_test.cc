#include "core/fast_gconv.h"

#include <gtest/gtest.h>

#include <cstring>

#include "autograd/grad_check.h"
#include "autograd/ops.h"
#include "core/fused_ops.h"
#include "tensor/simd.h"
#include "tensor/tensor_ops.h"
#include "utils/parallel.h"
#include "utils/rng.h"

namespace sagdfn::core {
namespace {

namespace ag = ::sagdfn::autograd;
using tensor::Shape;
using tensor::Tensor;

std::vector<int64_t> Iota(int64_t m) {
  std::vector<int64_t> v(m);
  for (int64_t i = 0; i < m; ++i) v[i] = i;
  return v;
}

TEST(FastGraphConvTest, OutputShape) {
  utils::Rng rng(1);
  FastGraphConv conv(3, 5, 3, rng);
  ag::Variable a_s(Tensor::Uniform(Shape({8, 4}), rng), false);
  ag::Variable x(Tensor::Normal(Shape({2, 8, 3}), rng), false);
  ag::Variable y = conv.Forward(a_s, Iota(4), x);
  EXPECT_EQ(y.shape(), Shape({2, 8, 5}));
}

TEST(FastGraphConvTest, SingleStepIsLinearMap) {
  // J = 1: no diffusion, so the adjacency must not matter.
  utils::Rng rng(2);
  FastGraphConv conv(2, 2, 1, rng);
  ag::Variable x(Tensor::Normal(Shape({1, 6, 2}), rng), false);
  ag::Variable a1(Tensor::Uniform(Shape({6, 3}), rng), false);
  ag::Variable a2(Tensor::Uniform(Shape({6, 3}), rng), false);
  Tensor y1 = conv.Forward(a1, Iota(3), x).value();
  Tensor y2 = conv.Forward(a2, Iota(3), x).value();
  EXPECT_TRUE(tensor::AllClose(y1, y2));
}

TEST(FastGraphConvTest, ZeroAdjacencyStillSeesSelf) {
  // With A_s = 0 the diffusion term reduces to X / 1 each step, so the
  // output is a pure per-node transform (no cross-node leakage).
  utils::Rng rng(3);
  FastGraphConv conv(2, 2, 3, rng);
  ag::Variable a_s(Tensor::Zeros(Shape({5, 2})), false);
  Tensor x = Tensor::Zeros(Shape({1, 5, 2}));
  x.At({0, 2, 0}) = 1.0f;  // only node 2 has signal
  Tensor y = conv.Forward(a_s, Iota(2), ag::Variable(x)).value();
  // Other nodes' outputs equal the bias-only response; node 2 differs.
  Tensor y_node0 = tensor::Slice(y, 1, 0, 1);
  Tensor y_node1 = tensor::Slice(y, 1, 1, 2);
  Tensor y_node2 = tensor::Slice(y, 1, 2, 3);
  EXPECT_TRUE(tensor::AllClose(y_node0, y_node1));
  EXPECT_FALSE(tensor::AllClose(y_node0, y_node2));
}

TEST(FastGraphConvTest, InformationDiffusesFromNeighbors) {
  // Node 0 attends to node 1 (index set {1}); signal at node 1 must reach
  // node 0's output when J >= 2.
  utils::Rng rng(4);
  FastGraphConv conv(1, 1, 2, rng);
  Tensor a = Tensor::Zeros(Shape({3, 1}));
  a.At({0, 0}) = 1.0f;  // only node 0 pulls from column 0 (= node 1)
  Tensor x = Tensor::Zeros(Shape({1, 3, 1}));
  x.At({0, 1, 0}) = 5.0f;
  std::vector<int64_t> index_set{1};

  Tensor y = conv.Forward(ag::Variable(a), index_set,
                          ag::Variable(x)).value();
  Tensor y_zero = conv.Forward(ag::Variable(Tensor::Zeros(Shape({3, 1}))),
                               index_set, ag::Variable(x)).value();
  // Node 0 output changes when the edge is present.
  EXPECT_NE(y.At({0, 0, 0}), y_zero.At({0, 0, 0}));
  // Node 2 is untouched by the edge.
  EXPECT_FLOAT_EQ(y.At({0, 2, 0}), y_zero.At({0, 2, 0}));
}

TEST(FastGraphConvTest, GradCheckThroughDiffusion) {
  utils::Rng rng(5);
  FastGraphConv conv(2, 2, 3, rng);
  Tensor a = Tensor::Uniform(Shape({4, 2}), rng, 0.1f, 1.0f);
  Tensor x = Tensor::Normal(Shape({2, 4, 2}), rng, 0.0f, 0.5f);
  Tensor w = Tensor::Normal(Shape({2, 4, 2}), rng);
  std::vector<int64_t> index_set{1, 3};
  std::string error;
  EXPECT_TRUE(ag::CheckGradients(
      [&](const std::vector<ag::Variable>& v) {
        return ag::SumAll(
            ag::Mul(conv.Forward(v[0], index_set, v[1]), ag::Variable(w)));
      },
      {a, x}, &error))
      << error;
}

TEST(GConvGruCellTest, StateShapeAndBounds) {
  utils::Rng rng(6);
  GConvGruCell cell(2, 4, 2, rng);
  ag::Variable h = cell.InitialState(3, 7);
  EXPECT_EQ(h.shape(), Shape({3, 7, 4}));
  ag::Variable a_s(Tensor::Uniform(Shape({7, 3}), rng), false);
  ag::Variable x(Tensor::Normal(Shape({3, 7, 2}), rng), false);
  ag::Variable h1 = cell.Forward(a_s, Iota(3), x, h);
  EXPECT_EQ(h1.shape(), Shape({3, 7, 4}));
  EXPECT_LE(tensor::MaxAll(tensor::Abs(h1.value())), 1.0f);
}

TEST(GConvGruCellTest, HiddenStateEvolves) {
  utils::Rng rng(7);
  GConvGruCell cell(2, 4, 2, rng);
  ag::Variable a_s(Tensor::Uniform(Shape({5, 2}), rng), false);
  ag::Variable x(Tensor::Normal(Shape({1, 5, 2}), rng), false);
  ag::Variable h = cell.InitialState(1, 5);
  ag::Variable h1 = cell.Forward(a_s, Iota(2), x, h);
  ag::Variable h2 = cell.Forward(a_s, Iota(2), x, h1);
  EXPECT_FALSE(tensor::AllClose(h1.value(), h2.value()));
}

TEST(GConvGruCellTest, GradCheckOneStep) {
  utils::Rng rng(8);
  GConvGruCell cell(1, 2, 2, rng);
  Tensor a = Tensor::Uniform(Shape({3, 2}), rng, 0.1f, 1.0f);
  Tensor x = Tensor::Normal(Shape({1, 3, 1}), rng, 0.0f, 0.5f);
  Tensor h = Tensor::Uniform(Shape({1, 3, 2}), rng, -0.5f, 0.5f);
  std::vector<int64_t> index_set{0, 2};
  std::string error;
  EXPECT_TRUE(ag::CheckGradients(
      [&](const std::vector<ag::Variable>& v) {
        return ag::MeanAll(cell.Forward(v[0], index_set, v[1], v[2]));
      },
      {a, x, h}, &error))
      << error;
}

TEST(GConvGruCellTest, GradientsReachAllParameters) {
  utils::Rng rng(9);
  GConvGruCell cell(2, 3, 3, rng);
  ag::Variable a_s(Tensor::Uniform(Shape({6, 3}), rng), false);
  ag::Variable x(Tensor::Normal(Shape({2, 6, 2}), rng), false);
  ag::Variable h = cell.InitialState(2, 6);
  ag::Variable h1 = cell.Forward(a_s, Iota(3), x, h);
  ag::MeanAll(h1).Backward();
  for (auto& [name, p] : cell.NamedParameters()) {
    EXPECT_GT(tensor::SumAll(tensor::Abs(p.grad())).Item(), 0.0f)
        << "no gradient for " << name;
  }
}

TEST(FastGraphConvTest, NegativeAdjacencyEntriesStayFinite) {
  // A_s out of the linear head combination can be negative; the |.|-degree
  // normalization must keep everything finite.
  utils::Rng rng(10);
  FastGraphConv conv(2, 2, 3, rng);
  ag::Variable a_s(Tensor::Normal(Shape({5, 3}), rng, 0.0f, 2.0f), false);
  ag::Variable x(Tensor::Normal(Shape({1, 5, 2}), rng), false);
  Tensor y = conv.Forward(a_s, Iota(3), x).value();
  EXPECT_FALSE(tensor::HasNonFinite(y));
}

TEST(FastGraphConvTest, DiffusionStepIsThreadCountInvariantAcrossBatches) {
  // Batch 3 with N odd: row tiles (8, 4 or 2 rows) never divide N, and
  // the pool's task ranges split rows inside a batch and across batch
  // boundaries. Every thread count must give the per-row axpy/scale
  // composition byte for byte.
  const int64_t batch = 3, n = 4405, m = 9;
  utils::Rng rng(11);
  std::vector<int64_t> index_set(m);
  for (int64_t j = 0; j < m; ++j) index_set[j] = (j * 487 + 3) % n;
  Tensor a = Tensor::Normal(Shape({n, m}), rng);
  for (int64_t i = 0; i < n; i += 5) a.data()[i * m + i % m] = 0.0f;
  Tensor inv = Tensor::Uniform(Shape({n, 1}), rng, 0.1f, 1.0f);
  const int64_t previous = utils::GetNumThreads();
  for (int64_t c : {5, 12, 20, 40}) {
    Tensor term = Tensor::Normal(Shape({batch, n, c}), rng);
    const tensor::simd::Kernels& k = tensor::simd::K();
    Tensor want = Tensor::Zeros(Shape({batch, n, c}));
    for (int64_t b = 0; b < batch; ++b) {
      const float* t_base = term.data() + b * n * c;
      for (int64_t i = 0; i < n; ++i) {
        float* row = want.data() + (b * n + i) * c;
        std::memcpy(row, t_base + i * c, sizeof(float) * c);
        for (int64_t j = 0; j < m; ++j) {
          const float av = a.data()[i * m + j];
          if (av != 0.0f) k.axpy(av, t_base + index_set[j] * c, row, c);
        }
        k.scale(row, inv.data()[i], c);
      }
    }
    for (int64_t threads : {1, 2, 8}) {
      utils::SetNumThreads(threads);
      Tensor got = Tensor::Zeros(Shape({batch, n, c}));
      OneStepFastGConvInto(a.data(), term.data(), inv.data(), index_set,
                           batch, n, c, got.data());
      EXPECT_EQ(std::memcmp(got.data(), want.data(),
                            sizeof(float) * batch * n * c),
                0)
          << "c=" << c << " threads=" << threads;
    }
  }
  utils::SetNumThreads(previous);
}

}  // namespace
}  // namespace sagdfn::core
