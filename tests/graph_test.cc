#include <gtest/gtest.h>

#include "graph/adjacency.h"
#include "graph/correlation.h"
#include "graph/generators.h"
#include "tensor/tensor_ops.h"
#include "utils/rng.h"

namespace sagdfn::graph {
namespace {

using tensor::Shape;
using tensor::Tensor;

TEST(AdjacencyTest, RowDegreesAndNormalize) {
  Tensor a = Tensor::FromVector({0, 2, 2, 0, 0, 0}, Shape({2, 3}));
  Tensor deg = tensor::Sum(a, 1, /*keepdim=*/false);
  EXPECT_FLOAT_EQ(deg[0], 4.0f);
  EXPECT_FLOAT_EQ(deg[1], 0.0f);
  Tensor norm = RowNormalize(a);
  EXPECT_FLOAT_EQ(norm.At({0, 1}), 0.5f);
  // Zero rows stay zero (no NaN).
  EXPECT_FLOAT_EQ(norm.At({1, 0}), 0.0f);
  EXPECT_FALSE(tensor::HasNonFinite(norm));
}

TEST(AdjacencyTest, SymmetricNormalizeEigenBound) {
  utils::Rng rng(1);
  SpatialGraph g = ErdosRenyi(20, 0.3, rng);
  Tensor sym = SymmetricNormalize(g.adjacency);
  // All entries finite and bounded by 1.
  EXPECT_FALSE(tensor::HasNonFinite(sym));
  EXPECT_LE(tensor::MaxAll(sym), 1.0f + 1e-5f);
}

TEST(AdjacencyTest, TopKPerRowKeepsLargest) {
  Tensor a = Tensor::FromVector({5, 1, 3, 2, 8, 4}, Shape({2, 3}));
  Tensor top = TopKPerRow(a, 2);
  EXPECT_FLOAT_EQ(top.At({0, 0}), 5.0f);
  EXPECT_FLOAT_EQ(top.At({0, 1}), 0.0f);
  EXPECT_FLOAT_EQ(top.At({0, 2}), 3.0f);
  EXPECT_FLOAT_EQ(top.At({1, 1}), 8.0f);
  EXPECT_FLOAT_EQ(top.At({1, 0}), 0.0f);
}

TEST(AdjacencyTest, ThresholdAndSparsity) {
  // Keeping the larger entry of each row zeroes half of the matrix.
  Tensor a = Tensor::FromVector({0.1f, 0.5f, 0.9f, 0.3f}, Shape({2, 2}));
  Tensor t = TopKPerRow(a, 1);
  EXPECT_FLOAT_EQ(t[0], 0.0f);
  EXPECT_FLOAT_EQ(t[1], 0.5f);
  EXPECT_DOUBLE_EQ(Sparsity(a), 0.0);
  EXPECT_DOUBLE_EQ(Sparsity(t), 0.5);
}

TEST(AdjacencyTest, TopKOverlapSelfIsOne) {
  utils::Rng rng(2);
  Tensor a = Tensor::Uniform(Shape({10, 10}), rng);
  EXPECT_DOUBLE_EQ(TopKOverlap(a, a, 3), 1.0);
}

TEST(GeneratorsTest, RandomGeometricSymmetricZeroDiag) {
  utils::Rng rng(3);
  SpatialGraph g = RandomGeometric(30, 0.3, 0.2, rng);
  EXPECT_EQ(g.num_nodes, 30);
  const Tensor& a = g.adjacency;
  for (int64_t i = 0; i < 30; ++i) {
    EXPECT_FLOAT_EQ(a.At({i, i}), 0.0f);
    for (int64_t j = 0; j < 30; ++j) {
      EXPECT_FLOAT_EQ(a.At({i, j}), a.At({j, i}));
      EXPECT_GE(a.At({i, j}), 0.0f);
      EXPECT_LE(a.At({i, j}), 1.0f);
    }
  }
  // Coordinates recorded.
  EXPECT_EQ(g.x.size(), 30u);
}

TEST(GeneratorsTest, GeometricRadiusControlsDensity) {
  utils::Rng rng1(4);
  utils::Rng rng2(4);
  SpatialGraph sparse = RandomGeometric(50, 0.05, 0.05, rng1);
  SpatialGraph dense = RandomGeometric(50, 0.5, 0.3, rng2);
  EXPECT_GT(Sparsity(sparse.adjacency), Sparsity(dense.adjacency));
}

TEST(GeneratorsTest, ErdosRenyiProbabilityExtremes) {
  utils::Rng rng(5);
  SpatialGraph none = ErdosRenyi(20, 0.0, rng);
  EXPECT_DOUBLE_EQ(Sparsity(none.adjacency), 1.0);
  SpatialGraph all = ErdosRenyi(20, 1.0, rng);
  // Only the diagonal is zero.
  EXPECT_NEAR(Sparsity(all.adjacency), 20.0 / 400.0, 1e-9);
}

TEST(GeneratorsTest, SbmDenserWithinBlocks) {
  utils::Rng rng(6);
  std::vector<int64_t> blocks;
  SpatialGraph g = StochasticBlockModel(60, 3, 0.8, 0.02, rng, &blocks);
  ASSERT_EQ(blocks.size(), 60u);
  int64_t in_edges = 0;
  int64_t in_pairs = 0;
  int64_t out_edges = 0;
  int64_t out_pairs = 0;
  for (int64_t i = 0; i < 60; ++i) {
    for (int64_t j = i + 1; j < 60; ++j) {
      const bool has_edge = g.adjacency.At({i, j}) > 0.0f;
      if (blocks[i] == blocks[j]) {
        ++in_pairs;
        in_edges += has_edge;
      } else {
        ++out_pairs;
        out_edges += has_edge;
      }
    }
  }
  const double in_rate = static_cast<double>(in_edges) / in_pairs;
  const double out_rate = static_cast<double>(out_edges) / out_pairs;
  EXPECT_GT(in_rate, 5 * out_rate);
}

TEST(GeneratorsTest, KnnDegreesAtLeastK) {
  std::vector<double> x;
  std::vector<double> y;
  utils::Rng rng(7);
  for (int i = 0; i < 40; ++i) {
    x.push_back(rng.Uniform());
    y.push_back(rng.Uniform());
  }
  SpatialGraph g = KnnFromPoints(x, y, 5, 0.2);
  // Every node has at least k neighbors (symmetrization can add more).
  for (int64_t i = 0; i < 40; ++i) {
    int64_t degree = 0;
    for (int64_t j = 0; j < 40; ++j) {
      if (g.adjacency.At({i, j}) > 0.0f) ++degree;
    }
    EXPECT_GE(degree, 5);
  }
}

TEST(CorrelationTest, RecoversCorrelatedPairs) {
  // Nodes 0/1 follow one latent signal, nodes 2/3 another.
  utils::Rng rng(8);
  const int64_t t_steps = 400;
  Tensor values = Tensor::Zeros(Shape({t_steps, 4}));
  double s1 = 0.0;
  double s2 = 0.0;
  for (int64_t t = 0; t < t_steps; ++t) {
    s1 = 0.9 * s1 + rng.Normal();
    s2 = 0.9 * s2 + rng.Normal();
    values.At({t, 0}) = static_cast<float>(s1 + 0.1 * rng.Normal());
    values.At({t, 1}) = static_cast<float>(s1 + 0.1 * rng.Normal());
    values.At({t, 2}) = static_cast<float>(s2 + 0.1 * rng.Normal());
    values.At({t, 3}) = static_cast<float>(s2 + 0.1 * rng.Normal());
  }
  Tensor adj = CorrelationKnnGraph(values, 1, 400);
  EXPECT_GT(adj.At({0, 1}), 0.5f);
  EXPECT_GT(adj.At({2, 3}), 0.5f);
  EXPECT_FLOAT_EQ(adj.At({0, 0}), 0.0f);
  // Top-1 keeps exactly one entry per row.
  for (int64_t i = 0; i < 4; ++i) {
    int64_t nonzero = 0;
    for (int64_t j = 0; j < 4; ++j) {
      if (adj.At({i, j}) > 0.0f) ++nonzero;
    }
    EXPECT_EQ(nonzero, 1);
  }
}

// Property: random geometric graphs over varying sizes stay symmetric
// with zero diagonal and weights in (0, 1].
class GeometricProperty : public ::testing::TestWithParam<int64_t> {};

TEST_P(GeometricProperty, Invariants) {
  utils::Rng rng(100 + GetParam());
  SpatialGraph g = RandomGeometric(GetParam(), 0.25, 0.15, rng);
  const Tensor& a = g.adjacency;
  for (int64_t i = 0; i < g.num_nodes; ++i) {
    EXPECT_FLOAT_EQ(a.At({i, i}), 0.0f);
    for (int64_t j = i + 1; j < g.num_nodes; ++j) {
      EXPECT_FLOAT_EQ(a.At({i, j}), a.At({j, i}));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, GeometricProperty,
                         ::testing::Values(5, 17, 40, 64));

}  // namespace
}  // namespace sagdfn::graph
