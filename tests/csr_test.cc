// Differential coverage for the CSR diffusion kernel against the dense
// slim kernel: the scale-tier contract is byte equality, not closeness
// — the CSR step must memcmp-match the dense step at awkward node counts
// (odd, prime, shard-boundary-straddling), and the sparse latent-graph
// generator and the traffic series built on it must reproduce the dense
// pair-scan reference (tests/test_support.h) bit for bit at any size
// where the dense graph fits.
#include "graph/csr.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "core/fused_ops.h"
#include "data/registry.h"
#include "data/synthetic.h"
#include "graph/adjacency.h"
#include "graph/generators.h"
#include "tensor/tensor_ops.h"
#include "test_support.h"
#include "utils/rng.h"

namespace sagdfn::graph {
namespace {

using tensor::Shape;
using tensor::Tensor;
using test_support::RandomGeometric;
using test_support::SpatialGraph;

bool SameBytes(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

std::vector<int64_t> Iota(int64_t m) {
  std::vector<int64_t> v(m);
  for (int64_t i = 0; i < m; ++i) v[i] = i;
  return v;
}

// A slim-style [n, k] adjacency with ~`density` nonzero entries (the
// rest exactly 0.0f, which is what the dense kernel skips).
Tensor SparseSlim(int64_t n, int64_t k, double density, utils::Rng& rng) {
  Tensor a = Tensor::Zeros(Shape({n, k}));
  float* p = a.data();
  for (int64_t i = 0; i < n * k; ++i) {
    if (rng.Uniform() < density) {
      p[i] = static_cast<float>(rng.Uniform(0.05, 1.0));
    }
  }
  return a;
}

TEST(CsrMatrixTest, DenseRoundTrip) {
  utils::Rng rng(1);
  Tensor dense = SparseSlim(13, 7, 0.3, rng);
  CsrMatrix csr = CsrFromDense(dense);
  ValidateCsr(csr);
  EXPECT_TRUE(SameBytes(CsrToDense(csr), dense));
}

TEST(CsrMatrixTest, RowNormalizeMatchesDensePath) {
  // The second graph has a row whose only weight is ~1e-44: its row sum
  // has no finite float reciprocal.
  utils::Rng rng_a(2), rng_b(9);
  for (const SpatialGraph& g : {RandomGeometric(60, 0.25, 0.18, rng_a),
                                RandomGeometric(24, 0.5, 0.02, rng_b)}) {
    CsrMatrix a = RowNormalizeCsr(CsrFromDense(g.adjacency));
    CsrMatrix b = CsrFromDense(RowNormalize(g.adjacency));
    EXPECT_EQ(a.row_ptr, b.row_ptr);
    EXPECT_EQ(a.col, b.col);
    EXPECT_EQ(a.val, b.val);  // exact float equality is the contract
    for (float v : a.val) EXPECT_TRUE(std::isfinite(v)) << v;
  }
}

TEST(NodeShardsTest, PartitionInvariants) {
  for (int64_t n : {1, 7, 8, 9, 57, 101, 1000}) {
    for (int64_t target : {64, 4096, 256 * 1024}) {
      NodeShards shards = ComputeNodeShards(n, 16, target);
      ASSERT_GE(shards.count(), 1);
      EXPECT_EQ(shards.begin(0), 0);
      EXPECT_EQ(shards.end(shards.count() - 1), n);
      for (int64_t s = 0; s < shards.count(); ++s) {
        EXPECT_LT(shards.begin(s), shards.end(s));
        if (s + 1 < shards.count()) {
          EXPECT_EQ(shards.end(s), shards.begin(s + 1));
          EXPECT_EQ((shards.end(s) - shards.begin(s)) % 8, 0)
              << "non-terminal shards are multiples of 8 rows";
        }
      }
    }
  }
}

TEST(CsrKernelTest, ForwardMatchesDenseAtAwkwardSizes) {
  utils::Rng rng(3);
  // Odd, prime, and shard-straddling node counts; k likewise awkward.
  const int64_t kCases[][2] = {{7, 3}, {13, 13}, {101, 5}, {130, 17}};
  for (const auto& c : kCases) {
    const int64_t n = c[0], k = c[1], batch = 2, ch = 3;
    Tensor a = SparseSlim(n, k, 0.4, rng);
    Tensor term = Tensor::Normal(Shape({batch, n, ch}), rng);
    Tensor inv = Tensor::Uniform(Shape({n, 1}), rng);
    std::vector<int64_t> index_set(k);
    for (int64_t j = 0; j < k; ++j) index_set[j] = (j * 7 + 1) % n;

    Tensor want = Tensor::Zeros(Shape({batch, n, ch}));
    core::OneStepFastGConvInto(a.data(), term.data(), inv.data(), index_set,
                               batch, n, ch, want.data());

    CsrMatrix csr = CsrFromDense(a);
    // A tiny shard target forces many 8-row shards (the last one short),
    // exercising boundary straddling; the full-size target gives one
    // shard. Both must be bit-identical to dense.
    for (int64_t target : {64, 256 * 1024}) {
      NodeShards shards = ComputeNodeShards(
          n, ch * static_cast<int64_t>(sizeof(float)), target);
      Tensor got = Tensor::Zeros(Shape({batch, n, ch}));
      core::OneStepFastGConvCsrInto(csr, term.data(), inv.data(), index_set,
                                    shards, batch, n, ch, got.data());
      EXPECT_TRUE(SameBytes(got, want))
          << "n=" << n << " k=" << k << " target=" << target;
    }
  }
}

// Graph shapes for the parity tests. The last three have radius >= 20
// sigma: most in-radius pairs get a weight that rounds to 0.0f, which
// the sparse generator must not store (the dense reference holds them
// as plain zeros). At 24 nodes (seed 9) and sigma 0.025 one node has
// in-radius neighbors but no nonzero weight, so its transition row must
// stay empty for the field step to keep its own state; at sigma 0.02
// one row holds a single denormal weight (~1e-44), whose row sum has no
// finite float reciprocal, and both normalizers must still give it a
// finite row.
struct GraphShape {
  int64_t nodes;
  double radius;
  double sigma;
};
constexpr GraphShape kShapes[] = {{200, 0.15, 0.1}, {100, 0.5, 0.02},
                                  {24, 0.5, 0.025}, {24, 0.5, 0.02}};

TEST(SparseGeneratorTest, RandomGeometricSparseMatchesDense) {
  for (const GraphShape& shape : kShapes) {
    SCOPED_TRACE(shape.nodes);
    utils::Rng rng_dense(7), rng_sparse(7);
    SpatialGraph dense =
        RandomGeometric(shape.nodes, shape.radius, shape.sigma, rng_dense);
    SparseSpatialGraph sparse = RandomGeometricSparse(
        shape.nodes, shape.radius, shape.sigma, rng_sparse);
    EXPECT_EQ(sparse.x, dense.x);
    EXPECT_EQ(sparse.y, dense.y);
    CsrMatrix want = CsrFromDense(dense.adjacency);
    ValidateCsr(sparse.adjacency);
    EXPECT_EQ(sparse.adjacency.row_ptr, want.row_ptr);
    EXPECT_EQ(sparse.adjacency.col, want.col);
    EXPECT_EQ(sparse.adjacency.val, want.val);
    EXPECT_GT(sparse.adjacency.nnz(), 0);
    // The two rngs must also leave off at the same point.
    EXPECT_EQ(rng_sparse.Uniform(), rng_dense.Uniform());
  }
}

TEST(SparseGeneratorTest, TrafficSparseMatchesDense) {
  for (const GraphShape& shape : kShapes) {
    SCOPED_TRACE(shape.nodes);
    data::TrafficOptions options;
    options.num_nodes = shape.nodes;
    options.num_days = 2;
    options.steps_per_day = 48;
    options.radius = shape.radius;
    options.kernel_sigma = shape.sigma;
    options.seed = 9;

    SpatialGraph latent_dense;
    SparseSpatialGraph latent_sparse;
    data::TimeSeries dense =
        test_support::GenerateTrafficDense(options, &latent_dense);
    data::TimeSeries sparse = data::GenerateTraffic(options, &latent_sparse);
    EXPECT_TRUE(SameBytes(sparse.values, dense.values));
    EXPECT_FALSE(tensor::HasNonFinite(sparse.values));
    CsrMatrix want = CsrFromDense(latent_dense.adjacency);
    EXPECT_EQ(latent_sparse.adjacency.col, want.col);
    EXPECT_EQ(latent_sparse.adjacency.val, want.val);
  }
}

// Every registered traffic dataset is the series the dense reference
// generates from the same options, byte for byte.
TEST(SparseGeneratorTest, RegisteredDatasetsMatchDenseReference) {
  const std::pair<const char*, data::DatasetScale> kCases[] = {
      {"metr-la-sim", data::DatasetScale::kQuick},
      {"london2000-sim", data::DatasetScale::kQuick},
      {"newyork2000-sim", data::DatasetScale::kQuick},
      {"metr-la-sim", data::DatasetScale::kFull}};
  for (const auto& [name, scale] : kCases) {
    SCOPED_TRACE(name);
    SparseSpatialGraph latent;
    data::TimeSeries got = data::MakeDataset(name, scale, &latent);
    data::TimeSeries want = test_support::GenerateTrafficDense(
        data::TrafficDatasetOptions(name, scale));
    EXPECT_EQ(got.name, want.name);
    EXPECT_EQ(got.steps_per_day, want.steps_per_day);
    EXPECT_TRUE(SameBytes(got.values, want.values));
    EXPECT_GT(latent.adjacency.nnz(), 0);
  }
}

TEST(TopKOverlapCsrTest, PerfectAndDisjointRecovery) {
  utils::Rng rng(11);
  CsrMatrix latent = RandomGeometricSparse(40, 0.3, 0.2, rng).adjacency;
  ASSERT_GT(latent.nnz(), 0);
  // The latent graph "learned" perfectly: overlap is exactly 1.
  EXPECT_DOUBLE_EQ(
      TopKOverlapCsr(latent, CsrToDense(latent), Iota(40), 5), 1.0);
  // An empty slim matrix recovers nothing on rows that have neighbors.
  const double none =
      TopKOverlapCsr(latent, Tensor::Zeros(Shape({40, 40})), Iota(40), 5);
  EXPECT_LT(none, 0.5);
}

// A learned adjacency scored against itself recovers every row: dense
// [N, N] weights as the latent CSR, and as a slim matrix over all N
// columns (the identity index set).
TEST(TopKOverlapCsrTest, SelfOverlapIsOne) {
  utils::Rng rng(2);
  Tensor a = Tensor::Uniform(Shape({10, 10}), rng);
  EXPECT_DOUBLE_EQ(TopKOverlapCsr(CsrFromDense(a), a, Iota(10), 3), 1.0);
}

// Slim columns map to global ids through the index set: a slim matrix
// whose column j holds the latent weight of node index_set[j] recovers
// the latent top-k exactly when every latent top-k neighbor is in I.
TEST(TopKOverlapCsrTest, MapsSlimColumnsThroughIndexSet) {
  // Node i's neighbors are i+1 and i+2 (mod 6), weights 0.9 and 0.5.
  Tensor dense = Tensor::Zeros(Shape({6, 6}));
  for (int64_t i = 0; i < 6; ++i) {
    dense.At({i, (i + 1) % 6}) = 0.9f;
    dense.At({i, (i + 2) % 6}) = 0.5f;
  }
  const CsrMatrix latent = CsrFromDense(dense);
  const std::vector<int64_t> index_set = {5, 4, 3, 2, 1, 0};
  Tensor slim = Tensor::Zeros(Shape({6, 6}));
  for (int64_t i = 0; i < 6; ++i) {
    for (int64_t j = 0; j < 6; ++j) {
      slim.At({i, j}) = dense.At({i, index_set[j]});
    }
  }
  EXPECT_DOUBLE_EQ(TopKOverlapCsr(latent, slim, index_set, 2), 1.0);
  // Read without the mapping, the same slim matrix recovers less.
  EXPECT_LT(TopKOverlapCsr(latent, slim, Iota(6), 2), 1.0);
}

}  // namespace
}  // namespace sagdfn::graph
