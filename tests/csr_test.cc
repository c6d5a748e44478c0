// Differential coverage for the CSR diffusion kernel against the dense
// slim kernel: the scale-tier contract is byte equality, not closeness
// — the CSR step must memcmp-match the dense step at awkward node counts
// (odd, prime, shard-boundary-straddling), and the sparse generators
// must reproduce the dense generators bit for bit at any size where both
// fit.
#include "graph/csr.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "core/fused_ops.h"
#include "data/synthetic.h"
#include "graph/adjacency.h"
#include "graph/generators.h"
#include "tensor/tensor_ops.h"
#include "utils/rng.h"

namespace sagdfn::graph {
namespace {

using tensor::Shape;
using tensor::Tensor;

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
  utils::Rng rng(2);
  SpatialGraph g = RandomGeometric(60, 0.25, 0.18, rng);
  CsrMatrix a = RowNormalizeCsr(CsrFromDense(g.adjacency));
  CsrMatrix b = CsrFromDense(RowNormalize(g.adjacency));
  EXPECT_EQ(a.row_ptr, b.row_ptr);
  EXPECT_EQ(a.col, b.col);
  EXPECT_EQ(a.val, b.val);  // exact float equality is the contract
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

TEST(SparseGeneratorTest, RandomGeometricSparseMatchesDense) {
  utils::Rng rng_dense(7), rng_sparse(7);
  SpatialGraph dense = RandomGeometric(200, 0.15, 0.1, rng_dense);
  SparseSpatialGraph sparse =
      RandomGeometricSparse(200, 0.15, 0.1, rng_sparse);
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

TEST(SparseGeneratorTest, TrafficSparseMatchesDense) {
  data::TrafficOptions options;
  options.num_nodes = 80;
  options.num_days = 2;
  options.steps_per_day = 48;
  options.radius = 0.2;
  options.kernel_sigma = 0.14;
  options.seed = 9;

  SpatialGraph latent_dense;
  SparseSpatialGraph latent_sparse;
  data::TimeSeries dense = data::GenerateTraffic(options, &latent_dense);
  data::TimeSeries sparse =
      data::GenerateTrafficSparse(options, &latent_sparse);
  EXPECT_TRUE(SameBytes(sparse.values, dense.values));
  CsrMatrix want = CsrFromDense(latent_dense.adjacency);
  EXPECT_EQ(latent_sparse.adjacency.col, want.col);
  EXPECT_EQ(latent_sparse.adjacency.val, want.val);
}

TEST(TopKOverlapCsrTest, PerfectAndDisjointRecovery) {
  utils::Rng rng(11);
  SpatialGraph g = RandomGeometric(40, 0.3, 0.2, rng);
  CsrMatrix latent = CsrFromDense(g.adjacency);
  ASSERT_GT(latent.nnz(), 0);
  // The latent graph "learned" perfectly: overlap is exactly 1.
  EXPECT_DOUBLE_EQ(
      TopKOverlapCsr(latent, CsrToDense(latent), Iota(40), 5), 1.0);
  // An empty slim matrix recovers nothing on rows that have neighbors.
  const double none =
      TopKOverlapCsr(latent, Tensor::Zeros(Shape({40, 40})), Iota(40), 5);
  EXPECT_LT(none, 0.5);
}

}  // namespace
}  // namespace sagdfn::graph
