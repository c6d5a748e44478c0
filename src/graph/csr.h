#ifndef SAGDFN_GRAPH_CSR_H_
#define SAGDFN_GRAPH_CSR_H_

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace sagdfn::graph {

/// Compressed-sparse-row view of an adjacency matrix (dense [rows, cols]
/// with most entries exactly zero — e.g. the slim N x M adjacency after
/// entmax, or a latent generator graph at N >= 10k where a dense [N, N]
/// tensor would not fit in memory).
///
/// Invariants (checked by CsrFromDense / Validate):
///   - row_ptr has rows + 1 entries, non-decreasing, row_ptr[0] == 0 and
///     row_ptr[rows] == col.size() == val.size()
///   - columns within a row are strictly ascending
///   - stored values are the nonzero entries in row-major order, so a
///     kernel walking CSR nonzeros visits exactly the entries the dense
///     slim kernel visits (it skips av == 0.0f), in the same order —
///     which is what makes the CSR diffusion path byte-identical to the
///     dense path.
struct CsrMatrix {
  int64_t rows = 0;
  int64_t cols = 0;
  std::vector<int64_t> row_ptr;  // rows + 1 offsets into col/val
  std::vector<int32_t> col;      // ascending within each row
  std::vector<float> val;

  int64_t nnz() const { return static_cast<int64_t>(col.size()); }
  bool empty() const { return rows == 0; }
};

/// Builds a CSR matrix from a dense [rows, cols] tensor, dropping entries
/// that are exactly 0.0f (matching the dense diffusion kernel's skip).
CsrMatrix CsrFromDense(const tensor::Tensor& dense);

/// Expands back to a dense [rows, cols] tensor (testing / small N only).
tensor::Tensor CsrToDense(const CsrMatrix& csr);

/// Aborts via SAGDFN_CHECK if `csr` violates a CSR invariant.
void ValidateCsr(const CsrMatrix& csr);

/// Row-normalizes a CSR matrix into a random-walk transition matrix.
/// Bit-compatible with the dense path (RowNormalize then CsrFromDense):
/// the row sum accumulates the stored values in column order in double —
/// identical to the dense double accumulation, since adding the skipped
/// exact zeros changes nothing — and each value is scaled by the same
/// float(1.0 / row_sum), or divided by the row sum in double when that
/// reciprocal is not finite. Rows with a non-positive sum are left
/// untouched.
CsrMatrix RowNormalizeCsr(const CsrMatrix& csr);

/// Cache-aware partition of [0, num_nodes) into contiguous node blocks.
/// Shard s owns rows [bounds[s], bounds[s+1]); shards are sized so one
/// shard's output rows (~bytes_per_row each) fit in a slice of L2, and
/// parallel kernels assign each (batch, shard) pair to one task — writes
/// are disjoint, so the result is bit-identical for any thread count.
struct NodeShards {
  std::vector<int64_t> bounds;  // size count() + 1; bounds.front() == 0

  int64_t count() const { return static_cast<int64_t>(bounds.size()) - 1; }
  int64_t begin(int64_t s) const { return bounds[s]; }
  int64_t end(int64_t s) const { return bounds[s + 1]; }
};

/// Partitions `num_nodes` rows into shards of ~`target_shard_bytes`
/// (default 256 KiB, a comfortable L2 slice) given `bytes_per_row` of
/// kernel working set. Always returns at least one shard; shard sizes
/// are multiples of 8 rows except the last.
NodeShards ComputeNodeShards(int64_t num_nodes, int64_t bytes_per_row,
                             int64_t target_shard_bytes = 256 * 1024);

/// Mean row-wise Jaccard overlap between the latent graph's neighbor sets
/// (CSR, over global node ids) and a learned slim adjacency whose columns
/// are global ids via `index_set` (col j of `slim` refers to node
/// index_set[j]). For each row, the learned top-k slim entries are mapped
/// to global ids and compared against the latent row's top-k by weight
/// (ties broken by the lower id). This is the one graph-recovery metric:
/// it never densifies either side, so it runs at every N.
double TopKOverlapCsr(const CsrMatrix& latent, const tensor::Tensor& slim,
                      const std::vector<int64_t>& index_set, int64_t k);

}  // namespace sagdfn::graph

#endif  // SAGDFN_GRAPH_CSR_H_
