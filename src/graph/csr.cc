#include "graph/csr.h"

#include <algorithm>
#include <cmath>

#include "utils/check.h"

namespace sagdfn::graph {

CsrMatrix CsrFromDense(const tensor::Tensor& dense) {
  SAGDFN_CHECK_EQ(dense.ndim(), 2);
  CsrMatrix csr;
  csr.rows = dense.dim(0);
  csr.cols = dense.dim(1);
  csr.row_ptr.resize(static_cast<size_t>(csr.rows) + 1, 0);
  const float* d = dense.data();
  int64_t nnz = 0;
  for (int64_t i = 0; i < csr.rows; ++i) {
    const float* row = d + i * csr.cols;
    for (int64_t j = 0; j < csr.cols; ++j) {
      if (row[j] != 0.0f) ++nnz;
    }
    csr.row_ptr[static_cast<size_t>(i) + 1] = nnz;
  }
  csr.col.reserve(static_cast<size_t>(nnz));
  csr.val.reserve(static_cast<size_t>(nnz));
  for (int64_t i = 0; i < csr.rows; ++i) {
    const float* row = d + i * csr.cols;
    for (int64_t j = 0; j < csr.cols; ++j) {
      if (row[j] != 0.0f) {
        csr.col.push_back(static_cast<int32_t>(j));
        csr.val.push_back(row[j]);
      }
    }
  }
  return csr;
}

tensor::Tensor CsrToDense(const CsrMatrix& csr) {
  ValidateCsr(csr);
  tensor::Tensor dense = tensor::Tensor::Zeros(
      tensor::Shape({csr.rows, csr.cols}));
  float* d = dense.data();
  for (int64_t i = 0; i < csr.rows; ++i) {
    for (int64_t e = csr.row_ptr[i]; e < csr.row_ptr[i + 1]; ++e) {
      d[i * csr.cols + csr.col[e]] = csr.val[e];
    }
  }
  return dense;
}

void ValidateCsr(const CsrMatrix& csr) {
  SAGDFN_CHECK_GE(csr.rows, 0);
  SAGDFN_CHECK_GE(csr.cols, 0);
  SAGDFN_CHECK_EQ(static_cast<int64_t>(csr.row_ptr.size()), csr.rows + 1);
  SAGDFN_CHECK_EQ(csr.row_ptr.front(), 0);
  SAGDFN_CHECK_EQ(csr.row_ptr.back(), csr.nnz());
  SAGDFN_CHECK_EQ(csr.col.size(), csr.val.size());
  for (int64_t i = 0; i < csr.rows; ++i) {
    SAGDFN_CHECK_LE(csr.row_ptr[i], csr.row_ptr[i + 1])
        << "row_ptr must be non-decreasing at row " << i;
    for (int64_t e = csr.row_ptr[i]; e < csr.row_ptr[i + 1]; ++e) {
      SAGDFN_CHECK_GE(csr.col[e], 0);
      SAGDFN_CHECK_LT(csr.col[e], csr.cols);
      if (e > csr.row_ptr[i]) {
        SAGDFN_CHECK_LT(csr.col[e - 1], csr.col[e])
            << "columns must be strictly ascending in row " << i;
      }
    }
  }
}

CsrMatrix RowNormalizeCsr(const CsrMatrix& csr) {
  CsrMatrix out = csr;
  for (int64_t i = 0; i < csr.rows; ++i) {
    double row_sum = 0.0;
    for (int64_t e = csr.row_ptr[i]; e < csr.row_ptr[i + 1]; ++e) {
      row_sum += csr.val[e];
    }
    if (row_sum <= 0.0) continue;
    const float inv = static_cast<float>(1.0 / row_sum);
    for (int64_t e = csr.row_ptr[i]; e < csr.row_ptr[i + 1]; ++e) {
      // A row sum below 1 / FLT_MAX has no finite float reciprocal; such
      // a row divides in double instead (same rule as RowNormalize).
      out.val[e] = std::isfinite(inv)
                       ? out.val[e] * inv
                       : static_cast<float>(out.val[e] / row_sum);
    }
  }
  return out;
}

NodeShards ComputeNodeShards(int64_t num_nodes, int64_t bytes_per_row,
                             int64_t target_shard_bytes) {
  SAGDFN_CHECK_GE(num_nodes, 0);
  SAGDFN_CHECK_GT(bytes_per_row, 0);
  SAGDFN_CHECK_GT(target_shard_bytes, 0);
  NodeShards shards;
  if (num_nodes == 0) {
    shards.bounds = {0, 0};
    return shards;
  }
  int64_t rows = target_shard_bytes / bytes_per_row;
  // Round down to a multiple of 8 rows so shard boundaries stay friendly
  // to 8-wide SIMD row groups; floor at 8 so tiny L2 targets still make
  // progress.
  rows = std::max<int64_t>(8, rows - rows % 8);
  shards.bounds.push_back(0);
  for (int64_t b = rows; b < num_nodes; b += rows) {
    shards.bounds.push_back(b);
  }
  shards.bounds.push_back(num_nodes);
  return shards;
}

double TopKOverlapCsr(const CsrMatrix& latent, const tensor::Tensor& slim,
                      const std::vector<int64_t>& index_set, int64_t k) {
  SAGDFN_CHECK_EQ(slim.ndim(), 2);
  const int64_t n = slim.dim(0);
  const int64_t m = slim.dim(1);
  SAGDFN_CHECK_EQ(latent.rows, n);
  SAGDFN_CHECK_EQ(static_cast<int64_t>(index_set.size()), m);
  SAGDFN_CHECK_GT(k, 0);
  const float* s = slim.data();

  double total = 0.0;
  std::vector<std::pair<float, int64_t>> scored;
  std::vector<int64_t> a_top, b_top, inter;
  for (int64_t i = 0; i < n; ++i) {
    // Learned side: top-k slim entries mapped to global node ids.
    scored.clear();
    for (int64_t j = 0; j < m; ++j) {
      if (s[i * m + j] != 0.0f) scored.push_back({s[i * m + j], index_set[j]});
    }
    const int64_t ka = std::min<int64_t>(k, scored.size());
    std::partial_sort(scored.begin(), scored.begin() + ka, scored.end(),
                      [](const auto& x, const auto& y) {
                        return x.first > y.first ||
                               (x.first == y.first && x.second < y.second);
                      });
    a_top.clear();
    for (int64_t j = 0; j < ka; ++j) a_top.push_back(scored[j].second);

    // Latent side: top-k neighbors by weight from the CSR row.
    scored.clear();
    for (int64_t e = latent.row_ptr[i]; e < latent.row_ptr[i + 1]; ++e) {
      scored.push_back({latent.val[e], latent.col[e]});
    }
    const int64_t kb = std::min<int64_t>(k, scored.size());
    std::partial_sort(scored.begin(), scored.begin() + kb, scored.end(),
                      [](const auto& x, const auto& y) {
                        return x.first > y.first ||
                               (x.first == y.first && x.second < y.second);
                      });
    b_top.clear();
    for (int64_t j = 0; j < kb; ++j) b_top.push_back(scored[j].second);

    if (a_top.empty() && b_top.empty()) {
      total += 1.0;
      continue;
    }
    std::sort(a_top.begin(), a_top.end());
    std::sort(b_top.begin(), b_top.end());
    inter.clear();
    std::set_intersection(a_top.begin(), a_top.end(), b_top.begin(),
                          b_top.end(), std::back_inserter(inter));
    const double uni = static_cast<double>(a_top.size() + b_top.size()) -
                       static_cast<double>(inter.size());
    total += uni > 0 ? static_cast<double>(inter.size()) / uni : 1.0;
  }
  return n > 0 ? total / static_cast<double>(n) : 1.0;
}

}  // namespace sagdfn::graph
