#include "graph/adjacency.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "utils/check.h"

namespace sagdfn::graph {

tensor::Tensor RowNormalize(const tensor::Tensor& adjacency) {
  SAGDFN_CHECK_EQ(adjacency.ndim(), 2);
  const int64_t n = adjacency.dim(0);
  const int64_t m = adjacency.dim(1);
  tensor::Tensor out = adjacency.Clone();
  float* p = out.data();
  for (int64_t i = 0; i < n; ++i) {
    double row_sum = 0.0;
    for (int64_t j = 0; j < m; ++j) row_sum += p[i * m + j];
    if (row_sum <= 0.0) continue;
    const float inv = static_cast<float>(1.0 / row_sum);
    for (int64_t j = 0; j < m; ++j) {
      // A row sum below 1 / FLT_MAX has no finite float reciprocal (and
      // 0 * inf is NaN); such a row divides in double instead.
      p[i * m + j] = std::isfinite(inv)
                         ? p[i * m + j] * inv
                         : static_cast<float>(p[i * m + j] / row_sum);
    }
  }
  return out;
}

tensor::Tensor TopKPerRow(const tensor::Tensor& adjacency, int64_t k) {
  SAGDFN_CHECK_EQ(adjacency.ndim(), 2);
  SAGDFN_CHECK_GT(k, 0);
  const int64_t n = adjacency.dim(0);
  const int64_t m = adjacency.dim(1);
  tensor::Tensor out = tensor::Tensor::Zeros(adjacency.shape());
  const float* pin = adjacency.data();
  float* pout = out.data();
  std::vector<int64_t> order(m);
  for (int64_t i = 0; i < n; ++i) {
    const float* row = pin + i * m;
    std::iota(order.begin(), order.end(), 0);
    const int64_t keep = std::min(k, m);
    std::partial_sort(order.begin(), order.begin() + keep, order.end(),
                      [row](int64_t a, int64_t b) { return row[a] > row[b]; });
    for (int64_t j = 0; j < keep; ++j) {
      pout[i * m + order[j]] = row[order[j]];
    }
  }
  return out;
}

double Sparsity(const tensor::Tensor& adjacency) {
  SAGDFN_CHECK_GT(adjacency.size(), 0);
  int64_t zeros = 0;
  const float* p = adjacency.data();
  for (int64_t i = 0; i < adjacency.size(); ++i) {
    if (p[i] == 0.0f) ++zeros;
  }
  return static_cast<double>(zeros) / adjacency.size();
}

}  // namespace sagdfn::graph
