#include "graph/adjacency.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "tensor/tensor_ops.h"
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
    for (int64_t j = 0; j < m; ++j) p[i * m + j] *= inv;
  }
  return out;
}

tensor::Tensor SymmetricNormalize(const tensor::Tensor& adjacency) {
  SAGDFN_CHECK_EQ(adjacency.ndim(), 2);
  SAGDFN_CHECK_EQ(adjacency.dim(0), adjacency.dim(1));
  const int64_t n = adjacency.dim(0);
  tensor::Tensor deg = tensor::Sum(adjacency, 1, /*keepdim=*/false);
  std::vector<float> inv_sqrt(n, 0.0f);
  for (int64_t i = 0; i < n; ++i) {
    if (deg[i] > 0.0f) inv_sqrt[i] = 1.0f / std::sqrt(deg[i]);
  }
  tensor::Tensor out = adjacency.Clone();
  float* p = out.data();
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      p[i * n + j] *= inv_sqrt[i] * inv_sqrt[j];
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

double TopKOverlap(const tensor::Tensor& a, const tensor::Tensor& b,
                   int64_t k) {
  SAGDFN_CHECK(a.shape() == b.shape());
  SAGDFN_CHECK_EQ(a.ndim(), 2);
  const int64_t n = a.dim(0);
  const int64_t m = a.dim(1);
  const int64_t keep = std::min(k, m);

  auto top_k_set = [&](const float* row) {
    std::vector<int64_t> order(m);
    std::iota(order.begin(), order.end(), 0);
    std::partial_sort(order.begin(), order.begin() + keep, order.end(),
                      [row](int64_t x, int64_t y) { return row[x] > row[y]; });
    order.resize(keep);
    std::sort(order.begin(), order.end());
    return order;
  };

  double total = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    std::vector<int64_t> sa = top_k_set(a.data() + i * m);
    std::vector<int64_t> sb = top_k_set(b.data() + i * m);
    std::vector<int64_t> inter;
    std::set_intersection(sa.begin(), sa.end(), sb.begin(), sb.end(),
                          std::back_inserter(inter));
    const double uni = static_cast<double>(sa.size() + sb.size()) -
                       static_cast<double>(inter.size());
    total += uni > 0 ? inter.size() / uni : 1.0;
  }
  return total / n;
}

}  // namespace sagdfn::graph
