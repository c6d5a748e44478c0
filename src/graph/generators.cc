#include "graph/generators.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "utils/check.h"

namespace sagdfn::graph {

SparseSpatialGraph RandomGeometricSparse(int64_t num_nodes, double radius,
                                         double sigma, utils::Rng& rng) {
  SAGDFN_CHECK_GT(num_nodes, 0);
  SAGDFN_CHECK_LE(num_nodes, std::numeric_limits<int32_t>::max());
  SAGDFN_CHECK_GT(radius, 0.0);
  SAGDFN_CHECK_GT(sigma, 0.0);
  SparseSpatialGraph g;
  g.num_nodes = num_nodes;
  g.x.resize(num_nodes);
  g.y.resize(num_nodes);
  for (int64_t i = 0; i < num_nodes; ++i) {
    g.x[i] = rng.Uniform();
    g.y[i] = rng.Uniform();
  }
  const int64_t cells = std::max<int64_t>(
      1, static_cast<int64_t>(std::floor(1.0 / radius)));
  auto cell_of = [cells](double v) {
    return std::clamp<int64_t>(static_cast<int64_t>(v * cells), 0,
                               cells - 1);
  };
  std::vector<std::vector<int32_t>> buckets(cells * cells);
  for (int64_t i = 0; i < num_nodes; ++i) {
    buckets[cell_of(g.x[i]) * cells + cell_of(g.y[i])].push_back(
        static_cast<int32_t>(i));
  }
  const double r2 = radius * radius;
  const double inv_s2 = 1.0 / (sigma * sigma);
  CsrMatrix& adj = g.adjacency;
  adj.rows = num_nodes;
  adj.cols = num_nodes;
  adj.row_ptr.assign(num_nodes + 1, 0);
  std::vector<std::pair<int32_t, float>> row;
  for (int64_t i = 0; i < num_nodes; ++i) {
    row.clear();
    const int64_t cx = cell_of(g.x[i]);
    const int64_t cy = cell_of(g.y[i]);
    const int64_t bx_end = std::min<int64_t>(cells - 1, cx + 1);
    const int64_t by_end = std::min<int64_t>(cells - 1, cy + 1);
    for (int64_t bx = std::max<int64_t>(0, cx - 1); bx <= bx_end; ++bx) {
      for (int64_t by = std::max<int64_t>(0, cy - 1); by <= by_end; ++by) {
        for (int32_t j : buckets[bx * cells + by]) {
          if (j == i) continue;
          // (x_i - x_j)^2 == (x_j - x_i)^2 bitwise, so both edge
          // directions get the same weight.
          const double dx = g.x[i] - g.x[j];
          const double dy = g.y[i] - g.y[j];
          const double d2 = dx * dx + dy * dy;
          if (d2 > r2) continue;
          const float w = static_cast<float>(std::exp(-d2 * inv_s2));
          if (w != 0.0f) row.emplace_back(j, w);
        }
      }
    }
    std::sort(row.begin(), row.end());
    for (const auto& [j, w] : row) {
      adj.col.push_back(j);
      adj.val.push_back(w);
    }
    adj.row_ptr[i + 1] = static_cast<int64_t>(adj.col.size());
  }
  return g;
}

}  // namespace sagdfn::graph
