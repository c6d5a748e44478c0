#include "data/synthetic.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "graph/csr.h"
#include "utils/check.h"
#include "utils/rng.h"

namespace sagdfn::data {
namespace {

// AR(1) persistence and innovation scale (logit units) of each carpark
// cluster's correlated fluctuation.
constexpr double kCarparkClusterRho = 0.9;
constexpr double kCarparkClusterStd = 0.15;

double GaussianBump(double t, double center, double width) {
  const double d = t - center;
  return std::exp(-0.5 * d * d / (width * width));
}

}  // namespace

TimeSeries GenerateTraffic(const TrafficOptions& options,
                           graph::SparseSpatialGraph* latent_graph) {
  SAGDFN_CHECK_GT(options.num_nodes, 0);
  SAGDFN_CHECK_GT(options.num_days, 0);
  SAGDFN_CHECK_GT(options.steps_per_day, 0);
  SAGDFN_CHECK_GE(options.spatial_rho, 0.0);
  SAGDFN_CHECK_LT(options.spatial_rho, 1.0);
  const int64_t n = options.num_nodes;
  const int64_t total = options.num_days * options.steps_per_day;

  utils::Rng rng(options.seed);
  graph::SparseSpatialGraph g = graph::RandomGeometricSparse(
      n, options.radius, options.kernel_sigma, rng);
  // Random-walk transition matrix of the latent graph: the field step
  // walks its nonzeros, O(E) per step.
  const graph::CsrMatrix p = graph::RowNormalizeCsr(g.adjacency);

  // Per-sensor regime.
  std::vector<double> base(n);
  std::vector<double> amp_morning(n);
  std::vector<double> amp_evening(n);
  std::vector<double> phase_morning(n);
  std::vector<double> phase_evening(n);
  for (int64_t i = 0; i < n; ++i) {
    base[i] = rng.Uniform(55.0, 68.0);
    amp_morning[i] = rng.Uniform(10.0, 25.0);
    amp_evening[i] = rng.Uniform(8.0, 22.0);
    phase_morning[i] = 8.0 / 24.0 + rng.Uniform(-0.03, 0.03);
    phase_evening[i] = 17.5 / 24.0 + rng.Uniform(-0.03, 0.03);
  }

  TimeSeries series;
  series.name = options.name;
  series.steps_per_day = options.steps_per_day;
  series.values = tensor::Tensor::Zeros(tensor::Shape({total, n}));
  float* out = series.values.data();

  std::vector<double> w(n, 0.0);
  std::vector<double> w_next(n, 0.0);
  const double rho = options.spatial_rho;
  const double bump_width = 1.3 / 24.0;

  for (int64_t t = 0; t < total; ++t) {
    const double tod =
        static_cast<double>(t % options.steps_per_day) /
        options.steps_per_day;
    const bool weekend = ((t / options.steps_per_day) % 7) >= 5;
    const double day_scale = weekend ? kWeekendRushFactor : 1.0;

    // Latent field step: w <- rho * P w + innovations (+ shocks). An
    // isolated node (empty row) keeps its own state.
    for (int64_t i = 0; i < n; ++i) {
      double diffused = 0.0;
      const int64_t row_begin = p.row_ptr[i];
      const int64_t row_end = p.row_ptr[i + 1];
      if (row_begin != row_end) {
        for (int64_t e = row_begin; e < row_end; ++e) {
          diffused += p.val[e] * w[p.col[e]];
        }
      } else {
        diffused = w[i];
      }
      double v = rho * diffused + rng.Normal(0.0, options.innovation_std);
      if (rng.Bernoulli(options.event_rate)) {
        v -= rng.Uniform(0.5, 1.5) * options.event_magnitude;
      }
      w_next[i] = v;
    }
    std::swap(w, w_next);

    for (int64_t i = 0; i < n; ++i) {
      const double rush =
          amp_morning[i] * GaussianBump(tod, phase_morning[i], bump_width) +
          amp_evening[i] * GaussianBump(tod, phase_evening[i], bump_width);
      double speed = base[i] - day_scale * rush + 3.0 * w[i] +
                     rng.Normal(0.0, options.noise_std);
      out[t * n + i] =
          static_cast<float>(std::clamp(speed, 3.0, 80.0));
    }
  }

  if (latent_graph != nullptr) *latent_graph = std::move(g);
  return series;
}

TimeSeries GenerateCarpark(const CarparkOptions& options,
                           std::vector<int64_t>* cluster_of) {
  SAGDFN_CHECK_GT(options.num_nodes, 0);
  SAGDFN_CHECK_GT(options.num_clusters, 0);

  utils::Rng rng(options.seed);
  const int64_t n = options.num_nodes;
  const int64_t k = options.num_clusters;
  const int64_t total = options.num_days * options.steps_per_day;

  // Cluster assignment; even clusters are "business" (full by day),
  // odd clusters "residential" (full by night).
  std::vector<int64_t> clusters(n);
  for (int64_t i = 0; i < n; ++i) clusters[i] = i % k;
  rng.Shuffle(clusters);

  std::vector<double> capacity(n);
  std::vector<double> offset(n);
  for (int64_t i = 0; i < n; ++i) {
    capacity[i] = static_cast<double>(
        rng.UniformInt(kCarparkMinCapacity, kCarparkMaxCapacity + 1));
    offset[i] = rng.Uniform(-0.4, 0.4);
  }

  TimeSeries series;
  series.name = options.name;
  series.steps_per_day = options.steps_per_day;
  series.values = tensor::Tensor::Zeros(tensor::Shape({total, n}));
  float* out = series.values.data();

  std::vector<double> cluster_state(k, 0.0);
  for (int64_t t = 0; t < total; ++t) {
    const double tod =
        static_cast<double>(t % options.steps_per_day) /
        options.steps_per_day;
    const bool weekend = ((t / options.steps_per_day) % 7) >= 5;
    // Business occupancy peaks around 13:00; residential around 02:00.
    const double business =
        (weekend ? 0.4 : 1.0) * GaussianBump(tod, 13.0 / 24.0, 3.0 / 24.0);
    const double residential =
        GaussianBump(tod, 2.0 / 24.0, 4.0 / 24.0) +
        GaussianBump(tod, 26.0 / 24.0, 4.0 / 24.0);  // wraps past midnight

    for (int64_t c = 0; c < k; ++c) {
      cluster_state[c] = kCarparkClusterRho * cluster_state[c] +
                         rng.Normal(0.0, kCarparkClusterStd);
    }

    for (int64_t i = 0; i < n; ++i) {
      const int64_t c = clusters[i];
      const double daily = (c % 2 == 0) ? business : residential;
      const double logit =
          -0.8 + 2.6 * daily + offset[i] + cluster_state[c];
      const double occupancy_frac = 1.0 / (1.0 + std::exp(-logit));
      double available =
          capacity[i] * (1.0 - occupancy_frac) +
          rng.Normal(0.0, options.noise_std);
      available = std::clamp(available, 0.0, capacity[i]);
      out[t * n + i] = static_cast<float>(std::round(available));
    }
  }

  if (cluster_of != nullptr) *cluster_of = std::move(clusters);
  return series;
}

}  // namespace sagdfn::data
