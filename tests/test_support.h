#ifndef SAGDFN_TESTS_TEST_SUPPORT_H_
#define SAGDFN_TESTS_TEST_SUPPORT_H_

// Helpers shared by the test binaries. Header-only, because each test
// binary is built from its one .cc file.

#include <stdlib.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "data/time_series.h"
#include "graph/adjacency.h"
#include "graph/csr.h"
#include "tensor/tensor.h"
#include "utils/check.h"
#include "utils/rng.h"

namespace sagdfn::test_support {

namespace internal {

/// A directory private to this process: made with mkdtemp under gtest's
/// TempDir() on first use, removed with everything in it at exit.
class PrivateTempDir {
 public:
  PrivateTempDir() : owner_pid_(getpid()) {
    std::string base = ::testing::TempDir();
    if (base.empty() || base.back() != '/') base += '/';
    std::string pattern = base + "sagdfn_test_XXXXXX";
    SAGDFN_CHECK(mkdtemp(pattern.data()) != nullptr)
        << "mkdtemp failed for " << pattern;
    path_ = pattern;
  }

  ~PrivateTempDir() {
    // A forked death-test child that exits normally must leave its
    // parent's files alone.
    if (getpid() != owner_pid_) return;
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }

  PrivateTempDir(const PrivateTempDir&) = delete;
  PrivateTempDir& operator=(const PrivateTempDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  pid_t owner_pid_;
  std::string path_;
};

}  // namespace internal

/// `name` inside this process's private temp directory. Two test
/// processes never share a path, so concurrent runs of one suite (two
/// ctest invocations, a sanitizer script beside ctest) cannot collide on
/// a file that one rewrites while the other maps it.
inline std::string TempPath(const std::string& name) {
  static internal::PrivateTempDir dir;
  return dir.path() + "/" + name;
}

/// A random geometric graph with a dense [N, N] adjacency: the parity
/// reference for graph::RandomGeometricSparse.
struct SpatialGraph {
  int64_t num_nodes = 0;
  /// [N, N] weighted adjacency; zero diagonal.
  tensor::Tensor adjacency;
  std::vector<double> x;
  std::vector<double> y;
};

/// The O(N^2) pair-scan construction of graph::RandomGeometricSparse:
/// the same rng draws (x then y per node), and w_ij = w_ji =
/// float(exp(-d2 / sigma^2)) for every pair j > i with d2 <= radius^2.
inline SpatialGraph RandomGeometric(int64_t num_nodes, double radius,
                                    double sigma, utils::Rng& rng) {
  SpatialGraph g;
  g.num_nodes = num_nodes;
  g.x.resize(num_nodes);
  g.y.resize(num_nodes);
  for (int64_t i = 0; i < num_nodes; ++i) {
    g.x[i] = rng.Uniform();
    g.y[i] = rng.Uniform();
  }
  g.adjacency = tensor::Tensor::Zeros(tensor::Shape({num_nodes, num_nodes}));
  float* a = g.adjacency.data();
  const double r2 = radius * radius;
  const double inv_s2 = 1.0 / (sigma * sigma);
  for (int64_t i = 0; i < num_nodes; ++i) {
    for (int64_t j = i + 1; j < num_nodes; ++j) {
      const double dx = g.x[i] - g.x[j];
      const double dy = g.y[i] - g.y[j];
      const double d2 = dx * dx + dy * dy;
      if (d2 <= r2) {
        const float w = static_cast<float>(std::exp(-d2 * inv_s2));
        a[i * num_nodes + j] = w;
        a[j * num_nodes + i] = w;
      }
    }
  }
  return g;
}

/// data::GenerateTraffic over the dense reference graph: RandomGeometric,
/// the dense RowNormalize, CsrFromDense (which drops exact zeros), then
/// the same field and speed arithmetic in the same rng order.
inline data::TimeSeries GenerateTrafficDense(
    const data::TrafficOptions& options, SpatialGraph* latent = nullptr) {
  const int64_t n = options.num_nodes;
  const int64_t total = options.num_days * options.steps_per_day;
  utils::Rng rng(options.seed);
  SpatialGraph g =
      RandomGeometric(n, options.radius, options.kernel_sigma, rng);
  const graph::CsrMatrix p =
      graph::CsrFromDense(graph::RowNormalize(g.adjacency));

  std::vector<double> base(n), amp_morning(n), amp_evening(n),
      phase_morning(n), phase_evening(n);
  for (int64_t i = 0; i < n; ++i) {
    base[i] = rng.Uniform(55.0, 68.0);
    amp_morning[i] = rng.Uniform(10.0, 25.0);
    amp_evening[i] = rng.Uniform(8.0, 22.0);
    phase_morning[i] = 8.0 / 24.0 + rng.Uniform(-0.03, 0.03);
    phase_evening[i] = 17.5 / 24.0 + rng.Uniform(-0.03, 0.03);
  }
  auto bump = [](double t, double center, double width) {
    const double d = t - center;
    return std::exp(-0.5 * d * d / (width * width));
  };

  data::TimeSeries series;
  series.name = options.name;
  series.steps_per_day = options.steps_per_day;
  series.values = tensor::Tensor::Zeros(tensor::Shape({total, n}));
  float* out = series.values.data();
  std::vector<double> w(n, 0.0), w_next(n, 0.0);
  const double bump_width = 1.3 / 24.0;
  for (int64_t t = 0; t < total; ++t) {
    const double tod = static_cast<double>(t % options.steps_per_day) /
                       options.steps_per_day;
    const bool weekend = ((t / options.steps_per_day) % 7) >= 5;
    const double day_scale = weekend ? data::kWeekendRushFactor : 1.0;
    for (int64_t i = 0; i < n; ++i) {
      double diffused = 0.0;
      if (p.row_ptr[i] != p.row_ptr[i + 1]) {
        for (int64_t e = p.row_ptr[i]; e < p.row_ptr[i + 1]; ++e) {
          diffused += p.val[e] * w[p.col[e]];
        }
      } else {
        diffused = w[i];
      }
      double v = options.spatial_rho * diffused +
                 rng.Normal(0.0, options.innovation_std);
      if (rng.Bernoulli(options.event_rate)) {
        v -= rng.Uniform(0.5, 1.5) * options.event_magnitude;
      }
      w_next[i] = v;
    }
    std::swap(w, w_next);
    for (int64_t i = 0; i < n; ++i) {
      const double rush =
          amp_morning[i] * bump(tod, phase_morning[i], bump_width) +
          amp_evening[i] * bump(tod, phase_evening[i], bump_width);
      const double speed = base[i] - day_scale * rush + 3.0 * w[i] +
                           rng.Normal(0.0, options.noise_std);
      out[t * n + i] = static_cast<float>(std::clamp(speed, 3.0, 80.0));
    }
  }
  if (latent != nullptr) *latent = std::move(g);
  return series;
}

/// Deterministic distribution shift applied to an existing series — the
/// synthetic stand-in for the structure/level drift that motivates
/// online continual learning. Each node gets a seeded multiplicative gain
/// and additive offset jitter around the configured means, plus a
/// phase-shifted diurnal ripple, so a model trained on the base series
/// measurably regresses on the drifted one while the graph structure
/// (node identity, spatial correlation) is preserved.
struct DriftOptions {
  /// Mean multiplicative level shift (per-node jittered around this).
  double gain = 0.85;
  /// Mean additive level shift in original units.
  double offset = 3.0;
  /// Relative per-node jitter on gain/offset, uniform in [-jitter, +jitter].
  double node_jitter = 0.1;
  /// Amplitude of the added time-of-day ripple (original units).
  double diurnal_amplitude = 2.0;
  /// Phase shift of the ripple, in fractions of a day.
  double diurnal_phase = 0.3;
  uint64_t seed = 77;
};

/// Returns a drifted copy of `series` (same shape, name suffixed
/// "-drift"). Deterministic in (series, options).
inline data::TimeSeries ApplyDrift(const data::TimeSeries& series,
                                   const DriftOptions& options = {}) {
  const int64_t t_steps = series.num_steps();
  const int64_t n = series.num_nodes();
  SAGDFN_CHECK_GT(t_steps, 0);
  SAGDFN_CHECK_GT(n, 0);

  // Per-node gain/offset jitter drawn once, so the shift is a stable
  // property of each node rather than extra noise.
  utils::Rng rng(options.seed);
  std::vector<float> gains(n);
  std::vector<float> offsets(n);
  for (int64_t i = 0; i < n; ++i) {
    const double j = options.node_jitter;
    gains[i] = static_cast<float>(options.gain * rng.Uniform(1.0 - j, 1.0 + j));
    offsets[i] =
        static_cast<float>(options.offset * rng.Uniform(1.0 - j, 1.0 + j));
  }

  data::TimeSeries out;
  out.name = series.name + "-drift";
  out.steps_per_day = series.steps_per_day;
  out.values = tensor::Tensor::Zeros(series.values.shape());
  const float* src = series.values.data();
  float* dst = out.values.data();
  constexpr double kTwoPi = 6.283185307179586;
  for (int64_t t = 0; t < t_steps; ++t) {
    const double tod = series.TimeOfDay(t);
    const float ripple = static_cast<float>(
        options.diurnal_amplitude *
        std::sin(kTwoPi * (tod + options.diurnal_phase)));
    for (int64_t i = 0; i < n; ++i) {
      dst[t * n + i] = gains[i] * src[t * n + i] + offsets[i] + ripple;
    }
  }
  return out;
}

}  // namespace sagdfn::test_support

#endif  // SAGDFN_TESTS_TEST_SUPPORT_H_
