#include "data/registry.h"

#include <cmath>

#include "utils/check.h"
#include "utils/rng.h"

namespace sagdfn::data {
namespace {

// Quick-scale sizes keep each dataset's character (relative node counts,
// resolution class, generator regime) while letting CPU-only benches
// finish in seconds. Full-scale matches the paper's Table II.

TrafficOptions MetrLaOptions(DatasetScale scale) {
  TrafficOptions o;
  o.name = "metr-la-sim";
  if (scale == DatasetScale::kQuick) {
    o.num_nodes = 64;
    // 13 days so train/val/test splits each contain weekday and weekend
    // regimes (the full METR-LA spans four months).
    o.num_days = 13;
    o.steps_per_day = 96;  // 15-minute quick stand-in
    o.radius = 0.2;
    o.kernel_sigma = 0.14;
  } else {
    o.num_nodes = 207;
    o.num_days = 28;
    o.steps_per_day = 288;
  }
  o.seed = 11;
  return o;
}

TrafficOptions LondonOptions(DatasetScale scale) {
  TrafficOptions o;
  o.name = "london2000-sim";
  o.steps_per_day = 24;  // hourly
  if (scale == DatasetScale::kQuick) {
    o.num_nodes = 256;
    o.num_days = 60;
    o.radius = 0.1;
    o.kernel_sigma = 0.07;
  } else {
    o.num_nodes = 2000;
    o.num_days = 90;
    o.radius = 0.04;
    o.kernel_sigma = 0.028;
  }
  // London regime: smoother, lower speeds (urban).
  o.spatial_rho = 0.9;
  o.innovation_std = 0.8;
  o.noise_std = 0.7;
  o.event_rate = 0.0004;
  o.seed = 22;
  return o;
}

TrafficOptions NewYorkOptions(DatasetScale scale) {
  TrafficOptions o = LondonOptions(scale);
  o.name = "newyork2000-sim";
  // NewYork regime: burstier traffic with stronger shocks.
  o.spatial_rho = 0.8;
  o.innovation_std = 1.4;
  o.noise_std = 1.1;
  o.event_rate = 0.0012;
  o.event_magnitude = 8.0;
  o.seed = 33;
  return o;
}

CarparkOptions CarparkOptionsFor(DatasetScale scale) {
  CarparkOptions o;
  o.name = "carpark1918-sim";
  if (scale == DatasetScale::kQuick) {
    o.num_nodes = 240;
    o.num_days = 13;  // cover weekday + weekend in every split
    o.steps_per_day = 96;
    o.num_clusters = 12;
  } else {
    o.num_nodes = 1918;
    o.num_days = 61;
    o.steps_per_day = 288;
    o.num_clusters = 24;
  }
  o.seed = 44;
  return o;
}

TrafficOptions ScaleTrafficOptions(const std::string& name,
                                   DatasetScale scale) {
  TrafficOptions o;
  o.name = name;
  o.num_nodes = name == "traffic10k-sim" ? 10000 : 100000;
  // Hold the latent mean degree at ~20 regardless of N: a node's
  // expected neighbor count in a random geometric graph is pi r^2 N.
  o.radius = std::sqrt(20.0 / (3.141592653589793 * o.num_nodes));
  o.kernel_sigma = 0.7 * o.radius;
  // 15-minute resolution; quick keeps two days (weekday regimes only),
  // full adds enough days for weekday + weekend splits.
  o.steps_per_day = 96;
  o.num_days = scale == DatasetScale::kQuick ? 2 : 9;
  o.seed = 55;
  return o;
}

}  // namespace

std::vector<std::string> KnownDatasets() {
  return {"metr-la-sim", "london2000-sim", "newyork2000-sim",
          "carpark1918-sim"};
}

TimeSeries MakeScaleDataset(const std::string& name, DatasetScale scale,
                            graph::SparseSpatialGraph* latent_graph) {
  SAGDFN_CHECK(name == "traffic10k-sim" || name == "traffic100k-sim")
      << "unknown scale dataset: " << name;
  return GenerateTrafficSparse(ScaleTrafficOptions(name, scale),
                               latent_graph);
}

TimeSeries MakeDataset(const std::string& name, DatasetScale scale,
                       graph::SpatialGraph* latent_graph) {
  if (name == "metr-la-sim") {
    return GenerateTraffic(MetrLaOptions(scale), latent_graph);
  }
  if (name == "london2000-sim") {
    return GenerateTraffic(LondonOptions(scale), latent_graph);
  }
  if (name == "newyork2000-sim") {
    return GenerateTraffic(NewYorkOptions(scale), latent_graph);
  }
  if (name == "carpark1918-sim") {
    SAGDFN_CHECK(latent_graph == nullptr)
        << "carpark generator has cluster structure, not a spatial graph";
    return GenerateCarpark(CarparkOptionsFor(scale));
  }
  SAGDFN_CHECK(false) << "unknown dataset: " << name;
  return {};
}

DatasetInfo GetDatasetInfo(const std::string& name, DatasetScale scale) {
  DatasetInfo info;
  info.name = name;
  auto fill_traffic = [&](const TrafficOptions& o, const char* range) {
    info.data_type = "Traffic speed";
    info.num_nodes = o.num_nodes;
    info.num_steps = o.num_days * o.steps_per_day;
    info.steps_per_day = o.steps_per_day;
    info.time_range = range;
  };
  if (name == "metr-la-sim") {
    fill_traffic(MetrLaOptions(scale), "simulated, METR-LA regime");
    return info;
  }
  if (name == "london2000-sim") {
    fill_traffic(LondonOptions(scale), "simulated, London hourly regime");
    return info;
  }
  if (name == "newyork2000-sim") {
    fill_traffic(NewYorkOptions(scale), "simulated, NewYork hourly regime");
    return info;
  }
  if (name == "traffic10k-sim" || name == "traffic100k-sim") {
    fill_traffic(ScaleTrafficOptions(name, scale),
                 "simulated, sparse-latent scale regime");
    return info;
  }
  if (name == "carpark1918-sim") {
    CarparkOptions o = CarparkOptionsFor(scale);
    info.data_type = "Carpark lots";
    info.num_nodes = o.num_nodes;
    info.num_steps = o.num_days * o.steps_per_day;
    info.steps_per_day = o.steps_per_day;
    info.time_range = "simulated, Singapore carpark regime";
    return info;
  }
  SAGDFN_CHECK(false) << "unknown dataset: " << name;
  return info;
}

WindowSpec DefaultWindowSpec(const std::string& name) {
  WindowSpec spec;
  if (name == "carpark1918-sim") {
    spec.history = 24;
    spec.horizon = 12;
  } else {
    spec.history = 12;
    spec.horizon = 12;
  }
  return spec;
}

TimeSeries ApplyDrift(const TimeSeries& series, const DriftOptions& options) {
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

  TimeSeries out;
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

}  // namespace sagdfn::data
