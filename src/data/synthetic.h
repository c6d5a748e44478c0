#ifndef SAGDFN_DATA_SYNTHETIC_H_
#define SAGDFN_DATA_SYNTHETIC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "data/time_series.h"
#include "graph/generators.h"

namespace sagdfn::data {

/// Weekday rush-hour dips are scaled by this factor on weekends.
inline constexpr double kWeekendRushFactor = 0.35;

/// Parameters of the synthetic traffic-speed generator (the METR-LA /
/// London2000 / NewYork2000 stand-in, and the 10k/100k scale tier).
///
/// The generator draws a latent random-geometric road graph, then evolves
/// speeds as: free-flow base per sensor, minus rush-hour dips (with
/// per-sensor phase jitter and a weekend attenuation), plus a latent
/// graph-coupled AR(1) field that diffuses congestion between neighboring
/// sensors, plus observation noise and sporadic congestion shocks.
/// Learning the latent graph is exactly what lets a model denoise a sensor
/// from its neighbors, which is the ability the paper's evaluation probes.
struct TrafficOptions {
  std::string name = "traffic-sim";
  int64_t num_nodes = 207;
  int64_t num_days = 8;
  int64_t steps_per_day = 288;  // 5-minute resolution
  /// Latent graph geometry.
  double radius = 0.12;
  double kernel_sigma = 0.08;
  /// Spatial AR(1) coupling strength in [0, 1).
  double spatial_rho = 0.85;
  /// Innovation and observation noise scales (mph).
  double innovation_std = 1.2;
  double noise_std = 1.0;
  /// Congestion shock probability per node per step, and magnitude (mph).
  double event_rate = 0.0008;
  double event_magnitude = 6.0;
  uint64_t seed = 1;
};

/// Generates a traffic-speed series; optionally exposes the latent graph
/// so tests can verify that learned adjacencies recover it. The latent
/// graph is built and kept sparse (CSR over global node ids), so memory
/// and time are O(N * degree + N * steps) at every size, from the
/// 24-node test graphs to the 100k-node scale tier; graph-recovery
/// metrics go through graph::TopKOverlapCsr.
TimeSeries GenerateTraffic(
    const TrafficOptions& options,
    graph::SparseSpatialGraph* latent_graph = nullptr);

/// Capacity range of a simulated carpark (lots); no generated value
/// exceeds the maximum.
inline constexpr int64_t kCarparkMinCapacity = 80;
inline constexpr int64_t kCarparkMaxCapacity = 600;

/// Parameters of the synthetic carpark-availability generator (the
/// CARPARK1918 stand-in): available-lot counts with capacity saturation,
/// strong daily cycles that differ between "business" and "residential"
/// clusters, and cluster-level correlated fluctuations.
struct CarparkOptions {
  std::string name = "carpark-sim";
  int64_t num_nodes = 1918;
  int64_t num_days = 8;
  int64_t steps_per_day = 288;
  int64_t num_clusters = 24;
  /// Per-carpark observation noise (lots).
  double noise_std = 3.0;
  uint64_t seed = 2;
};

/// Generates a carpark availability series; optionally exposes the cluster
/// assignment (the latent correlation structure).
TimeSeries GenerateCarpark(const CarparkOptions& options,
                           std::vector<int64_t>* cluster_of = nullptr);

}  // namespace sagdfn::data

#endif  // SAGDFN_DATA_SYNTHETIC_H_
