#ifndef SAGDFN_DATA_REGISTRY_H_
#define SAGDFN_DATA_REGISTRY_H_

#include <string>
#include <vector>

#include "data/synthetic.h"
#include "data/time_series.h"
#include "data/window_dataset.h"
#include "graph/generators.h"

namespace sagdfn::data {

/// Scale knob for the named datasets: kQuick shrinks node counts and time
/// ranges so CPU-only benches finish in seconds while preserving each
/// dataset's character; kFull matches the paper's sizes.
enum class DatasetScale { kQuick, kFull };

/// Descriptor of a named benchmark dataset (paper Table II analogue).
struct DatasetInfo {
  std::string name;
  std::string data_type;   // "Traffic speed" or "Carpark lots"
  int64_t num_nodes = 0;
  int64_t num_steps = 0;
  int64_t steps_per_day = 0;
  std::string time_range;  // descriptive, mirrors the paper's column
};

/// Names understood by MakeDataset: "metr-la-sim", "london2000-sim",
/// "newyork2000-sim", "carpark1918-sim".
std::vector<std::string> KnownDatasets();

/// Generates a >= 10k-node scale scenario by name: "traffic10k-sim"
/// (N=10000) or "traffic100k-sim" (N=100000). These are deliberately not
/// part of KnownDatasets(): tier-1 sweeps over the paper datasets must not
/// generate them by accident — they are driven by the `scale`-labeled
/// tests, the graphsize bench, and the nightly 100k CI leg. The latent
/// graph stays sparse end to end — a dense [N, N] latent would not fit —
/// so the ground truth comes back as CSR for graph-recovery metrics.
/// kQuick trims the series length, not the node count (node count is the
/// point of these scenarios). Mean latent degree is held at ~20
/// independent of N (radius ~ sqrt(20 / (pi N))), matching the slim
/// adjacency's per-row budget.
TimeSeries MakeScaleDataset(
    const std::string& name, DatasetScale scale,
    graph::SparseSpatialGraph* latent_graph = nullptr);

/// Generates a named dataset at the requested scale. Fatal on unknown
/// name. `latent_graph`, when non-null and the generator is graph-based,
/// receives the ground-truth spatial graph.
TimeSeries MakeDataset(const std::string& name, DatasetScale scale,
                       graph::SpatialGraph* latent_graph = nullptr);

/// Table II-style metadata for a named dataset at the given scale.
DatasetInfo GetDatasetInfo(const std::string& name, DatasetScale scale);

/// The paper's window setup for a dataset: h=12,f=12 for traffic,
/// h=24,f=12 for carpark.
WindowSpec DefaultWindowSpec(const std::string& name);

/// Deterministic distribution shift applied to an existing series — the
/// synthetic stand-in for the structure/level drift that motivates
/// online continual learning (per-dataset dynamics change over time;
/// see Chen et al. / Xu et al. in PAPERS.md). Each node gets a seeded
/// multiplicative gain and additive offset jitter around the configured
/// means, plus a phase-shifted diurnal ripple, so a model trained on the
/// base series measurably regresses on the drifted one while the graph
/// structure (node identity, spatial correlation) is preserved.
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
TimeSeries ApplyDrift(const TimeSeries& series, const DriftOptions& options);

}  // namespace sagdfn::data

#endif  // SAGDFN_DATA_REGISTRY_H_
