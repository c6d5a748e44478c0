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
/// tests, the graphsize bench, and the nightly 100k CI leg. They run
/// through the same GenerateTraffic as the paper datasets. kQuick trims the series length, not the node count (node count is the
/// point of these scenarios). Mean latent degree is held at ~20
/// independent of N (radius ~ sqrt(20 / (pi N))), matching the slim
/// adjacency's per-row budget.
TimeSeries MakeScaleDataset(
    const std::string& name, DatasetScale scale,
    graph::SparseSpatialGraph* latent_graph = nullptr);

/// The generator options behind a traffic dataset of KnownDatasets()
/// ("metr-la-sim", "london2000-sim", "newyork2000-sim") at `scale`.
/// Fatal on any other name.
TrafficOptions TrafficDatasetOptions(const std::string& name,
                                     DatasetScale scale);

/// Generates a named dataset at the requested scale. Fatal on unknown
/// name. `latent_graph`, when non-null and the generator is graph-based,
/// receives the ground-truth spatial graph (CSR; compare a learned slim
/// adjacency against it with graph::TopKOverlapCsr).
TimeSeries MakeDataset(const std::string& name, DatasetScale scale,
                       graph::SparseSpatialGraph* latent_graph = nullptr);

/// Table II-style metadata for a named dataset at the given scale.
DatasetInfo GetDatasetInfo(const std::string& name, DatasetScale scale);

/// The paper's window setup for a dataset: h=12,f=12 for traffic,
/// h=24,f=12 for carpark.
WindowSpec DefaultWindowSpec(const std::string& name);

}  // namespace sagdfn::data

#endif  // SAGDFN_DATA_REGISTRY_H_
