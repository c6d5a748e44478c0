// The benchmark's workloads and the shared pieces they are built from.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "core/sagdfn.h"
#include "data/window_dataset.h"
#include "serve/frozen_model.h"

namespace perfbench {

/// Intra-op pool size every workload pins (below nproc on the 4-core
/// reference machine, where the default 4-thread pool gave bimodal
/// timings).
inline constexpr int64_t kPoolThreads = 2;

/// Names of the end-to-end metrics every workload reports untraced.
const std::vector<std::string>& EndToEndKeys();
/// Names of the per-layer metrics every workload reports traced.
const std::vector<std::string>& PerLayerKeys();

/// The model sizes `sagdfn_cli train` uses by default for a dataset with
/// `num_nodes` nodes and the given window.
sagdfn::core::SagdfnConfig CliDefaultConfig(int64_t num_nodes,
                                            int64_t history, int64_t horizon,
                                            uint64_t seed);

/// The scale-tier model sizes (the graph-size ladder's configuration)
/// with the paper's h = f = 12 window.
sagdfn::core::SagdfnConfig ScaleTierConfig(int64_t num_nodes, uint64_t seed);

/// Everything the layer probes need from a workload: its own model,
/// snapshot and data.
struct ProbeInputs {
  std::shared_ptr<const sagdfn::serve::FrozenModel> frozen;
  const sagdfn::data::ForecastDataset* dataset = nullptr;
  /// Batch of the training-step probe (the workload's training batch, or
  /// 1 where a batch of 8 would not fit the node count).
  int64_t train_batch = 8;
  std::string work_dir;
  uint64_t seed = 1;
  /// The workload's own untraced measurements the attributed shares are
  /// taken against (NaN: use the probe's own measurement).
  double measured_tick_ms = std::numeric_limits<double>::quiet_NaN();
  double measured_step_ms = std::numeric_limits<double>::quiet_NaN();
};

/// Times every layer's public functions on the workload's own model and
/// inputs, filling each per-layer metric the traced workload run did not
/// already provide. Byte checks inside the probes count into `tally`.
void RunLayerProbes(const ProbeInputs& in, Metrics* metrics, Tally* tally);

int RunServeOpenLoop(const RunArgs& args, Metrics* metrics, Tally* tally);
int RunStream10k(const RunArgs& args, Metrics* metrics, Tally* tally);
int RunTrainMetrLa(const RunArgs& args, Metrics* metrics, Tally* tally);

/// Open-loop timing self-test: a slow cold tenant must not inflate the
/// hot tenant's stamped latency. Returns 0 on pass.
int RunSelfTest(const RunArgs& args);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
