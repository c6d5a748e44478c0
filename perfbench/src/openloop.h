// Open-loop request generator with completion stamping.
//
// One generator thread sends each request at its scheduled time (Poisson
// arrivals, so independent users, not a closed client loop). A separate
// poller thread sweeps the in-flight futures and stamps each completion
// the moment it sees the future ready — never in submission order, which
// would charge an early request for every later one it waited behind.
// The stamping error is bounded by the gap between two sweeps, which the
// poller measures and reports.
#ifndef PERFBENCH_OPENLOOP_H_
#define PERFBENCH_OPENLOOP_H_

#include <cstdint>
#include <functional>
#include <future>
#include <string>
#include <vector>

#include "serve/engine.h"
#include "tensor/tensor.h"

namespace perfbench {

/// Deterministic 64-bit generator (splitmix64) for schedules and inputs:
/// the same seed gives the same sequence on every platform.
class SplitMix {
 public:
  explicit SplitMix(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, 1).
  double Uniform();
  /// Exponential with the given rate (mean 1 / rate).
  double Exponential(double rate);
  /// Uniform integer in [0, n).
  int64_t Below(int64_t n);

 private:
  uint64_t state_;
};

/// One scheduled request.
struct Arrival {
  int64_t id = 0;
  int tenant = 0;
  int64_t window = 0;
  /// Send time, in ns after the phase starts.
  int64_t offset_ns = 0;
};

/// Poisson arrivals at `rate_per_s`: `count` requests, every fourth to
/// tenant 1 when `two_tenants` (a fixed 3:1 split), windows drawn from
/// [0, windows_per_tenant).
std::vector<Arrival> PoissonSchedule(SplitMix& rng, double rate_per_s,
                                     int64_t count, bool two_tenants,
                                     int64_t windows_per_tenant,
                                     int64_t first_id = 0);

/// One finished request.
struct Completion {
  Arrival arrival;
  int64_t sched_ns = 0;   // scheduled send time (bench clock)
  int64_t sent_ns = 0;    // when Submit was entered
  int64_t submit_ns = 0;  // duration of the Submit call itself
  int64_t ready_ns = 0;   // when the poller saw the future ready
  bool ok = false;
  /// The request was refused because its deadline passed.
  bool deadline_exceeded = false;
  std::string error;
  /// The forecast, kept only for requests the caller asked to keep.
  sagdfn::tensor::Tensor prediction;

  double latency_ms() const {
    return static_cast<double>(ready_ns - sched_ns) / 1e6;
  }
  double gen_lag_ms() const {
    return static_cast<double>(sent_ns - sched_ns) / 1e6;
  }
};

struct OpenLoopResult {
  /// Every request, ordered by arrival id.
  std::vector<Completion> done;
  /// Largest gap between two consecutive poller sweeps (the bound on any
  /// completion stamp's error), and its 99th percentile.
  double stamp_gap_max_us = 0.0;
  double stamp_gap_p99_us = 0.0;
  double wall_s = 0.0;

  std::vector<double> LatenciesMs(int tenant = -1) const;
  int64_t Failures() const;
};

using SubmitFn =
    std::function<std::future<sagdfn::serve::Forecast>(const Arrival&)>;
using KeepFn = std::function<bool(const Arrival&)>;

/// Sends `schedule` from the calling thread and returns when every
/// request completed.
OpenLoopResult RunOpenLoop(const std::vector<Arrival>& schedule,
                           const SubmitFn& submit, const KeepFn& keep);

/// Index-order completion timing — the flawed method this generator
/// replaces: send the schedule, then wait on the futures in arrival order
/// and stamp each when its own wait returns. Used only by the self-test
/// to show how it misreports.
std::vector<double> IndexOrderLatenciesMs(
    const std::vector<Arrival>& schedule, const SubmitFn& submit);

}  // namespace perfbench

#endif  // PERFBENCH_OPENLOOP_H_
