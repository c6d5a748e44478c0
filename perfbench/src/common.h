// Shared plumbing of the perfbench program: clocks, percentiles, digests,
// the metric sink that prints the final result line, and the span
// recorder used by traced runs.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds on the steady clock since the process-wide bench epoch.
int64_t NowNs();

inline double NsToMs(double ns) { return ns / 1e6; }

/// Arguments shared by every workload.
struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for checkpoints, weight files and span dumps.
  std::string work_dir = ".bench_build/work";
};

/// R-7 (linear interpolation) percentile of `values`, `p` in [0, 100].
/// Sorts a copy; NaN when empty.
double Percentile(std::vector<double> values, double p);

/// Median of `values` (NaN when empty).
double Median(std::vector<double> values);

double Mean(const std::vector<double>& values);

/// True when `count` samples leave at least ten beyond percentile `p` —
/// the benchmark's definition of a usable tail.
bool TailHasTenBeyond(int64_t count, double p);

/// FNV-1a over raw bytes, chainable through `h`.
uint64_t Fnv1a(const void* data, size_t bytes,
               uint64_t h = 14695981039346656037ull);

inline uint64_t DigestTensor(const sagdfn::tensor::Tensor& t,
                             uint64_t h = 14695981039346656037ull) {
  return Fnv1a(t.data(), static_cast<size_t>(t.size()) * sizeof(float), h);
}

/// Runs `fn` `reps` times (after `warmup` untimed calls) and returns the
/// median wall time in milliseconds.
double MedianMs(int reps, const std::function<void()>& fn, int warmup = 1);

/// Repeats `fn` until `min_seconds` elapsed and at least `min_iters`
/// calls ran, in `rounds` timed rounds; returns the median over rounds of
/// the per-call mean, in microseconds.
double SteadyUs(const std::function<void()>& fn, double min_seconds,
                int min_iters, int rounds = 5);

/// Metric sink: named values with units, printed as the result line.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  bool Has(const std::string& name) const;
  double Get(const std::string& name) const;
  /// Human-readable "metric <name> <value> <unit>" lines (for the
  /// workload-specific names the result line does not carry).
  void PrintInfo(const std::string& name, double value,
                 const std::string& unit) const;
  /// The final result line: {"correct", "attempted", "failed", "metrics"}
  /// restricted to `keys` (every key must be set).
  std::string ResultJson(bool correct, int64_t attempted, int64_t failed,
                         const std::vector<std::string>& keys) const;

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
};

/// Failure bookkeeping shared by a workload: every operation the run
/// attempts, and every one that failed (with a reason on stderr). A
/// Mismatch is a failed correctness check — wrong output bytes or a
/// broken determinism contract — and makes the whole result incorrect.
struct Tally {
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t mismatches = 0;
  void Ok(int64_t n = 1) { attempted += n; }
  void Fail(const std::string& why, int64_t n = 1);
  void Mismatch(const std::string& why);
};

/// Span recorder for traced runs: name, start, end, parent span and
/// request id per call into the programme. Disabled recorders cost one
/// branch per call site.
class Tracer {
 public:
  struct Span {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int64_t id = 0;
    int64_t parent = -1;
    int64_t request_id = -1;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  /// Records one closed span; returns its id (-1 when disabled).
  int64_t Add(const std::string& name, int64_t start_ns, int64_t end_ns,
              int64_t parent = -1, int64_t request_id = -1);

  /// Writes every span as one JSON object per line.
  bool WriteJsonl(const std::string& path) const;
  int64_t size() const;

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Peak resident set of this process, in MiB.
double PeakRssMb();

/// Writes `text` to `path` (creating parent directories).
bool WriteFile(const std::string& path, const std::string& text);
/// Reads `path`; false when absent.
bool ReadFile(const std::string& path, std::string* text);

/// Prints the run environment: nproc, pinned pool, SIMD level, git SHA
/// (from PERFBENCH_GIT_SHA or "unknown"), seed and workload.
void PrintEnvironment(const RunArgs& args);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
