#ifndef SAGDFN_OBS_TELEMETRY_H_
#define SAGDFN_OBS_TELEMETRY_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "utils/status.h"

namespace sagdfn::obs {

/// Log2-microsecond duration buckets kept per timer scope (bucket i counts
/// durations in [2^i, 2^(i+1)) microseconds; bucket 0 also absorbs < 1 us).
inline constexpr int kTimerBuckets = 24;

/// Aggregate statistics for one timer scope.
struct TimerStats {
  int64_t count = 0;
  double total_seconds = 0.0;
  double min_seconds = 0.0;
  double max_seconds = 0.0;
  int64_t buckets[kTimerBuckets] = {};

  double mean_seconds() const {
    return count > 0 ? total_seconds / count : 0.0;
  }
  /// Folds `other` into this aggregate (for merging call sites that share
  /// a scope name).
  void Merge(const TimerStats& other);
};

/// One JSONL telemetry record: an ordered list of key/value fields
/// serialized as a single JSON object. Every record carries "ts" (seconds
/// on the process-wide monotonic clock) and "event" (the record type).
class Event {
 public:
  explicit Event(std::string_view type);

  Event& Str(std::string_view key, std::string_view value);
  Event& Int(std::string_view key, int64_t value);
  Event& Double(std::string_view key, double value);
  Event& Bool(std::string_view key, bool value);

  /// The record as one JSON object (no trailing newline). NaN/Inf doubles
  /// serialize as null (JSON has no literal for them).
  std::string ToJson() const;

  const std::string& type() const { return type_; }

 private:
  std::string type_;
  /// Field values are pre-rendered JSON fragments (quoted/escaped for
  /// strings, literals for numbers and bools).
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Per-call-site timer accumulator behind SAGDFN_SCOPED_TIMER. Sites are
/// function-local statics: they register with the global registry on first
/// execution and fold their totals back into it on destruction, so
/// snapshots never read freed memory. All updates are relaxed atomics —
/// safe from inside parallel regions (e.g. per-head SSMA workers).
class TimerSite {
 public:
  explicit TimerSite(const char* name);
  ~TimerSite();

  TimerSite(const TimerSite&) = delete;
  TimerSite& operator=(const TimerSite&) = delete;

  const char* name() const { return name_; }

  void Record(int64_t nanos);

  /// A point-in-time copy of this site's aggregates.
  TimerStats Snapshot() const;

 private:
  const char* name_;
  std::atomic<int64_t> count_{0};
  std::atomic<int64_t> total_nanos_{0};
  std::atomic<int64_t> min_nanos_{std::numeric_limits<int64_t>::max()};
  std::atomic<int64_t> max_nanos_{0};
  std::atomic<int64_t> buckets_[kTimerBuckets] = {};
};

/// Process-wide telemetry registry and JSONL sink.
///
/// Collection (scoped timers, counters, gauges) is off by default and
/// costs one relaxed atomic load per probe; it turns on when a JSONL sink
/// is configured — via the SAGDFN_TELEMETRY environment variable (read at
/// first Global() access) or Configure() — or explicitly via
/// SetCollectionEnabled(true) (benches use this to collect a cost
/// breakdown without streaming events).
///
/// Events are appended to the sink as one JSON object per line (JSONL) and
/// flushed per record; the schema is documented in DESIGN.md §5e.
class Telemetry {
 public:
  /// The process-wide instance (leaked singleton: safe to touch from
  /// static destructors). First access honors SAGDFN_TELEMETRY=path.
  static Telemetry& Global();

  /// True when timer sites / counters are recording.
  static bool CollectionEnabled() {
    return collect_.load(std::memory_order_relaxed);
  }
  static void SetCollectionEnabled(bool on) {
    collect_.store(on, std::memory_order_relaxed);
  }

  /// Opens (appends to) `jsonl_path` as the event sink and enables
  /// collection; an empty path closes the sink. Emits a "run.start"
  /// record on success.
  utils::Status Configure(const std::string& jsonl_path);

  /// True when a JSONL sink is open.
  bool sink_open() const;
  std::string sink_path() const;

  /// Appends one record to the sink (no-op without a sink). Thread-safe;
  /// each record is written and flushed atomically with respect to other
  /// Emit calls.
  void Emit(const Event& event);

  // -- Registry ------------------------------------------------------------

  /// Adds `delta` to the named monotonic counter.
  void AddCounter(std::string_view name, int64_t delta = 1);
  /// Sets the named gauge to its latest value.
  void SetGauge(std::string_view name, double value);
  /// Folds one duration into the named timer scope (the non-macro path;
  /// SAGDFN_SCOPED_TIMER is cheaper on hot paths).
  void RecordDuration(std::string_view name, double seconds);

  int64_t counter(const std::string& name) const;
  double gauge(const std::string& name) const;
  /// Aggregate over every live and retired call site with this scope name.
  TimerStats timer(const std::string& name) const;

  std::vector<std::pair<std::string, int64_t>> counters() const;
  std::vector<std::pair<std::string, double>> gauges() const;
  /// Name-sorted, per-name-merged timer aggregates.
  std::vector<std::pair<std::string, TimerStats>> timers() const;

  /// Emits one "timers.snapshot" record with every timer scope (count,
  /// total/mean/min/max seconds) plus all counters and gauges. `label`
  /// distinguishes multiple snapshots in one run.
  void EmitSnapshot(std::string_view label);

  /// Writes the full registry as a single pretty-stable JSON document to
  /// `path` (for BENCH_*.json cost breakdowns). Overwrites.
  utils::Status WriteRegistryJson(const std::string& path,
                                  std::string_view title) const;

  /// Clears counters, gauges, and retired timer totals. Live timer sites
  /// keep accumulating (tests read deltas or use fresh scope names).
  /// Collection/sink state is untouched.
  void ResetRegistry();

  /// Seconds since the process-wide monotonic telemetry epoch.
  static double NowSeconds();

  // Internal: TimerSite lifecycle (public for the macro machinery).
  void RegisterSite(TimerSite* site);
  void RetireSite(TimerSite* site);

 private:
  Telemetry();
  ~Telemetry() = delete;  // leaked singleton

  static std::atomic<bool> collect_;

  struct Impl;
  Impl* impl_;
};

/// RAII timer recording into a TimerSite on scope exit. When collection is
/// disabled at construction the destructor does nothing (no clock reads).
class ScopedTimer {
 public:
  explicit ScopedTimer(TimerSite& site)
      : site_(Telemetry::CollectionEnabled() ? &site : nullptr) {
    if (site_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~ScopedTimer() {
    if (site_ != nullptr) {
      site_->Record(std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start_)
                        .count());
    }
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  TimerSite* site_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace sagdfn::obs

#define SAGDFN_OBS_CONCAT_INNER(a, b) a##b
#define SAGDFN_OBS_CONCAT(a, b) SAGDFN_OBS_CONCAT_INNER(a, b)

/// Times the enclosing scope under `name` (a string literal). One static
/// TimerSite per call site; ~one relaxed atomic load when collection is
/// off.
#define SAGDFN_SCOPED_TIMER(name)                                       \
  static ::sagdfn::obs::TimerSite SAGDFN_OBS_CONCAT(sagdfn_obs_site_,   \
                                                    __LINE__){name};    \
  ::sagdfn::obs::ScopedTimer SAGDFN_OBS_CONCAT(sagdfn_obs_timer_,       \
                                               __LINE__)(              \
      SAGDFN_OBS_CONCAT(sagdfn_obs_site_, __LINE__))

#endif  // SAGDFN_OBS_TELEMETRY_H_
