#ifndef SAGDFN_SERVE_FORECAST_CACHE_H_
#define SAGDFN_SERVE_FORECAST_CACHE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>

#include "serve/engine.h"
#include "serve/frozen_model.h"
#include "tensor/tensor.h"

namespace sagdfn::serve {

/// One published tick forecast: immutable once constructed, shared
/// read-only by every concurrent reader. The (model, window_id) pair is
/// the cache key: a forecast is valid exactly as long as no newer tick
/// has arrived for its scenario AND the model it was computed on is
/// still the live one.
struct TickForecast {
  /// The snapshot this forecast was computed on; pins it alive for as
  /// long as any reader holds the forecast.
  std::shared_ptr<const FrozenModel> model;
  /// Monotonic per-scenario tick counter (frames received - 1).
  int64_t window_id = 0;
  /// Scaled predictions [horizon, N].
  tensor::Tensor prediction;
  /// True when this tick ran the O(1) incremental encoder; false for a
  /// full re-encode (warmup, drift guard, or model swap).
  bool incremental = false;
};

/// Single-slot forecast cache for one scenario.
///
/// The production access pattern for forecasting is millions of readers
/// of ONE distinct per-tick forecast per scenario: a tick's forecast is
/// computed once by the scenario's writer (TickStreamer) and then only
/// read until the next tick. So the cache is a single shared_ptr slot
/// behind a mutex that is held only to copy or swap the pointer: Read()
/// is a lock, a refcount increment and an unlock, with no allocation and
/// no work done under the lock, and readers never observe a torn or
/// stale-for-a-new-window value because Publish() replaces the whole
/// immutable TickForecast at once. Every build, sanitized or not, runs
/// this one protocol.
///
/// Invalidation rules (enforced by the writer):
///   - new tick arrives       → Publish() replaces the slot (readers in
///     flight finish on the old forecast they already pinned — that
///     forecast was the newest at the instant they read, which is the
///     strongest guarantee any reader of an asynchronous feed can get);
///   - live model swaps       → Invalidate() clears the slot so no
///     reader is served a forecast from the retired snapshot; the slot
///     stays empty until the writer republishes on the new model.
///
/// Telemetry: read/hit counts are relaxed atomics aggregated into
/// serve.cache.{reads,hits} by whoever snapshots stats();
/// publishes/invalidations bump serve.cache.* counters directly (they
/// are per-tick rare).
class ForecastCache {
 public:
  ForecastCache() = default;
  ForecastCache(const ForecastCache&) = delete;
  ForecastCache& operator=(const ForecastCache&) = delete;

  /// The current forecast, or nullptr when the slot is empty
  /// (pre-warmup, or invalidated by a model swap and not yet
  /// republished). Callers fall back to the engine path on nullptr.
  std::shared_ptr<const TickForecast> Read() const;

  /// Writer side: replaces the slot. `forecast` must be non-null (use
  /// Invalidate() to clear). The previous forecast is released after the
  /// lock is dropped.
  void Publish(std::shared_ptr<const TickForecast> forecast);

  /// Writer side: clears the slot (model swap, scenario teardown).
  /// Readers holding the old forecast keep it alive.
  void Invalidate();

  struct Stats {
    int64_t reads = 0;      ///< Read() calls
    int64_t hits = 0;       ///< Read() calls that returned a forecast
    int64_t publishes = 0;  ///< Publish() calls
    int64_t invalidations = 0;
  };
  Stats stats() const;

 private:
  mutable std::mutex slot_mu_;
  std::shared_ptr<const TickForecast> slot_;  // guarded by slot_mu_
  mutable std::atomic<int64_t> reads_{0};
  mutable std::atomic<int64_t> hits_{0};
  std::atomic<int64_t> publishes_{0};
  std::atomic<int64_t> invalidations_{0};
};

/// Knobs of the per-scenario tick writer.
struct TickStreamerOptions {
  /// Run a FULL re-encode of the retained h-frame window every this many
  /// ticks (0 = never). The incremental chain conditions the hidden
  /// state on EVERY frame since warmup; a periodic full re-encode
  /// restores the paper's h-window conditioning (and bounds any drift
  /// between the streamed distribution and the training windows). This
  /// is a semantic reset, not a numeric repair: incremental ticks are
  /// bit-identical to eagerly re-encoding the accumulated sequence (the
  /// differential test memcmp-verifies it).
  int64_t full_reencode_every = 0;
};

/// The single writer of one scenario's ForecastCache: consumes the
/// scenario's frame stream one tick at a time, computes the new
/// forecast through the precompiled rollout plans, and publishes it.
///
/// Tick cost is O(1) in history length: the GRU encoder hidden state is
/// carried forward across ticks (the TickState), so each tick replays a
/// PlanKind::kIncremental plan — ONE encoder step + the decoder —
/// instead of re-encoding all h frames. The carry contract:
///
///   - warmup: the first h frames buffer; on frame h-1 a kFull replay
///     encodes them from zero init and exports the post-encoder state;
///   - steady state: each tick imports the previous tick's exported
///     state, encodes only the new frame, exports the new state;
///   - the exported state is a byte copy of the plan's hidden slab
///     region, so chaining k incremental ticks is bit-identical to one
///     eager re-encode of all h+k frames received since warmup;
///   - full re-encode (drift guard per full_reencode_every, or model
///     swap): the retained last-h-frame ring replays the kFull plan,
///     restarting the chain.
///
/// Threading: OnTick / SetModel / Invalidate may be called from
/// different threads (the swap observer fires from the swapping
/// thread); they serialize on an internal mutex. Cache readers never
/// take that mutex.
class TickStreamer {
 public:
  /// `cache` must outlive the streamer; `model` is the initial serving
  /// snapshot.
  TickStreamer(std::shared_ptr<const FrozenModel> model, ForecastCache* cache,
               const TickStreamerOptions& options = {});

  /// Feeds the next frame (`frame` [N, C]) and the forecast-window
  /// time-of-day covariates (`future_tod` [horizon]). Computes and
  /// publishes the tick's forecast; returns it, or nullptr while still
  /// warming up (fewer than h frames seen).
  std::shared_ptr<const TickForecast> OnTick(const tensor::Tensor& frame,
                                             const tensor::Tensor& future_tod);

  /// Installs a new serving snapshot: invalidates the cache NOW (no
  /// reader may see a retired model's forecast) and forces a full
  /// re-encode on the next tick. No-op if `model` is the current one.
  void SetModel(std::shared_ptr<const FrozenModel> model);

  /// Hooks `engine`'s swap observer so a registry publish/rollback
  /// invalidates the cache immediately and redirects the streamer to
  /// the new snapshot. The streamer must outlive the engine's use of
  /// the observer (clear it or destroy the engine first).
  void BindEngine(InferenceEngine* engine);

  /// True when the most recent published tick used the incremental path.
  bool last_tick_incremental() const;

 private:
  std::shared_ptr<const TickForecast> ComputeLocked(
      const tensor::Tensor& future_tod);

  const TickStreamerOptions options_;
  ForecastCache* const cache_;

  mutable std::mutex mu_;
  std::shared_ptr<const FrozenModel> model_;  // guarded by mu_
  /// Last h frames, oldest first (the full-re-encode window and the
  /// warmup buffer). Guarded by mu_.
  std::deque<tensor::Tensor> frames_;
  /// Carried encoder state [state_floats] — valid iff state_valid_.
  tensor::Tensor state_;
  bool state_valid_ = false;  // guarded by mu_
  int64_t window_id_ = -1;    // guarded by mu_
  int64_t ticks_since_full_ = 0;
  bool last_incremental_ = false;
};

}  // namespace sagdfn::serve

#endif  // SAGDFN_SERVE_FORECAST_CACHE_H_
