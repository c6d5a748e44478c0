#ifndef SAGDFN_SERVE_ENGINE_H_
#define SAGDFN_SERVE_ENGINE_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/frozen_model.h"
#include "tensor/tensor.h"
#include "utils/status.h"

namespace sagdfn::serve {

/// Batching / concurrency knobs of the InferenceEngine.
struct EngineOptions {
  /// Worker threads draining the submission queue. Each worker runs one
  /// micro-batch at a time through the shared FrozenModel.
  int64_t num_workers = 1;
  /// A micro-batch flushes as soon as this many requests are pending...
  int64_t max_batch = 8;
  /// ...or this long after its oldest request arrived, whichever comes
  /// first (0 = never wait: each worker takes whatever is queued).
  int64_t max_wait_us = 1000;
  /// Submission backpressure: Submit() rejects (ResourceExhausted) when
  /// this many requests are already queued.
  int64_t max_queue_depth = 4096;
  /// Graceful load shedding: when > 0 and the queue already holds this
  /// many requests, Submit() sheds the request (Unavailable) instead of
  /// letting it queue up toward the hard max_queue_depth wall. A soft
  /// watermark below max_queue_depth keeps latency bounded under
  /// sustained overload: work that would only expire in the queue is
  /// turned away at the door. 0 disables shedding.
  int64_t shed_queue_depth = 0;
  /// Default per-request deadline applied by Submit(x, tod) when the
  /// caller does not pass an explicit one. 0 = requests never expire.
  int64_t default_deadline_us = 0;
  /// Shutdown policy for queued-but-unstarted requests: true runs them to
  /// completion, false rejects them (FailedPrecondition). Either way every
  /// outstanding future is satisfied before the destructor returns — no
  /// future is ever left dangling.
  bool drain_on_shutdown = true;
  /// Tenant id owning this engine in a multi-tenant process. Empty keeps
  /// the legacy process-global telemetry names (serve.requests.*); when
  /// set, every counter/gauge/timer is namespaced as
  /// serve.<tenant>.requests.* etc., and serve-side fault probes
  /// (nan_forecast / slow_batch / swap_race) carry the tenant id so a
  /// `@tenant=ID`-qualified fault spec hits only this engine.
  std::string tenant;
};

/// Result of one request: `prediction` is the scaled forecast [f, N] when
/// `status.ok()`, empty otherwise.
struct Forecast {
  utils::Status status;
  tensor::Tensor prediction;
};

/// Point-in-time engine counters (all monotonic except queue_depth).
struct EngineStats {
  int64_t submitted = 0;
  int64_t completed = 0;
  int64_t rejected = 0;
  /// Requests whose deadline expired before they ran (DeadlineExceeded).
  int64_t timed_out = 0;
  /// Requests shed at the soft overload watermark (Unavailable).
  int64_t shed = 0;
  /// Requests whose forecast failed the non-finite audit (Internal).
  int64_t nonfinite = 0;
  /// Model swaps applied via SwapModel (rollbacks included).
  int64_t swaps = 0;
  /// Swaps that were rollbacks to a previous snapshot.
  int64_t rollbacks = 0;
  int64_t batches = 0;
  int64_t queue_depth = 0;
};

/// Why a model swap happened; distinguishes the counters and telemetry a
/// registry publish bumps from the ones a health-probe rollback bumps.
enum class SwapKind { kPublish, kRollback };

/// Per-micro-batch report handed to the batch observer after the batch's
/// output audit but BEFORE its promises are fulfilled: by the time any
/// caller's future from this batch is ready, counters reflect the batch
/// and any rollback the observer decided on has been applied — rollback
/// latency is bounded in requests, not wall clock. `model` identifies the
/// batch actually ran on (in-flight batches keep running on the old
/// snapshot across a swap), so an observer can attribute health signals
/// to the correct model.
struct BatchReport {
  const FrozenModel* model = nullptr;
  int64_t batch_size = 0;
  /// Wall-clock seconds spent in FrozenModel::Predict for this batch
  /// (includes injected slow_batch stalls — that is the point).
  double compute_seconds = 0.0;
  /// Requests in this batch whose forecast contained a non-finite value
  /// (each was completed with an Internal status, never served).
  int64_t nonfinite_requests = 0;
};

/// Called for every micro-batch, from the worker thread that ran it.
/// Must be cheap and must not block (it delays the batch's completion);
/// it MAY call SwapModel (the registry's health-probe rollback does
/// exactly that).
using BatchObserver = std::function<void(const BatchReport&)>;

/// Called after every successful SwapModel, from the swapping thread,
/// AFTER the new snapshot took effect — any batch assembled once the
/// callback fires runs on `model`. Streaming caches hook this to drop
/// forecasts computed on the old snapshot immediately instead of at
/// their next tick (see serve::TickStreamer::BindEngine). Must be cheap
/// and must not call back into SwapModel (it runs outside the engine
/// lock, but a re-entrant swap would recurse into the observer).
using SwapObserver = std::function<void(
    const std::shared_ptr<const FrozenModel>& model, SwapKind kind)>;

/// Concurrent batched inference engine over a hot-swappable FrozenModel.
///
/// Requests enter a submission queue; worker threads assemble dynamic
/// micro-batches along the batch dimension (flush on max_batch or
/// max_wait_us, skipping entries whose deadline already expired), run the
/// shared frozen model (whose kernels in turn use the global
/// ParallelFor/SIMD backend), audit the [B, f, N] output for non-finite
/// values, split it back into per-request forecasts, and fulfill the
/// promises.
///
/// Determinism contract: every kernel in the rollout treats batch rows
/// independently, so a request's forecast is byte-identical whether it
/// ran alone, in any micro-batch composition, serially, or under any
/// worker count or arrival interleaving (tests/serve_engine_test.cc
/// memcmp-verifies this).
///
/// Hot swap: SwapModel() atomically replaces the serving snapshot. Each
/// micro-batch pins the snapshot (a shared_ptr copy) before computing, so
/// in-flight batches finish on the model they started with — no drain, no
/// dangling futures — and the old snapshot is freed when its last batch
/// retires. tests/registry_test.cc memcmp-verifies both sides of a swap.
///
/// Failure semantics: Submit rejects malformed requests
/// (InvalidArgument), sheds at the soft overload watermark (Unavailable),
/// bounces at the hard queue wall (ResourceExhausted), and refuses
/// already-expired deadlines (DeadlineExceeded); workers reject
/// queue-expired requests at batch assembly without executing them; and
/// non-finite forecasts are failed (Internal) instead of served.
///
/// Telemetry (src/obs): counters serve.requests.{submitted,completed,
/// rejected,timed_out,shed,nonfinite}, serve.batches, serve.swaps and
/// serve.rollbacks, gauges serve.queue_depth and serve.last_batch_size,
/// timer serve.batch.compute, and per-request end-to-end latency under
/// serve.request.latency. With EngineOptions::tenant set, every name is
/// prefixed serve.<tenant>.* instead, so per-tenant engines never share
/// (or interleave) a counter namespace.
class InferenceEngine {
 public:
  /// `model` is shared read-only; the engine keeps it (and any snapshot
  /// later swapped in) alive via shared_ptr for as long as a batch might
  /// still be running on it. Sizes the model's rollout plan for
  /// max_batch, so no batch a worker forms compiles one (the registry's
  /// gate does the same for every candidate it swaps in).
  InferenceEngine(std::shared_ptr<const FrozenModel> model,
                  const EngineOptions& options);

  /// Calls Shutdown(): all outstanding futures are satisfied first.
  ~InferenceEngine();

  InferenceEngine(const InferenceEngine&) = delete;
  InferenceEngine& operator=(const InferenceEngine&) = delete;

  /// Enqueues one request. `x` is [h, N, C], `future_tod` [f]. The
  /// returned future always becomes ready: with the forecast, or with a
  /// non-ok status when the request is malformed (InvalidArgument, checked
  /// here so workers can never abort on bad input), the engine is
  /// shedding (Unavailable), the queue is full (ResourceExhausted), the
  /// deadline expired (DeadlineExceeded), or the engine is shutting down
  /// (FailedPrecondition). Applies EngineOptions::default_deadline_us.
  std::future<Forecast> Submit(tensor::Tensor x, tensor::Tensor future_tod);

  /// Same, with an explicit per-request deadline: the request is rejected
  /// with DeadlineExceeded — and never executed — unless a worker picks
  /// it up within `timeout` of submission. timeout <= 0 means no
  /// deadline (overriding any engine-level default).
  std::future<Forecast> Submit(tensor::Tensor x, tensor::Tensor future_tod,
                               std::chrono::microseconds timeout);

  /// Atomically replaces the serving snapshot. In-flight and
  /// already-assembled batches finish on the snapshot they pinned; every
  /// batch assembled after this returns runs on `model`. Fails
  /// (InvalidArgument) without swapping when `model`'s config is not
  /// request-compatible with the current one (same history, nodes,
  /// channels, horizon — queued requests were validated against those
  /// shapes and must stay servable). `kind` selects which counters bump.
  utils::Status SwapModel(std::shared_ptr<const FrozenModel> model,
                          SwapKind kind = SwapKind::kPublish);

  /// The snapshot new batches would run on right now.
  std::shared_ptr<const FrozenModel> model_snapshot() const;

  /// Installs (or clears, with nullptr-like empty function) the
  /// per-micro-batch observer. Takes effect for batches that finish after
  /// this returns.
  void SetBatchObserver(BatchObserver observer);

  /// Installs (or clears) the swap observer, invoked after every
  /// successful SwapModel. Takes effect for swaps that start after this
  /// returns.
  void SetSwapObserver(SwapObserver observer);

  /// Stops intake, then drains or rejects the queue per
  /// EngineOptions::drain_on_shutdown and joins the workers. Idempotent;
  /// after it returns no future is pending.
  void Shutdown();

  EngineStats stats() const;
  const EngineOptions& options() const { return options_; }

 private:
  using Clock = std::chrono::steady_clock;

  struct Request {
    tensor::Tensor x;           // [h, N, C]
    tensor::Tensor future_tod;  // [f]
    std::promise<Forecast> promise;
    Clock::time_point enqueued;
    Clock::time_point deadline;  // Clock::time_point::max() = none
  };

  /// Rejects immediately with `status` (never touches the queue).
  static std::future<Forecast> RejectedFuture(utils::Status status);

  std::future<Forecast> SubmitInternal(tensor::Tensor x,
                                       tensor::Tensor future_tod,
                                       Clock::time_point deadline);

  void WorkerLoop();

  /// Fails every request in `expired` with DeadlineExceeded (already
  /// counted under mu_ by the caller).
  void RejectExpired(std::vector<Request> expired);

  /// Stacks `batch`, runs the pinned frozen snapshot, audits the output,
  /// splits it, fulfills every promise in the batch, and reports to the
  /// batch observer.
  void RunBatch(std::vector<Request> batch);

  /// Telemetry names, prefixed with the tenant id once at construction so
  /// the hot paths never concatenate strings per request.
  struct TelemetryNames {
    std::string submitted;
    std::string completed;
    std::string rejected;
    std::string timed_out;
    std::string shed;
    std::string nonfinite;
    std::string batches;
    std::string swaps;
    std::string rollbacks;
    std::string queue_depth;
    std::string last_batch_size;
    std::string batch_compute;
    std::string request_latency;
  };

  EngineOptions options_;
  TelemetryNames names_;

  mutable std::mutex mu_;
  std::condition_variable queue_cv_;  // workers wait here
  std::deque<Request> queue_;         // guarded by mu_
  bool stopping_ = false;             // guarded by mu_

  /// The serving snapshot (guarded by mu_). Batches pin a copy before
  /// computing, so SwapModel never invalidates in-flight work.
  std::shared_ptr<const FrozenModel> model_;

  /// Guarded by mu_; shared_ptr-wrapped so RunBatch can pin the observer
  /// alongside the model without holding the lock across the callback.
  std::shared_ptr<const BatchObserver> observer_;

  /// Guarded by mu_; pinned and invoked outside the lock by SwapModel.
  std::shared_ptr<const SwapObserver> swap_observer_;

  /// Serializes Shutdown() callers (never taken by workers); `joined_` is
  /// guarded by it.
  std::mutex shutdown_mu_;
  bool joined_ = false;

  // Counters (guarded by mu_; cheap enough at request granularity).
  EngineStats stats_;

  std::vector<std::thread> workers_;
};

}  // namespace sagdfn::serve

#endif  // SAGDFN_SERVE_ENGINE_H_
