#include "serve/engine.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>

#include "obs/telemetry.h"
#include "utils/check.h"
#include "utils/fault.h"

namespace sagdfn::serve {

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::duration<double>>(
             Clock::now() - start)
      .count();
}

/// Request-shape compatibility between two snapshots: everything a queued
/// request was validated against must agree, or a swap would strand it.
bool RequestCompatible(const core::SagdfnConfig& a,
                       const core::SagdfnConfig& b) {
  return a.history == b.history && a.num_nodes == b.num_nodes &&
         a.horizon == b.horizon;
}

}  // namespace

InferenceEngine::InferenceEngine(std::shared_ptr<const FrozenModel> model,
                                 const EngineOptions& options)
    : options_(options), model_(std::move(model)) {
  SAGDFN_CHECK(model_ != nullptr);
  // serve.* for the legacy single-tenant process, serve.<tenant>.* when
  // this engine is one lane of a multi-tenant router.
  const std::string prefix =
      options_.tenant.empty() ? "serve." : "serve." + options_.tenant + ".";
  names_.submitted = prefix + "requests.submitted";
  names_.completed = prefix + "requests.completed";
  names_.rejected = prefix + "requests.rejected";
  names_.timed_out = prefix + "requests.timed_out";
  names_.shed = prefix + "requests.shed";
  names_.nonfinite = prefix + "requests.nonfinite";
  names_.batches = prefix + "batches";
  names_.swaps = prefix + "swaps";
  names_.rollbacks = prefix + "rollbacks";
  names_.queue_depth = prefix + "queue_depth";
  names_.last_batch_size = prefix + "last_batch_size";
  names_.batch_compute = prefix + "batch.compute";
  names_.request_latency = prefix + "request.latency";
  SAGDFN_CHECK_GE(options_.num_workers, 1);
  SAGDFN_CHECK_GE(options_.max_batch, 1);
  SAGDFN_CHECK_GE(options_.max_wait_us, 0);
  SAGDFN_CHECK_GE(options_.max_queue_depth, 1);
  SAGDFN_CHECK_GE(options_.shed_queue_depth, 0);
  SAGDFN_CHECK_GE(options_.default_deadline_us, 0);
  // Size the model's plan for the largest batch a worker can form, so no
  // live batch ever compiles one.
  model_->PlanFor(options_.max_batch);
  workers_.reserve(options_.num_workers);
  for (int64_t i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

InferenceEngine::~InferenceEngine() { Shutdown(); }

std::future<Forecast> InferenceEngine::RejectedFuture(utils::Status status) {
  std::promise<Forecast> promise;
  std::future<Forecast> future = promise.get_future();
  promise.set_value(Forecast{std::move(status), tensor::Tensor()});
  return future;
}

std::future<Forecast> InferenceEngine::Submit(tensor::Tensor x,
                                              tensor::Tensor future_tod) {
  const Clock::time_point deadline =
      options_.default_deadline_us > 0
          ? Clock::now() + std::chrono::microseconds(options_.default_deadline_us)
          : Clock::time_point::max();
  return SubmitInternal(std::move(x), std::move(future_tod), deadline);
}

std::future<Forecast> InferenceEngine::Submit(
    tensor::Tensor x, tensor::Tensor future_tod,
    std::chrono::microseconds timeout) {
  const Clock::time_point deadline = timeout.count() > 0
                                         ? Clock::now() + timeout
                                         : Clock::time_point::max();
  return SubmitInternal(std::move(x), std::move(future_tod), deadline);
}

std::future<Forecast> InferenceEngine::SubmitInternal(
    tensor::Tensor x, tensor::Tensor future_tod,
    Clock::time_point deadline) {
  const auto reject = [this](utils::Status status, int64_t EngineStats::*slot,
                             const std::string& counter) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++(stats_.*slot);
    }
    obs::Telemetry::Global().AddCounter(counter);
    return RejectedFuture(std::move(status));
  };

  core::SagdfnConfig config;
  {
    std::lock_guard<std::mutex> lock(mu_);
    config = model_->config();
  }
  if (x.ndim() != 3 || x.dim(0) != config.history ||
      x.dim(1) != config.num_nodes || x.dim(2) != config.input_dim) {
    return reject(utils::Status::InvalidArgument(
                      "request x must be [h, N, C] = [" +
                      std::to_string(config.history) + ", " +
                      std::to_string(config.num_nodes) + ", " +
                      std::to_string(config.input_dim) + "], got " +
                      x.shape().ToString()),
                  &EngineStats::rejected, names_.rejected);
  }
  if (future_tod.ndim() != 1 || future_tod.dim(0) != config.horizon) {
    return reject(utils::Status::InvalidArgument(
                      "request future_tod must be [f] = [" +
                      std::to_string(config.horizon) + "], got " +
                      future_tod.shape().ToString()),
                  &EngineStats::rejected, names_.rejected);
  }
  if (deadline != Clock::time_point::max() && Clock::now() >= deadline) {
    return reject(
        utils::Status::DeadlineExceeded("request deadline already expired"),
        &EngineStats::timed_out, names_.timed_out);
  }

  Request request;
  request.x = std::move(x);
  request.future_tod = std::move(future_tod);
  request.enqueued = Clock::now();
  request.deadline = deadline;
  std::future<Forecast> future = request.promise.get_future();

  utils::Status reject_status;
  int64_t EngineStats::*reject_slot = &EngineStats::rejected;
  const std::string* reject_counter = &names_.rejected;
  int64_t depth = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      reject_status = utils::Status::FailedPrecondition(
          "inference engine is shutting down");
    } else if (static_cast<int64_t>(queue_.size()) >=
               options_.max_queue_depth) {
      reject_status = utils::Status::ResourceExhausted(
          "inference queue full (" +
          std::to_string(options_.max_queue_depth) + " requests)");
    } else if (options_.shed_queue_depth > 0 &&
               static_cast<int64_t>(queue_.size()) >=
                   options_.shed_queue_depth) {
      reject_status = utils::Status::Unavailable(
          "shedding load: " + std::to_string(queue_.size()) +
          " requests already queued (watermark " +
          std::to_string(options_.shed_queue_depth) + ")");
      reject_slot = &EngineStats::shed;
      reject_counter = &names_.shed;
    } else {
      queue_.push_back(std::move(request));
      ++stats_.submitted;
      depth = static_cast<int64_t>(queue_.size());
    }
  }
  if (!reject_status.ok()) {
    return reject(std::move(reject_status), reject_slot, *reject_counter);
  }
  obs::Telemetry& telemetry = obs::Telemetry::Global();
  telemetry.AddCounter(names_.submitted);
  telemetry.SetGauge(names_.queue_depth, static_cast<double>(depth));
  queue_cv_.notify_one();
  return future;
}

utils::Status InferenceEngine::SwapModel(
    std::shared_ptr<const FrozenModel> model, SwapKind kind) {
  if (model == nullptr) {
    return utils::Status::InvalidArgument("SwapModel: model is null");
  }
  std::shared_ptr<const FrozenModel> installed = model;
  std::shared_ptr<const SwapObserver> swap_observer;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!RequestCompatible(model_->config(), model->config())) {
      return utils::Status::InvalidArgument(
          "SwapModel: candidate config is not request-compatible with the "
          "live model (history/nodes/channels/horizon must match)");
    }
    // The old snapshot's shared_ptr is released here; batches that pinned
    // it keep it alive until they retire.
    model_ = std::move(model);
    ++stats_.swaps;
    if (kind == SwapKind::kRollback) ++stats_.rollbacks;
    swap_observer = swap_observer_;
  }
  obs::Telemetry& telemetry = obs::Telemetry::Global();
  telemetry.AddCounter(names_.swaps);
  if (kind == SwapKind::kRollback) telemetry.AddCounter(names_.rollbacks);
  // Outside the lock: the observer may take its own locks (the forecast
  // cache does) and must not deadlock against Submit/RunBatch.
  if (swap_observer != nullptr) (*swap_observer)(installed, kind);
  return utils::Status::Ok();
}

std::shared_ptr<const FrozenModel> InferenceEngine::model_snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return model_;
}

void InferenceEngine::SetBatchObserver(BatchObserver observer) {
  auto shared = observer
                    ? std::make_shared<const BatchObserver>(std::move(observer))
                    : std::shared_ptr<const BatchObserver>();
  std::lock_guard<std::mutex> lock(mu_);
  observer_ = std::move(shared);
}

void InferenceEngine::SetSwapObserver(SwapObserver observer) {
  auto shared = observer
                    ? std::make_shared<const SwapObserver>(std::move(observer))
                    : std::shared_ptr<const SwapObserver>();
  std::lock_guard<std::mutex> lock(mu_);
  swap_observer_ = std::move(shared);
}

void InferenceEngine::WorkerLoop() {
  const auto max_wait = std::chrono::microseconds(options_.max_wait_us);
  for (;;) {
    std::vector<Request> batch;
    std::vector<Request> expired;
    {
      std::unique_lock<std::mutex> lock(mu_);
      for (;;) {
        if (queue_.empty()) {
          if (stopping_) return;
          queue_cv_.wait(lock);
          continue;
        }
        // A batch is ready when it is full, its oldest request has waited
        // max_wait_us, or the engine is draining (no point waiting for
        // arrivals that can no longer come).
        if (stopping_ ||
            static_cast<int64_t>(queue_.size()) >= options_.max_batch ||
            options_.max_wait_us == 0) {
          break;
        }
        const auto deadline = queue_.front().enqueued + max_wait;
        if (Clock::now() >= deadline) break;
        queue_cv_.wait_until(lock, deadline);
      }
      // Assemble up to max_batch live requests, skipping (and failing)
      // entries whose deadline expired in the queue — dead work is never
      // executed, and it never displaces live requests from the batch.
      const auto now = Clock::now();
      while (!queue_.empty() &&
             static_cast<int64_t>(batch.size()) < options_.max_batch) {
        Request request = std::move(queue_.front());
        queue_.pop_front();
        if (now >= request.deadline) {
          expired.push_back(std::move(request));
        } else {
          batch.push_back(std::move(request));
        }
      }
      stats_.timed_out += static_cast<int64_t>(expired.size());
      obs::Telemetry::Global().SetGauge(
          names_.queue_depth, static_cast<double>(queue_.size()));
    }
    // Wake siblings: more requests may remain for another batch, and
    // drain-mode shutdown needs every worker to re-check the queue.
    queue_cv_.notify_all();
    if (!expired.empty()) RejectExpired(std::move(expired));
    if (!batch.empty()) RunBatch(std::move(batch));
  }
}

void InferenceEngine::RejectExpired(std::vector<Request> expired) {
  obs::Telemetry& telemetry = obs::Telemetry::Global();
  for (Request& request : expired) {
    request.promise.set_value(Forecast{
        utils::Status::DeadlineExceeded(
            "request deadline expired while queued"),
        tensor::Tensor()});
    telemetry.AddCounter(names_.timed_out);
  }
}

void InferenceEngine::RunBatch(std::vector<Request> batch) {
  const int64_t b = static_cast<int64_t>(batch.size());
  SAGDFN_CHECK_GT(b, 0);

  // Pin the serving snapshot (and observer): this batch runs to
  // completion on `model` even if SwapModel replaces the engine's
  // pointer mid-compute.
  std::shared_ptr<const FrozenModel> model;
  std::shared_ptr<const BatchObserver> observer;
  {
    std::lock_guard<std::mutex> lock(mu_);
    model = model_;
    observer = observer_;
  }
  utils::FaultInjector& injector = utils::FaultInjector::Global();
  int64_t race_us = 0;
  if (injector.FireParam(utils::FaultSite::kSwapRace, options_.tenant,
                         &race_us)) {
    // Deterministically widen the window between snapshot pin and
    // compute so swap-under-load tests can land a swap inside it.
    std::this_thread::sleep_for(std::chrono::microseconds(race_us));
  }

  const core::SagdfnConfig& config = model->config();
  const int64_t sample = config.history * config.num_nodes *
                         config.input_dim;
  const int64_t f = config.horizon;
  const int64_t n = config.num_nodes;

  // Stack along the batch dimension. Predict() is batch-row independent,
  // so this composition does not change any request's bytes.
  tensor::Tensor x(tensor::Shape(
      {b, config.history, config.num_nodes, config.input_dim}));
  tensor::Tensor tod(tensor::Shape({b, f}));
  for (int64_t i = 0; i < b; ++i) {
    std::memcpy(x.data() + i * sample, batch[i].x.data(),
                sample * sizeof(float));
    std::memcpy(tod.data() + i * f, batch[i].future_tod.data(),
                f * sizeof(float));
  }

  tensor::Tensor predictions;
  const auto compute_start = Clock::now();
  {
    predictions = model->Predict(x, tod);  // [B, f, N]
    int64_t slow_us = 0;
    if (injector.FireParam(utils::FaultSite::kSlowBatch, options_.tenant,
                           &slow_us)) {
      std::this_thread::sleep_for(std::chrono::microseconds(slow_us));
    }
  }
  const double compute_seconds = SecondsSince(compute_start);
  if (injector.FireCounted(utils::FaultSite::kNanForecast,
                           options_.tenant)) {
    // Poison the whole batch output: the audit below must catch it.
    std::fill(predictions.data(), predictions.data() + predictions.size(),
              std::numeric_limits<float>::quiet_NaN());
  }

  // Audit the whole batch BEFORE fulfilling any promise: stats() and
  // telemetry must already reflect this batch by the time a caller's
  // future.get() returns.
  obs::Telemetry& telemetry = obs::Telemetry::Global();
  std::vector<char> finite(b, 1);
  int64_t nonfinite = 0;
  for (int64_t i = 0; i < b; ++i) {
    const float* row = predictions.data() + i * f * n;
    for (int64_t j = 0; j < f * n; ++j) {
      if (!std::isfinite(row[j])) {
        finite[i] = 0;
        ++nonfinite;
        break;
      }
    }
  }
  const int64_t completed = b - nonfinite;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.completed += completed;
    stats_.nonfinite += nonfinite;
    ++stats_.batches;
  }
  telemetry.AddCounter(names_.completed, completed);
  if (nonfinite > 0) {
    telemetry.AddCounter(names_.nonfinite, nonfinite);
  }
  telemetry.AddCounter(names_.batches);
  telemetry.SetGauge(names_.last_batch_size, static_cast<double>(b));
  telemetry.RecordDuration(names_.batch_compute, compute_seconds);

  // Observer before fulfillment for the same reason: a health-probe
  // rollback triggered by this batch is already applied when the caller's
  // future becomes ready, which bounds rollback latency in requests.
  if (observer != nullptr && *observer) {
    BatchReport report;
    report.model = model.get();
    report.batch_size = b;
    report.compute_seconds = compute_seconds;
    report.nonfinite_requests = nonfinite;
    (*observer)(report);
  }

  for (int64_t i = 0; i < b; ++i) {
    telemetry.RecordDuration(names_.request_latency,
                             SecondsSince(batch[i].enqueued));
    if (!finite[i]) {
      batch[i].promise.set_value(Forecast{
          utils::Status::Internal("forecast contained non-finite values"),
          tensor::Tensor()});
      continue;
    }
    const float* row = predictions.data() + i * f * n;
    tensor::Tensor forecast(tensor::Shape({f, n}));
    std::memcpy(forecast.data(), row, f * n * sizeof(float));
    batch[i].promise.set_value(
        Forecast{utils::Status::Ok(), std::move(forecast)});
  }
}

void InferenceEngine::Shutdown() {
  // Serializes concurrent Shutdown()/destructor calls; workers never call
  // Shutdown, so holding this across the join cannot deadlock.
  std::lock_guard<std::mutex> shutdown_lock(shutdown_mu_);

  std::vector<Request> rejected;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    if (!options_.drain_on_shutdown) {
      while (!queue_.empty()) {
        rejected.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      stats_.rejected += static_cast<int64_t>(rejected.size());
    }
  }
  queue_cv_.notify_all();
  for (Request& request : rejected) {
    request.promise.set_value(Forecast{
        utils::Status::FailedPrecondition(
            "inference engine shut down before this request ran"),
        tensor::Tensor()});
    obs::Telemetry::Global().AddCounter(names_.rejected);
  }

  if (!joined_) {
    for (std::thread& worker : workers_) worker.join();
    joined_ = true;
  }
  // Drain mode leaves nothing behind by construction; double-check so a
  // future can never dangle even if a policy bug slipped through.
  std::vector<Request> leftovers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    while (!queue_.empty()) {
      leftovers.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
  }
  for (Request& request : leftovers) {
    request.promise.set_value(Forecast{
        utils::Status::Internal("request missed by shutdown drain"),
        tensor::Tensor()});
  }
}

EngineStats InferenceEngine::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  EngineStats snapshot = stats_;
  snapshot.queue_depth = static_cast<int64_t>(queue_.size());
  return snapshot;
}

}  // namespace sagdfn::serve
