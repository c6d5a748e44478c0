#include "serve/forecast_cache.h"

#include <cstring>
#include <utility>

#include "obs/telemetry.h"
#include "utils/check.h"

namespace sagdfn::serve {

using tensor::Shape;
using tensor::Tensor;

// ---------------------------------------------------------------------------
// ForecastCache

std::shared_ptr<const TickForecast> ForecastCache::Read() const {
  reads_.fetch_add(1, std::memory_order_relaxed);
#if defined(SAGDFN_FORECAST_CACHE_ATOMIC_SLOT)
  std::shared_ptr<const TickForecast> f = slot_.load(std::memory_order_acquire);
#else
  std::shared_ptr<const TickForecast> f = std::atomic_load(&slot_);
#endif
  if (f != nullptr) hits_.fetch_add(1, std::memory_order_relaxed);
  return f;
}

void ForecastCache::Publish(std::shared_ptr<const TickForecast> forecast) {
  SAGDFN_CHECK(forecast != nullptr);
#if defined(SAGDFN_FORECAST_CACHE_ATOMIC_SLOT)
  slot_.store(std::move(forecast), std::memory_order_release);
#else
  std::atomic_store(&slot_, std::shared_ptr<const TickForecast>(
                                std::move(forecast)));
#endif
  publishes_.fetch_add(1, std::memory_order_relaxed);
  obs::Telemetry::Global().AddCounter("serve.cache.publishes");
}

void ForecastCache::Invalidate() {
#if defined(SAGDFN_FORECAST_CACHE_ATOMIC_SLOT)
  slot_.store(nullptr, std::memory_order_release);
#else
  std::atomic_store(&slot_, std::shared_ptr<const TickForecast>());
#endif
  invalidations_.fetch_add(1, std::memory_order_relaxed);
  obs::Telemetry::Global().AddCounter("serve.cache.invalidations");
}

ForecastCache::Stats ForecastCache::stats() const {
  Stats s;
  s.reads = reads_.load(std::memory_order_relaxed);
  s.hits = hits_.load(std::memory_order_relaxed);
  s.publishes = publishes_.load(std::memory_order_relaxed);
  s.invalidations = invalidations_.load(std::memory_order_relaxed);
  return s;
}

// ---------------------------------------------------------------------------
// TickStreamer

TickStreamer::TickStreamer(std::shared_ptr<const FrozenModel> model,
                           ForecastCache* cache,
                           const TickStreamerOptions& options)
    : options_(options), cache_(cache), model_(std::move(model)) {
  SAGDFN_CHECK(model_ != nullptr);
  SAGDFN_CHECK(cache_ != nullptr);
}

std::shared_ptr<const TickForecast> TickStreamer::OnTick(
    const Tensor& frame, const Tensor& future_tod) {
  std::lock_guard<std::mutex> lock(mu_);
  const core::SagdfnConfig& cfg = model_->config();
  SAGDFN_CHECK_EQ(frame.ndim(), 2);
  SAGDFN_CHECK_EQ(frame.dim(0), cfg.num_nodes);
  SAGDFN_CHECK_EQ(frame.dim(1), cfg.input_dim);
  SAGDFN_CHECK_EQ(future_tod.ndim(), 1);
  SAGDFN_CHECK_EQ(future_tod.dim(0), cfg.horizon);

  ++window_id_;
  // Clone: the caller may reuse its frame buffer for the next tick, but
  // the retained window must stay frozen for full re-encodes.
  frames_.push_back(frame.Clone());
  while (static_cast<int64_t>(frames_.size()) > cfg.history) {
    frames_.pop_front();
  }
  if (static_cast<int64_t>(frames_.size()) < cfg.history) {
    return nullptr;  // warming up: not enough frames for the first window
  }
  std::shared_ptr<const TickForecast> forecast = ComputeLocked(future_tod);
  cache_->Publish(forecast);
  return forecast;
}

std::shared_ptr<const TickForecast> TickStreamer::ComputeLocked(
    const Tensor& future_tod) {
  const core::SagdfnConfig& cfg = model_->config();
  const int64_t n = cfg.num_nodes;
  const int64_t c = cfg.input_dim;
  const int64_t h = cfg.history;
  const int64_t f = cfg.horizon;

  Tensor ft{Shape({1, f})};
  std::memcpy(ft.data(), future_tod.data(), sizeof(float) * f);

  const bool drift_guard_due =
      options_.full_reencode_every > 0 &&
      ticks_since_full_ >= options_.full_reencode_every;
  const bool incremental = state_valid_ && !drift_guard_due;

  Tensor pred;
  if (incremental) {
    // O(1) tick: import last tick's state, encode only the new frame.
    std::shared_ptr<const core::RolloutPlan> plan =
        model_->PlanFor(1, core::PlanKind::kIncremental);
    // The state comes from the last kFull replay on this same model.
    SAGDFN_CHECK_EQ(state_.size(), plan->state_floats(1));
    Tensor x{Shape({1, 1, n, c})};
    std::memcpy(x.data(), frames_.back().data(), sizeof(float) * n * c);
    pred = plan->Run(x, ft, &state_, &state_);
    ++ticks_since_full_;
  } else {
    // Full re-encode of the retained h-frame window from zero init:
    // warmup, periodic drift guard, or first tick on a swapped model.
    std::shared_ptr<const core::RolloutPlan> plan =
        model_->PlanFor(1, core::PlanKind::kFull);
    if (state_.size() != plan->state_floats(1)) {
      state_ = Tensor{Shape({plan->state_floats(1)})};
    }
    Tensor x{Shape({1, h, n, c})};
    float* dst = x.data();
    for (const Tensor& fr : frames_) {
      std::memcpy(dst, fr.data(), sizeof(float) * n * c);
      dst += n * c;
    }
    pred = plan->Run(x, ft, /*h_in=*/nullptr, &state_);
    state_valid_ = true;
    ticks_since_full_ = 0;
  }
  last_incremental_ = incremental;

  auto forecast = std::make_shared<TickForecast>();
  forecast->model = model_;
  forecast->window_id = window_id_;
  forecast->prediction = pred.Reshape({f, n});
  forecast->incremental = incremental;
  return forecast;
}

void TickStreamer::SetModel(std::shared_ptr<const FrozenModel> model) {
  SAGDFN_CHECK(model != nullptr);
  std::lock_guard<std::mutex> lock(mu_);
  if (model.get() == model_.get()) return;
  // Swapped-out snapshot: nothing computed on it may be served again,
  // and its carried state is meaningless under the new weights.
  model_ = std::move(model);
  state_valid_ = false;
  cache_->Invalidate();
}

void TickStreamer::BindEngine(InferenceEngine* engine) {
  SAGDFN_CHECK(engine != nullptr);
  engine->SetSwapObserver(
      [this](const std::shared_ptr<const FrozenModel>& model, SwapKind) {
        SetModel(model);
      });
}

int64_t TickStreamer::window_id() const {
  std::lock_guard<std::mutex> lock(mu_);
  return window_id_;
}

bool TickStreamer::last_tick_incremental() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_incremental_;
}

}  // namespace sagdfn::serve
