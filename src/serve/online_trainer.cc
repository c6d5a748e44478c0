#include "serve/online_trainer.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <utility>

#include "data/time_series.h"
#include "utils/check.h"

namespace sagdfn::serve {

OnlineTrainer::OnlineTrainer(TenantRouter* router, OnlineTrainerOptions options)
    : router_(router), options_(std::move(options)) {
  SAGDFN_CHECK(router_ != nullptr);
  if (!options_.candidate_dir.empty()) {
    std::error_code ec;  // surfaced later as a save error, not a crash
    std::filesystem::create_directories(options_.candidate_dir, ec);
  }
}

OnlineTrainer::~OnlineTrainer() { Stop(); }

utils::Status OnlineTrainer::Track(const std::string& tenant,
                                   const data::StandardScaler& scaler,
                                   data::WindowSpec window,
                                   int64_t steps_per_day) {
  if (tenant.empty()) {
    return utils::Status::InvalidArgument("tenant id must be non-empty");
  }
  if (!scaler.fitted()) {
    return utils::Status::InvalidArgument(
        "online trainer needs the deployment's fitted scaler");
  }
  if (steps_per_day <= 0) {
    return utils::Status::InvalidArgument("steps_per_day must be positive");
  }
  auto state = std::make_shared<TenantState>();
  state->scaler = scaler;
  state->window = window;
  state->steps_per_day = steps_per_day;
  std::lock_guard<std::mutex> lock(mu_);
  if (tenants_.count(tenant) > 0) {
    return utils::Status::InvalidArgument("tenant already tracked: " + tenant);
  }
  tenants_[tenant] = std::move(state);
  return utils::Status::Ok();
}

utils::Status OnlineTrainer::Untrack(const std::string& tenant) {
  std::lock_guard<std::mutex> lock(mu_);
  if (tenants_.erase(tenant) == 0) {
    return utils::Status::NotFound("tenant not tracked: " + tenant);
  }
  return utils::Status::Ok();
}

std::shared_ptr<OnlineTrainer::TenantState> OnlineTrainer::FindState(
    const std::string& tenant) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tenants_.find(tenant);
  return it == tenants_.end() ? nullptr : it->second;
}

int64_t OnlineTrainer::RoundFloor(const TenantState& state) const {
  // ForecastDataset splits 70/10/20 chronologically and every split must
  // hold at least one (history + horizon) window; the 10% validation
  // slice is the binding constraint, so the buffer needs ~10x the window
  // (+10 to absorb the floor() in the split arithmetic).
  const int64_t window = state.window.history + state.window.horizon;
  return 10 * window + 10;
}

int64_t OnlineTrainer::RingCap(const TenantState& state) const {
  // The round floor rounded up to whole days, so trimming (whole days
  // off the front) can always get back under the cap without breaking
  // day alignment.
  const int64_t spd = state.steps_per_day;
  return ((RoundFloor(state) + spd - 1) / spd) * spd;
}

utils::Status OnlineTrainer::Observe(const std::string& tenant,
                                     const tensor::Tensor& frame) {
  std::shared_ptr<TenantState> state = FindState(tenant);
  if (state == nullptr) {
    return utils::Status::NotFound("tenant not tracked: " + tenant);
  }
  if (frame.ndim() != 1 || frame.dim(0) <= 0) {
    return utils::Status::InvalidArgument("frame must be a non-empty [N]");
  }
  const int64_t n = frame.dim(0);
  std::vector<float> values(frame.data(), frame.data() + n);
  std::lock_guard<std::mutex> lock(mu_);
  if (state->num_nodes < 0) {
    state->num_nodes = n;
  } else if (state->num_nodes != n) {
    return utils::Status::InvalidArgument(
        "frame node count changed mid-stream for tenant " + tenant);
  }
  state->frames.push_back(std::move(values));
  const int64_t cap = RingCap(*state);
  while (static_cast<int64_t>(state->frames.size()) > cap) {
    // Drop one whole day so the buffer's origin stays at midnight.
    for (int64_t i = 0; i < state->steps_per_day && !state->frames.empty();
         ++i) {
      state->frames.pop_front();
    }
  }
  return utils::Status::Ok();
}

int64_t OnlineTrainer::BufferedFrames(const std::string& tenant) const {
  std::shared_ptr<TenantState> state = FindState(tenant);
  if (state == nullptr) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(state->frames.size());
}

utils::Status OnlineTrainer::FineTuneOnce(const std::string& tenant) {
  std::shared_ptr<TenantState> state = FindState(tenant);
  if (state == nullptr) {
    return utils::Status::NotFound("tenant not tracked: " + tenant);
  }
  std::lock_guard<std::mutex> tune_lock(state->tune_mu);

  // Snapshot the buffer (the ingest path keeps appending while we train).
  tensor::Tensor values;
  data::StandardScaler scaler;
  data::WindowSpec window;
  int64_t steps_per_day = 0;
  int64_t round = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const int64_t t = static_cast<int64_t>(state->frames.size());
    if (t < RoundFloor(*state)) {
      return utils::Status::FailedPrecondition(
          "tenant " + tenant + " has " + std::to_string(t) +
          " buffered frames; needs " + std::to_string(RoundFloor(*state)));
    }
    const int64_t n = state->num_nodes;
    values = tensor::Tensor::Zeros(tensor::Shape({t, n}));
    float* dst = values.data();
    for (int64_t i = 0; i < t; ++i) {
      std::memcpy(dst + i * n, state->frames[i].data(), n * sizeof(float));
    }
    scaler = state->scaler;
    window = state->window;
    steps_per_day = state->steps_per_day;
    round = state->round++;
    ++state->stats.rounds;
  }

  std::shared_ptr<const FrozenModel> live = router_->live(tenant);
  if (live == nullptr) {
    return utils::Status::NotFound("tenant " + tenant +
                                   " has no live model to fine-tune");
  }

  data::TimeSeries series;
  series.name = tenant + "-online";
  series.steps_per_day = steps_per_day;
  series.values = std::move(values);
  data::ForecastDataset dataset(std::move(series), window, scaler);

  core::TrainOptions train = options_.train;
  train.seed += static_cast<uint64_t>(round);
  const std::string path = options_.candidate_dir + "/" + tenant +
                           "-online-" + std::to_string(round) + ".ckpt";
  utils::Status status =
      core::FineTuneFromSnapshot(live->model(), dataset, train, path);
  if (!status.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    ++state->stats.errors;
    return status;
  }

  status = router_->Publish(tenant, path);
  std::lock_guard<std::mutex> lock(mu_);
  if (status.ok()) {
    ++state->stats.published;
  } else {
    ++state->stats.rejected;
  }
  return status;
}

OnlineTenantStats OnlineTrainer::stats(const std::string& tenant) const {
  std::shared_ptr<TenantState> state = FindState(tenant);
  if (state == nullptr) return OnlineTenantStats{};
  std::lock_guard<std::mutex> lock(mu_);
  return state->stats;
}

void OnlineTrainer::Start() {
  std::lock_guard<std::mutex> lock(thread_mu_);
  if (sweeper_.joinable()) return;
  stop_ = false;
  sweeper_ = std::thread([this] { SweepLoop(); });
}

void OnlineTrainer::Stop() {
  std::lock_guard<std::mutex> lock(thread_mu_);
  if (!sweeper_.joinable()) return;
  {
    std::lock_guard<std::mutex> state_lock(mu_);
    stop_ = true;
  }
  stop_cv_.notify_all();
  sweeper_.join();
}

void OnlineTrainer::SweepLoop() {
  const auto interval =
      std::chrono::milliseconds(std::max<int64_t>(1, options_.interval_ms));
  while (true) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (stop_cv_.wait_for(lock, interval, [this] { return stop_; })) {
        return;
      }
    }
    std::vector<std::string> ids;
    {
      std::lock_guard<std::mutex> lock(mu_);
      ids.reserve(tenants_.size());
      for (const auto& [id, state] : tenants_) ids.push_back(id);
    }
    for (const std::string& id : ids) {
      // FailedPrecondition (not enough frames) and gate rejections are
      // normal here; counters record them.
      (void)FineTuneOnce(id);
    }
  }
}

}  // namespace sagdfn::serve
