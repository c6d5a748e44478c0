#include "serve/registry.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <utility>

#include "metrics/metrics.h"
#include "obs/telemetry.h"
#include "utils/check.h"
#include "utils/fault.h"
#include "utils/logging.h"
#include "utils/percentile.h"

namespace sagdfn::serve {

namespace fs = ::std::filesystem;

namespace {

/// Bound on both compute-time rings: enough samples for a stable p99,
/// small enough that OnBatch stays O(1)-ish.
constexpr size_t kComputeRingCapacity = 256;

/// Probation batches that must exceed the relative p99 limit before the
/// probe rolls back: a lone outlier batch never does.
constexpr int64_t kMinSlowBatches = 2;

bool AllFinite(const float* data, int64_t size) {
  for (int64_t i = 0; i < size; ++i) {
    if (!std::isfinite(data[i])) return false;
  }
  return true;
}

}  // namespace

void ModelRegistry::EmitDecision(const char* event, const std::string& path,
                                 const std::string& detail) const {
  obs::Telemetry& telemetry = obs::Telemetry::Global();
  if (!telemetry.sink_open()) return;
  obs::Event record(event);
  if (!options_.tenant.empty()) record.Str("tenant", options_.tenant);
  record.Str("path", path);
  if (!detail.empty()) record.Str("detail", detail);
  telemetry.Emit(record);
}

ModelRegistry::ModelRegistry(InferenceEngine* engine, RegistryOptions options)
    : engine_(engine), options_(std::move(options)) {
  SAGDFN_CHECK(engine_ != nullptr);
  const std::string prefix = options_.tenant.empty()
                                 ? "registry."
                                 : "registry." + options_.tenant + ".";
  names_.published = prefix + "published";
  names_.rejected = prefix + "rejected";
  names_.rollbacks = prefix + "rollbacks";
  names_.health_passes = prefix + "health_passes";
  SAGDFN_CHECK_GE(options_.health_window, 0);
  SAGDFN_CHECK_GE(options_.max_nonfinite, 0);
  SAGDFN_CHECK_GE(options_.max_batch_compute_us, 0);
  SAGDFN_CHECK_GE(options_.min_health_batches, 1);
  if (options_.eval_x.size() > 0) {
    SAGDFN_CHECK_EQ(options_.eval_x.ndim(), 4);
    SAGDFN_CHECK_EQ(options_.eval_tod.ndim(), 2);
    SAGDFN_CHECK_EQ(options_.eval_y.ndim(), 3);
    SAGDFN_CHECK_EQ(options_.eval_x.dim(0), options_.eval_tod.dim(0));
    SAGDFN_CHECK_EQ(options_.eval_x.dim(0), options_.eval_y.dim(0));
  }
  live_ = engine_->model_snapshot();
  engine_->SetBatchObserver(
      [this](const BatchReport& report) { OnBatch(report); });
}

ModelRegistry::~ModelRegistry() {
  StopWatching();
  engine_->SetBatchObserver(nullptr);
}

utils::Status ModelRegistry::Publish(const std::string& path) {
  std::lock_guard<std::mutex> publish_lock(publish_mu_);

  std::shared_ptr<const FrozenModel> candidate;
  utils::Status gate = ValidateCandidate(path, &candidate);
  if (!gate.ok()) {
    {
      std::lock_guard<std::mutex> lock(state_mu_);
      ++stats_.rejected;
    }
    obs::Telemetry::Global().AddCounter(names_.rejected);
    EmitDecision("registry.reject", path, gate.ToString());
    SAGDFN_LOG(Warning) << "ModelRegistry: rejected candidate '" << path
                        << "': " << gate.ToString();
    return gate;
  }

  // Every gate passed: swap is the first (and only) step that touches the
  // live model. Armed probation starts counting with the next batch that
  // runs on the candidate.
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    utils::Status swapped = engine_->SwapModel(candidate, SwapKind::kPublish);
    if (!swapped.ok()) {
      ++stats_.rejected;
      return swapped;
    }
    previous_ = std::move(live_);
    live_ = candidate;
    ++stats_.published;
    if (options_.health_window > 0) {
      probation_model_ = candidate.get();
      probation_requests_ = 0;
      probation_nonfinite_ = 0;
      probation_compute_us_.clear();
      baseline_p99_us_ = P99Us(live_compute_us_);
      live_compute_us_.clear();
    } else {
      previous_.reset();  // no probation: nothing to roll back to
    }
  }
  obs::Telemetry::Global().AddCounter(names_.published);
  EmitDecision("registry.publish", path, "");
  SAGDFN_LOG(Info) << "ModelRegistry: published candidate '" << path << "'";
  return utils::Status::Ok();
}

utils::Status ModelRegistry::ValidateCandidate(
    const std::string& path, std::shared_ptr<const FrozenModel>* out) {
  // Gate 0: deterministic fault hook, so tests and drills can fail a
  // publish without crafting a broken file.
  if (utils::FaultInjector::Global().FireCounted(
          utils::FaultSite::kBadCandidate, options_.tenant)) {
    return utils::Status::Internal(
        "fault injection: bad_candidate gate failure");
  }

  std::shared_ptr<const FrozenModel> live;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    live = live_;
  }

  // Gate 1: the hardened loader. Truncated, bit-flipped, or
  // architecture-mismatched checkpoints die here with a clean status.
  std::unique_ptr<FrozenModel> loaded;
  utils::Status status =
      FrozenModel::Load(live->config(), path, &loaded);
  if (!status.ok()) return status;
  std::shared_ptr<const FrozenModel> candidate(std::move(loaded));

  // Gate 2: finite-weights audit over every parameter and buffer. A
  // checkpoint whose payload bytes decode to NaN/Inf passes the loader's
  // structural checks but can never serve a finite forecast.
  for (const auto& [name, param] : candidate->model().NamedParameters()) {
    const tensor::Tensor& value = param.value();
    if (!AllFinite(value.data(), value.size())) {
      return utils::Status::FailedPrecondition(
          "candidate rejected: non-finite values in parameter '" + name +
          "'");
    }
  }
  for (const auto& [name, buffer] : candidate->model().NamedBuffers()) {
    if (!AllFinite(buffer.data(), buffer.size())) {
      return utils::Status::FailedPrecondition(
          "candidate rejected: non-finite values in buffer '" + name + "'");
    }
  }

  // Gate 3: plan dry-run. Compiling the rollout plan and replaying one
  // window proves the candidate can actually execute on the serve path
  // (plan build, arena sizing, adjacency freeze) before it sees traffic.
  // Sized for the engine's largest batch, this plan is the one every
  // live batch replays after the swap.
  candidate->PlanFor(engine_->options().max_batch);
  const core::SagdfnConfig& config = candidate->config();
  tensor::Tensor dry_x(tensor::Shape(
      {1, config.history, config.num_nodes, config.input_dim}));
  tensor::Tensor dry_tod(tensor::Shape({1, config.horizon}));
  if (options_.eval_x.size() > 0) {
    std::memcpy(dry_x.data(), options_.eval_x.data(),
                dry_x.size() * sizeof(float));
    std::memcpy(dry_tod.data(), options_.eval_tod.data(),
                dry_tod.size() * sizeof(float));
  }
  tensor::Tensor dry_run = candidate->Predict(dry_x, dry_tod);
  if (!AllFinite(dry_run.data(), dry_run.size())) {
    return utils::Status::FailedPrecondition(
        "candidate rejected: dry-run forecast contained non-finite values");
  }

  // Gate 4: held-out metric threshold vs the live model.
  if (options_.eval_x.size() > 0) {
    const double candidate_mae = HeldOutMae(*candidate);
    if (!std::isfinite(candidate_mae)) {
      return utils::Status::FailedPrecondition(
          "candidate rejected: held-out MAE carries no signal");
    }
    const double live_mae = HeldOutMae(*live);
    if (std::isfinite(live_mae) &&
        candidate_mae > live_mae * (1.0 + options_.max_mae_regression)) {
      return utils::Status::FailedPrecondition(
          "candidate rejected: held-out MAE " +
          std::to_string(candidate_mae) + " exceeds live MAE " +
          std::to_string(live_mae) + " by more than " +
          std::to_string(options_.max_mae_regression * 100.0) + "%");
    }
  }

  *out = std::move(candidate);
  return utils::Status::Ok();
}

double ModelRegistry::HeldOutMae(const FrozenModel& model) const {
  if (options_.eval_x.size() == 0) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  tensor::Tensor predictions =
      model.Predict(options_.eval_x, options_.eval_tod);
  return metrics::Evaluate(predictions, options_.eval_y).mae;
}

int64_t ModelRegistry::ScanOnce() {
  // One scan at a time; Publish below takes publish_mu_ per candidate so
  // explicit publishes still interleave with a long scan.
  std::lock_guard<std::mutex> scan_lock(scan_mu_);
  std::vector<std::pair<std::string, CandidateVersion>> found;
  {
    if (options_.watch_dir.empty()) return 0;
    std::error_code ec;
    fs::directory_iterator it(options_.watch_dir, ec);
    if (ec) return 0;
    for (const fs::directory_entry& entry : it) {
      if (!entry.is_regular_file(ec) || ec) continue;
      const std::string name = entry.path().string();
      if (name.size() < 5 || name.substr(name.size() - 5) != ".ckpt") {
        continue;
      }
      CandidateVersion version;
      version.size = entry.file_size(ec);
      if (ec) continue;
      version.mtime = entry.last_write_time(ec).time_since_epoch().count();
      if (ec) continue;
      // Content fingerprint: (size, mtime) alone misses a same-size
      // rewrite landing within the mtime granularity. Only computed per
      // scan for files that survive the cheap checks above.
      version.fingerprint = Fingerprint(name);
      found.emplace_back(name, version);
    }
  }
  std::sort(found.begin(), found.end());

  {
    std::lock_guard<std::mutex> lock(state_mu_);
    ++stats_.scans;
  }
  int64_t accepted = 0;
  for (const auto& [name, version] : found) {
    const auto it = processed_.find(name);
    if (it != processed_.end() && it->second == version) continue;
    processed_[name] = version;
    if (Publish(name).ok()) ++accepted;
  }
  return accepted;
}

void ModelRegistry::StartWatching(int64_t interval_ms) {
  if (options_.watch_dir.empty()) return;
  SAGDFN_CHECK_GE(interval_ms, 1);
  std::lock_guard<std::mutex> lock(watch_mu_);
  if (watcher_.joinable()) return;
  watch_stop_ = false;
  watcher_ = std::thread([this, interval_ms] {
    std::unique_lock<std::mutex> lock(watch_mu_);
    while (!watch_stop_) {
      lock.unlock();
      ScanOnce();
      lock.lock();
      watch_cv_.wait_for(lock, std::chrono::milliseconds(interval_ms),
                         [this] { return watch_stop_; });
    }
  });
}

void ModelRegistry::StopWatching() {
  std::thread watcher;
  {
    std::lock_guard<std::mutex> lock(watch_mu_);
    watch_stop_ = true;
    watcher = std::move(watcher_);
  }
  watch_cv_.notify_all();
  if (watcher.joinable()) watcher.join();
}

void ModelRegistry::OnBatch(const BatchReport& report) {
  std::lock_guard<std::mutex> lock(state_mu_);
  const double compute_us = report.compute_seconds * 1e6;

  if (probation_model_ == nullptr || report.model != probation_model_) {
    // Steady-state (or an in-flight batch still on the old snapshot):
    // feed the baseline ring for the next swap's relative p99 probe.
    if (report.model == live_.get()) {
      live_compute_us_.push_back(compute_us);
      if (live_compute_us_.size() > kComputeRingCapacity) {
        live_compute_us_.pop_front();
      }
    }
    return;
  }

  // Probation accounting for the freshly swapped model.
  probation_requests_ += report.batch_size;
  probation_nonfinite_ += report.nonfinite_requests;
  probation_compute_us_.push_back(compute_us);
  if (probation_compute_us_.size() > kComputeRingCapacity) {
    probation_compute_us_.pop_front();
  }

  if (probation_nonfinite_ > options_.max_nonfinite) {
    RollbackLocked("non-finite forecasts: " +
                   std::to_string(probation_nonfinite_) + " > " +
                   std::to_string(options_.max_nonfinite));
    return;
  }
  if (options_.max_batch_compute_us > 0 &&
      compute_us > static_cast<double>(options_.max_batch_compute_us)) {
    RollbackLocked(
        "batch compute " + std::to_string(static_cast<int64_t>(compute_us)) +
        " us exceeded the absolute limit " +
        std::to_string(options_.max_batch_compute_us) + " us");
    return;
  }
  if (options_.p99_regression_factor > 0.0 && baseline_p99_us_ > 0.0 &&
      static_cast<int64_t>(probation_compute_us_.size()) >=
          options_.min_health_batches) {
    // Over a short probation window the interpolated p99 sits next to
    // the maximum, so one preempted or cold batch alone would carry it
    // over the limit. A regression must therefore also show in at least
    // kMinSlowBatches batches; past ~100 samples the p99 condition
    // already implies that.
    const double limit = baseline_p99_us_ * options_.p99_regression_factor;
    const double p99 = P99Us(probation_compute_us_);
    const auto slow_batches =
        std::count_if(probation_compute_us_.begin(),
                      probation_compute_us_.end(),
                      [limit](double us) { return us > limit; });
    if (p99 > limit && slow_batches >= kMinSlowBatches) {
      RollbackLocked("batch compute p99 " +
                     std::to_string(static_cast<int64_t>(p99)) +
                     " us exceeded baseline p99 " +
                     std::to_string(static_cast<int64_t>(baseline_p99_us_)) +
                     " us x " +
                     std::to_string(options_.p99_regression_factor));
      return;
    }
  }

  if (probation_requests_ >= options_.health_window) {
    // Probation passed: the candidate is now the trusted live model and
    // its compute samples seed the next baseline.
    probation_model_ = nullptr;
    previous_.reset();
    live_compute_us_ = std::move(probation_compute_us_);
    probation_compute_us_.clear();
    ++stats_.health_passes;
    obs::Telemetry::Global().AddCounter(names_.health_passes);
  }
}

void ModelRegistry::RollbackLocked(const std::string& reason) {
  SAGDFN_CHECK(previous_ != nullptr);
  utils::Status status = engine_->SwapModel(previous_, SwapKind::kRollback);
  // previous_ came through the same gate as every live model; the only
  // way this fails is a programming error, not a runtime condition.
  SAGDFN_CHECK(status.ok()) << status.ToString();
  SAGDFN_LOG(Warning) << "ModelRegistry: health probe tripped (" << reason
                      << "); rolled back to the previous snapshot";
  live_ = std::move(previous_);
  probation_model_ = nullptr;
  probation_requests_ = 0;
  probation_nonfinite_ = 0;
  probation_compute_us_.clear();
  ++stats_.rollbacks;
  obs::Telemetry::Global().AddCounter(names_.rollbacks);
  EmitDecision("registry.rollback", "", reason);
}

uint64_t ModelRegistry::Fingerprint(const std::string& path) {
  // FNV-1a over the file size plus the first and last 4 KiB of content:
  // cheap (two reads regardless of checkpoint size) and sensitive to
  // both ends of a weight file. The header and the index of names,
  // shapes and offsets sit in front, followed by the first tensor
  // payloads; the last tensor payloads and any meta payloads (index
  // set, config fingerprint) sit at the end.
  constexpr size_t kBlock = 4096;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return 0;
  uint64_t hash = 1469598103934665603ull;  // FNV offset basis
  auto mix = [&hash](const unsigned char* data, size_t len) {
    for (size_t i = 0; i < len; ++i) {
      hash ^= data[i];
      hash *= 1099511628211ull;  // FNV prime
    }
  };
  std::fseek(f, 0, SEEK_END);
  const long file_size = std::ftell(f);
  if (file_size < 0) {
    std::fclose(f);
    return 0;
  }
  const auto usize = static_cast<uint64_t>(file_size);
  mix(reinterpret_cast<const unsigned char*>(&usize), sizeof(usize));
  unsigned char block[kBlock];
  std::fseek(f, 0, SEEK_SET);
  mix(block, std::fread(block, 1, kBlock, f));
  if (usize > kBlock) {
    std::fseek(f, -static_cast<long>(std::min<uint64_t>(kBlock, usize)),
               SEEK_END);
    mix(block, std::fread(block, 1, kBlock, f));
  }
  std::fclose(f);
  return hash;
}

double ModelRegistry::P99Us(const std::deque<double>& samples_us) {
  std::vector<double> sorted(samples_us.begin(), samples_us.end());
  std::sort(sorted.begin(), sorted.end());
  return utils::PercentileSorted(sorted, 99.0);
}

RegistryStats ModelRegistry::stats() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return stats_;
}

bool ModelRegistry::on_probation() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return probation_model_ != nullptr;
}

}  // namespace sagdfn::serve
