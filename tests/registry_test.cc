// Hot-swap registry and serve-path failure-semantics tests (src/serve).
//
// The claims under test:
//   * Swap atomicity: concurrent submitters across a SwapModel/Publish
//     all complete; every forecast is byte-identical to the snapshot it
//     ran on (memcmp against the per-model serial reference), in-flight
//     batches finish on the pre-swap model, and post-swap requests match
//     the new one — serial and 8-worker. The suite is run under TSan by
//     tools/check_tsan.sh.
//   * Quality gate: every injected bad candidate (non-finite weights,
//     truncated file, metric regression, bad_candidate fault) is
//     rejected without the live FrozenModel pointer ever changing.
//   * Health probes: a tripped probe (NaN forecasts, latency regression)
//     rolls the engine back to the previous snapshot within a bounded
//     number of requests.
//   * Deadlines and shedding: queue-expired requests are rejected with
//     DeadlineExceeded and never executed; the soft watermark sheds with
//     Unavailable.
#include "serve/registry.h"

#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/sagdfn.h"
#include "nn/serialization.h"
#include "serve/engine.h"
#include "serve/frozen_model.h"
#include "tensor/tensor.h"
#include "test_support.h"
#include "utils/fault.h"
#include "utils/rng.h"
#include "utils/status.h"

namespace sagdfn::serve {
namespace {

using tensor::Shape;
using tensor::Tensor;

using test_support::TempPath;

core::SagdfnConfig TinyConfig() {
  core::SagdfnConfig config;
  config.num_nodes = 10;
  config.embedding_dim = 4;
  config.m = 5;
  config.k = 3;
  config.hidden_dim = 6;
  config.heads = 2;
  config.ffn_hidden = 4;
  config.diffusion_steps = 2;
  config.alpha = 1.5f;
  config.history = 4;
  config.horizon = 3;
  config.seed = 21;
  return config;
}

/// Builds a model with `seed` (different seeds give different weights,
/// hence byte-distinguishable forecasts) and checkpoints it at `path`.
void SaveCandidate(const core::SagdfnConfig& config, uint64_t seed,
                   const std::string& path) {
  core::SagdfnConfig seeded = config;
  seeded.seed = seed;
  core::SagdfnModel model(seeded);
  ASSERT_TRUE(nn::SaveModule(model, path).ok());
}

std::shared_ptr<const FrozenModel> LoadFrozen(
    const core::SagdfnConfig& config, const std::string& path) {
  std::unique_ptr<FrozenModel> frozen;
  utils::Status status = FrozenModel::Load(config, path, &frozen);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return std::shared_ptr<const FrozenModel>(std::move(frozen));
}

struct RequestData {
  Tensor x;           // [h, N, C]
  Tensor future_tod;  // [f]
};

std::vector<RequestData> MakeRequests(const core::SagdfnConfig& config,
                                      int64_t count, uint64_t seed = 3) {
  utils::Rng rng(seed);
  std::vector<RequestData> requests;
  requests.reserve(count);
  for (int64_t i = 0; i < count; ++i) {
    RequestData r;
    r.x = Tensor::Normal(
        Shape({config.history, config.num_nodes, config.input_dim}), rng);
    r.future_tod = Tensor::Uniform(Shape({config.horizon}), rng, 0.0f, 1.0f);
    requests.push_back(std::move(r));
  }
  return requests;
}

/// Serial ground truth: each request alone through `model`.
std::vector<Tensor> SerialReference(const FrozenModel& model,
                                    const std::vector<RequestData>& requests) {
  const core::SagdfnConfig& config = model.config();
  std::vector<Tensor> reference;
  reference.reserve(requests.size());
  for (const RequestData& r : requests) {
    Tensor x(Shape({1, config.history, config.num_nodes, config.input_dim}));
    std::memcpy(x.data(), r.x.data(), r.x.size() * sizeof(float));
    Tensor tod(Shape({1, config.horizon}));
    std::memcpy(tod.data(), r.future_tod.data(),
                r.future_tod.size() * sizeof(float));
    reference.push_back(model.Predict(x, tod));  // [1, f, N]
  }
  return reference;
}

bool BytesEqual(const Tensor& a, const Tensor& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// Held-out eval windows whose truth is exactly the live model's own
/// forecast: the live MAE is 0.0, so any byte-different candidate fails
/// the metric gate while an identical-weights candidate passes it.
void FillEvalWindows(const FrozenModel& live, RegistryOptions* options,
                     int64_t windows = 4, uint64_t seed = 5) {
  const core::SagdfnConfig& config = live.config();
  utils::Rng rng(seed);
  options->eval_x = Tensor::Normal(
      Shape({windows, config.history, config.num_nodes, config.input_dim}),
      rng);
  options->eval_tod = Tensor::Uniform(Shape({windows, config.horizon}), rng,
                                      0.0f, 1.0f);
  options->eval_y = live.Predict(options->eval_x, options->eval_tod);
}

// ---------------------------------------------------------------------------
// Swap atomicity
// ---------------------------------------------------------------------------

TEST(RegistryTest, SerialSwapServesOldThenNewBytes) {
  const core::SagdfnConfig config = TinyConfig();
  const std::string path_a = TempPath("swap_serial_a.ckpt");
  const std::string path_b = TempPath("swap_serial_b.ckpt");
  SaveCandidate(config, 101, path_a);
  SaveCandidate(config, 202, path_b);
  auto model_a = LoadFrozen(config, path_a);
  auto model_b = LoadFrozen(config, path_b);

  const std::vector<RequestData> requests = MakeRequests(config, 12);
  const std::vector<Tensor> ref_a = SerialReference(*model_a, requests);
  const std::vector<Tensor> ref_b = SerialReference(*model_b, requests);
  for (size_t i = 0; i < requests.size(); ++i) {
    ASSERT_FALSE(BytesEqual(ref_a[i], ref_b[i]))
        << "seeds 101/202 produced identical forecasts; the swap test "
           "cannot distinguish the models";
  }

  EngineOptions options;
  options.num_workers = 1;
  options.max_batch = 4;
  options.max_wait_us = 100;
  InferenceEngine engine(model_a, options);
  ModelRegistry registry(&engine, RegistryOptions{});

  for (size_t i = 0; i < requests.size(); ++i) {
    Forecast forecast =
        engine.Submit(requests[i].x, requests[i].future_tod).get();
    ASSERT_TRUE(forecast.status.ok()) << forecast.status.ToString();
    EXPECT_TRUE(BytesEqual(forecast.prediction, ref_a[i]))
        << "pre-swap request " << i << " differs from model A";
  }

  utils::Status published = registry.Publish(path_b);
  ASSERT_TRUE(published.ok()) << published.ToString();
  EXPECT_EQ(engine.stats().swaps, 1);
  EXPECT_EQ(registry.stats().published, 1);

  for (size_t i = 0; i < requests.size(); ++i) {
    Forecast forecast =
        engine.Submit(requests[i].x, requests[i].future_tod).get();
    ASSERT_TRUE(forecast.status.ok()) << forecast.status.ToString();
    EXPECT_TRUE(BytesEqual(forecast.prediction, ref_b[i]))
        << "post-swap request " << i << " differs from model B";
  }
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

TEST(RegistryTest, ConcurrentSubmittersAcrossSwapAllCompleteExactly) {
  const core::SagdfnConfig config = TinyConfig();
  const std::string path_a = TempPath("swap_conc_a.ckpt");
  const std::string path_b = TempPath("swap_conc_b.ckpt");
  SaveCandidate(config, 111, path_a);
  SaveCandidate(config, 222, path_b);
  auto model_a = LoadFrozen(config, path_a);
  auto model_b = LoadFrozen(config, path_b);

  const std::vector<RequestData> requests = MakeRequests(config, 48, 9);
  const std::vector<Tensor> ref_a = SerialReference(*model_a, requests);
  const std::vector<Tensor> ref_b = SerialReference(*model_b, requests);

  EngineOptions options;
  options.num_workers = 8;
  options.max_batch = 4;
  options.max_wait_us = 200;
  InferenceEngine engine(model_a, options);
  // This test is about swap atomicity, so the wall-clock relative p99
  // probe stays off: on a loaded host it can roll the swap back and turn
  // a correct run red. The probe keeps its own tests
  // (RelativeP99Probe*).
  RegistryOptions registry_options;
  registry_options.p99_regression_factor = 0.0;
  ModelRegistry registry(&engine, registry_options);

  std::vector<std::future<Forecast>> futures(requests.size());
  std::vector<std::thread> clients;
  const int64_t num_clients = 4;
  for (int64_t c = 0; c < num_clients; ++c) {
    clients.emplace_back([&, c] {
      utils::Rng rng(77 + static_cast<uint64_t>(c));
      for (size_t i = c; i < requests.size(); i += num_clients) {
        std::this_thread::sleep_for(std::chrono::microseconds(
            static_cast<int64_t>(rng.Uniform(0.0, 300.0))));
        futures[i] = engine.Submit(requests[i].x, requests[i].future_tod);
      }
    });
  }
  // Land the swap in the middle of the submission storm.
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  utils::Status published = registry.Publish(path_b);
  ASSERT_TRUE(published.ok()) << published.ToString();
  for (auto& client : clients) client.join();

  // Every request completed, and every forecast is byte-identical to one
  // of the two snapshots' serial references (never a blend).
  for (size_t i = 0; i < futures.size(); ++i) {
    Forecast forecast = futures[i].get();
    ASSERT_TRUE(forecast.status.ok()) << forecast.status.ToString();
    EXPECT_TRUE(BytesEqual(forecast.prediction, ref_a[i]) ||
                BytesEqual(forecast.prediction, ref_b[i]))
        << "request " << i
        << " matches neither the pre- nor the post-swap model";
  }
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.completed, static_cast<int64_t>(requests.size()));
  EXPECT_EQ(stats.swaps, 1);

  // Once the swap has returned, new submissions always hit model B.
  Forecast after =
      engine.Submit(requests[0].x, requests[0].future_tod).get();
  ASSERT_TRUE(after.status.ok()) << after.status.ToString();
  EXPECT_TRUE(BytesEqual(after.prediction, ref_b[0]));
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

TEST(RegistryTest, InFlightBatchFinishesOnPreSwapSnapshot) {
  const core::SagdfnConfig config = TinyConfig();
  const std::string path_a = TempPath("swap_inflight_a.ckpt");
  const std::string path_b = TempPath("swap_inflight_b.ckpt");
  SaveCandidate(config, 131, path_a);
  SaveCandidate(config, 232, path_b);
  auto model_a = LoadFrozen(config, path_a);
  auto model_b = LoadFrozen(config, path_b);

  const std::vector<RequestData> requests = MakeRequests(config, 4, 13);
  const std::vector<Tensor> ref_a = SerialReference(*model_a, requests);
  const std::vector<Tensor> ref_b = SerialReference(*model_b, requests);

  EngineOptions options;
  options.num_workers = 1;
  options.max_batch = 4;
  options.max_wait_us = 0;  // grab whatever is queued immediately
  InferenceEngine engine(model_a, options);

  // swap_race holds each batch for 50 ms between pinning its snapshot
  // and computing, guaranteeing the swap below lands while the batch is
  // in flight on model A.
  ASSERT_TRUE(
      utils::FaultInjector::Global().Configure("swap_race@us=50000").ok());

  std::vector<std::future<Forecast>> futures;
  for (const RequestData& r : requests) {
    futures.push_back(engine.Submit(r.x, r.future_tod));
  }
  // Wait until the worker has drained the queue into a batch (the pin
  // happens immediately after), then swap inside the race window.
  while (engine.stats().queue_depth > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  utils::Status swapped = engine.SwapModel(model_b);
  ASSERT_TRUE(swapped.ok()) << swapped.ToString();

  // The in-flight batch must finish on model A: no drain, no dangling
  // futures, and bytes from the snapshot it pinned.
  for (size_t i = 0; i < futures.size(); ++i) {
    Forecast forecast = futures[i].get();
    ASSERT_TRUE(forecast.status.ok()) << forecast.status.ToString();
    EXPECT_TRUE(BytesEqual(forecast.prediction, ref_a[i]))
        << "in-flight request " << i << " did not finish on the pre-swap "
        << "snapshot";
  }
  utils::FaultInjector::Global().Reset();

  // And the next batch runs on model B.
  Forecast after =
      engine.Submit(requests[0].x, requests[0].future_tod).get();
  ASSERT_TRUE(after.status.ok()) << after.status.ToString();
  EXPECT_TRUE(BytesEqual(after.prediction, ref_b[0]));
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

TEST(RegistryTest, SwapRejectsIncompatibleConfig) {
  const core::SagdfnConfig config = TinyConfig();
  auto model = std::shared_ptr<const FrozenModel>(
      FrozenModel::Freeze(std::make_unique<core::SagdfnModel>(config)));
  InferenceEngine engine(model, EngineOptions{});

  core::SagdfnConfig other = config;
  other.num_nodes = config.num_nodes + 1;
  auto incompatible = std::shared_ptr<const FrozenModel>(
      FrozenModel::Freeze(std::make_unique<core::SagdfnModel>(other)));
  utils::Status status = engine.SwapModel(incompatible);
  EXPECT_EQ(status.code(), utils::StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.model_snapshot().get(), model.get());
  EXPECT_EQ(engine.stats().swaps, 0);
}

// ---------------------------------------------------------------------------
// Quality gate
// ---------------------------------------------------------------------------

TEST(RegistryTest, GateRejectsNonFiniteWeights) {
  const core::SagdfnConfig config = TinyConfig();
  auto live = std::shared_ptr<const FrozenModel>(
      FrozenModel::Freeze(std::make_unique<core::SagdfnModel>(config)));
  InferenceEngine engine(live, EngineOptions{});
  ModelRegistry registry(&engine, RegistryOptions{});

  // A candidate whose first parameter hides one NaN.
  const std::string path = TempPath("gate_nonfinite.ckpt");
  {
    core::SagdfnModel model(config);
    auto params = model.NamedParameters();
    ASSERT_FALSE(params.empty());
    params[0].second.mutable_value().data()[0] =
        std::numeric_limits<float>::quiet_NaN();
    ASSERT_TRUE(nn::SaveModule(model, path).ok());
  }

  const FrozenModel* before = engine.model_snapshot().get();
  utils::Status status = registry.Publish(path);
  EXPECT_EQ(status.code(), utils::StatusCode::kFailedPrecondition)
      << status.ToString();
  EXPECT_EQ(engine.model_snapshot().get(), before)
      << "a rejected candidate must never move the live pointer";
  EXPECT_EQ(registry.stats().rejected, 1);
  EXPECT_EQ(engine.stats().swaps, 0);
  std::remove(path.c_str());
}

TEST(RegistryTest, GateRejectsTruncatedCheckpoint) {
  const core::SagdfnConfig config = TinyConfig();
  auto live = std::shared_ptr<const FrozenModel>(
      FrozenModel::Freeze(std::make_unique<core::SagdfnModel>(config)));
  InferenceEngine engine(live, EngineOptions{});
  ModelRegistry registry(&engine, RegistryOptions{});

  const std::string path = TempPath("gate_truncated.ckpt");
  SaveCandidate(config, 303, path);
  {
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    in.close();
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }

  const FrozenModel* before = engine.model_snapshot().get();
  utils::Status status = registry.Publish(path);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(engine.model_snapshot().get(), before);
  EXPECT_EQ(registry.stats().rejected, 1);
  EXPECT_EQ(engine.stats().swaps, 0);
  std::remove(path.c_str());
}

TEST(RegistryTest, GateRejectsMetricRegressionAndPassesEqualCandidate) {
  const core::SagdfnConfig config = TinyConfig();
  const std::string path_live = TempPath("gate_metric_live.ckpt");
  const std::string path_worse = TempPath("gate_metric_worse.ckpt");
  SaveCandidate(config, 404, path_live);
  SaveCandidate(config, 505, path_worse);
  auto live = LoadFrozen(config, path_live);

  RegistryOptions options;
  FillEvalWindows(*live, &options);
  options.max_mae_regression = 0.05;
  InferenceEngine engine(live, EngineOptions{});
  ModelRegistry registry(&engine, options);

  // Different weights -> held-out MAE > live's 0.0 -> metric gate trips.
  const FrozenModel* before = engine.model_snapshot().get();
  utils::Status worse = registry.Publish(path_worse);
  EXPECT_EQ(worse.code(), utils::StatusCode::kFailedPrecondition)
      << worse.ToString();
  EXPECT_EQ(engine.model_snapshot().get(), before);
  EXPECT_EQ(engine.stats().swaps, 0);

  // Identical weights -> MAE 0.0 == live -> passes every gate.
  utils::Status equal = registry.Publish(path_live);
  EXPECT_TRUE(equal.ok()) << equal.ToString();
  EXPECT_EQ(engine.stats().swaps, 1);
  EXPECT_EQ(registry.stats().rejected, 1);
  EXPECT_EQ(registry.stats().published, 1);
  std::remove(path_live.c_str());
  std::remove(path_worse.c_str());
}

TEST(RegistryTest, GateHonorsBadCandidateFaultSite) {
  const core::SagdfnConfig config = TinyConfig();
  auto live = std::shared_ptr<const FrozenModel>(
      FrozenModel::Freeze(std::make_unique<core::SagdfnModel>(config)));
  InferenceEngine engine(live, EngineOptions{});
  ModelRegistry registry(&engine, RegistryOptions{});

  const std::string path = TempPath("gate_fault.ckpt");
  SaveCandidate(config, 606, path);

  ASSERT_TRUE(utils::FaultInjector::Global().Configure("bad_candidate").ok());
  const FrozenModel* before = engine.model_snapshot().get();
  utils::Status status = registry.Publish(path);
  EXPECT_EQ(status.code(), utils::StatusCode::kInternal) << status.ToString();
  EXPECT_EQ(engine.model_snapshot().get(), before);
  EXPECT_EQ(registry.stats().rejected, 1);

  // The injected failure was one-shot: the same candidate now publishes.
  utils::Status retry = registry.Publish(path);
  EXPECT_TRUE(retry.ok()) << retry.ToString();
  utils::FaultInjector::Global().Reset();
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Health probes and rollback
// ---------------------------------------------------------------------------

TEST(RegistryTest, NanForecastProbeRollsBackWithinWindow) {
  const core::SagdfnConfig config = TinyConfig();
  const std::string path_a = TempPath("health_nan_a.ckpt");
  const std::string path_b = TempPath("health_nan_b.ckpt");
  SaveCandidate(config, 707, path_a);
  SaveCandidate(config, 808, path_b);
  auto model_a = LoadFrozen(config, path_a);

  RegistryOptions options;
  options.health_window = 16;
  options.max_nonfinite = 0;
  options.p99_regression_factor = 0.0;  // isolate the NaN probe
  EngineOptions engine_options;
  engine_options.num_workers = 1;
  engine_options.max_batch = 1;
  engine_options.max_wait_us = 0;
  InferenceEngine engine(model_a, engine_options);
  ModelRegistry registry(&engine, options);

  const std::vector<RequestData> requests = MakeRequests(config, 20, 17);
  const std::vector<Tensor> ref_a = SerialReference(*model_a, requests);

  ASSERT_TRUE(registry.Publish(path_b).ok());
  const FrozenModel* published = engine.model_snapshot().get();
  ASSERT_NE(published, model_a.get());
  ASSERT_TRUE(registry.on_probation());

  // Every post-swap batch now produces NaN forecasts; the engine fails
  // those requests and the registry's probe must roll back to model A
  // well within the 16-request probation window.
  ASSERT_TRUE(
      utils::FaultInjector::Global().Configure("nan_forecast@prob=1").ok());
  int64_t used = 0;
  for (; used < options.health_window; ++used) {
    Forecast forecast =
        engine.Submit(requests[used].x, requests[used].future_tod).get();
    EXPECT_EQ(forecast.status.code(), utils::StatusCode::kInternal)
        << forecast.status.ToString();
    if (engine.stats().rollbacks > 0) break;
  }
  utils::FaultInjector::Global().Reset();

  EXPECT_EQ(engine.stats().rollbacks, 1)
      << "probe did not trip within the probation window";
  EXPECT_LT(used, options.health_window);
  EXPECT_EQ(registry.stats().rollbacks, 1);
  EXPECT_EQ(engine.model_snapshot().get(), model_a.get())
      << "rollback must restore the previous snapshot";
  EXPECT_FALSE(registry.on_probation());

  // Clean serving resumes on the rolled-back snapshot, byte-exact.
  Forecast after =
      engine.Submit(requests[0].x, requests[0].future_tod).get();
  ASSERT_TRUE(after.status.ok()) << after.status.ToString();
  EXPECT_TRUE(BytesEqual(after.prediction, ref_a[0]));
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

TEST(RegistryTest, SlowBatchProbeRollsBack) {
  const core::SagdfnConfig config = TinyConfig();
  const std::string path_a = TempPath("health_slow_a.ckpt");
  const std::string path_b = TempPath("health_slow_b.ckpt");
  SaveCandidate(config, 909, path_a);
  SaveCandidate(config, 919, path_b);
  auto model_a = LoadFrozen(config, path_a);

  RegistryOptions options;
  options.health_window = 16;
  options.p99_regression_factor = 0.0;
  options.max_batch_compute_us = 5'000;  // 5 ms absolute ceiling
  EngineOptions engine_options;
  engine_options.num_workers = 1;
  engine_options.max_batch = 1;
  engine_options.max_wait_us = 0;
  InferenceEngine engine(model_a, engine_options);
  ModelRegistry registry(&engine, options);

  ASSERT_TRUE(registry.Publish(path_b).ok());
  ASSERT_TRUE(registry.on_probation());

  // Stall every post-swap batch well past the ceiling. The request
  // itself still succeeds — latency probes fail the model, not the
  // in-flight request.
  ASSERT_TRUE(
      utils::FaultInjector::Global().Configure("slow_batch@us=20000").ok());
  const std::vector<RequestData> requests = MakeRequests(config, 2, 23);
  Forecast slow =
      engine.Submit(requests[0].x, requests[0].future_tod).get();
  EXPECT_TRUE(slow.status.ok()) << slow.status.ToString();
  utils::FaultInjector::Global().Reset();

  EXPECT_EQ(engine.stats().rollbacks, 1);
  EXPECT_EQ(registry.stats().rollbacks, 1);
  EXPECT_EQ(engine.model_snapshot().get(), model_a.get());
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

/// Serves `count` fast batch-1 requests on the live model so the
/// registry's baseline ring holds real compute samples for the relative
/// p99 probe.
void WarmBaseline(InferenceEngine& engine, const core::SagdfnConfig& config,
                  int64_t count) {
  for (const RequestData& r : MakeRequests(config, count, 41)) {
    Forecast forecast = engine.Submit(r.x, r.future_tod).get();
    ASSERT_TRUE(forecast.status.ok()) << forecast.status.ToString();
  }
}

TEST(RegistryTest, RelativeP99ProbeIgnoresLoneOutlierBatch) {
  const core::SagdfnConfig config = TinyConfig();
  const std::string path_a = TempPath("health_p99_lone_a.ckpt");
  const std::string path_b = TempPath("health_p99_lone_b.ckpt");
  SaveCandidate(config, 931, path_a);
  SaveCandidate(config, 932, path_b);
  auto model_a = LoadFrozen(config, path_a);

  RegistryOptions options;
  options.health_window = 12;
  options.p99_regression_factor = 3.0;
  options.min_health_batches = 4;
  EngineOptions engine_options;
  engine_options.num_workers = 1;
  engine_options.max_batch = 1;
  engine_options.max_wait_us = 0;
  InferenceEngine engine(model_a, engine_options);
  ModelRegistry registry(&engine, options);
  // Every batch, baseline and probation alike, is paced by a steady 5 ms
  // stall. A bare tiny-model batch takes tens of microseconds, so one
  // scheduler preemption of a few hundred microseconds already exceeds
  // 3x its baseline p99; that second slow batch would make the probe
  // fire rightly and the lone-outlier case would be lost. Paced, a
  // batch must be held up for more than 10 ms to count as slow.
  const std::string pace = "slow_batch@us=5000";
  struct ResetFaults {
    ~ResetFaults() { utils::FaultInjector::Global().Reset(); }
  } reset_faults;
  ASSERT_TRUE(utils::FaultInjector::Global().Configure(pace).ok());
  WarmBaseline(engine, config, 32);

  ASSERT_TRUE(registry.Publish(path_b).ok());
  ASSERT_TRUE(registry.on_probation());

  // The first probation batch stalls far past 3x any baseline batch —
  // one preempted batch. Every later batch runs at the baseline pace, so
  // the probe must see a healthy candidate once the window fills.
  const std::vector<RequestData> requests =
      MakeRequests(config, options.health_window, 43);
  ASSERT_TRUE(
      utils::FaultInjector::Global().Configure("slow_batch@us=100000").ok());
  Forecast slow = engine.Submit(requests[0].x, requests[0].future_tod).get();
  ASSERT_TRUE(utils::FaultInjector::Global().Configure(pace).ok());
  ASSERT_TRUE(slow.status.ok()) << slow.status.ToString();
  for (size_t i = 1; i < requests.size(); ++i) {
    Forecast forecast =
        engine.Submit(requests[i].x, requests[i].future_tod).get();
    ASSERT_TRUE(forecast.status.ok()) << forecast.status.ToString();
  }

  EXPECT_EQ(registry.stats().rollbacks, 0);
  EXPECT_EQ(engine.stats().rollbacks, 0);
  EXPECT_EQ(registry.stats().health_passes, 1);
  EXPECT_FALSE(registry.on_probation());
  EXPECT_NE(engine.model_snapshot().get(), model_a.get());
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

TEST(RegistryTest, RelativeP99ProbeRollsBackOnSustainedSlowdown) {
  const core::SagdfnConfig config = TinyConfig();
  const std::string path_a = TempPath("health_p99_slow_a.ckpt");
  const std::string path_b = TempPath("health_p99_slow_b.ckpt");
  SaveCandidate(config, 941, path_a);
  SaveCandidate(config, 942, path_b);
  auto model_a = LoadFrozen(config, path_a);

  RegistryOptions options;
  options.health_window = 12;
  options.p99_regression_factor = 3.0;
  options.min_health_batches = 4;
  EngineOptions engine_options;
  engine_options.num_workers = 1;
  engine_options.max_batch = 1;
  engine_options.max_wait_us = 0;
  InferenceEngine engine(model_a, engine_options);
  ModelRegistry registry(&engine, options);
  WarmBaseline(engine, config, 32);

  ASSERT_TRUE(registry.Publish(path_b).ok());
  ASSERT_TRUE(registry.on_probation());

  // Every probation batch is slow: the probe fires as soon as it has
  // min_health_batches samples.
  const std::vector<RequestData> requests =
      MakeRequests(config, options.health_window, 47);
  ASSERT_TRUE(
      utils::FaultInjector::Global().Configure("slow_batch@us=50000").ok());
  int64_t batches = 0;
  while (batches < options.health_window && engine.stats().rollbacks == 0) {
    Forecast forecast = engine.Submit(requests[batches].x,
                                      requests[batches].future_tod).get();
    EXPECT_TRUE(forecast.status.ok()) << forecast.status.ToString();
    ++batches;
  }
  utils::FaultInjector::Global().Reset();

  EXPECT_EQ(batches, options.min_health_batches);
  EXPECT_EQ(engine.stats().rollbacks, 1);
  EXPECT_EQ(registry.stats().rollbacks, 1);
  EXPECT_EQ(registry.stats().health_passes, 0);
  EXPECT_EQ(engine.model_snapshot().get(), model_a.get());
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

TEST(RegistryTest, CleanCandidatePassesProbation) {
  const core::SagdfnConfig config = TinyConfig();
  const std::string path_b = TempPath("health_pass_b.ckpt");
  SaveCandidate(config, 121, path_b);
  auto model_a = std::shared_ptr<const FrozenModel>(
      FrozenModel::Freeze(std::make_unique<core::SagdfnModel>(config)));

  RegistryOptions options;
  options.health_window = 8;
  options.p99_regression_factor = 0.0;
  EngineOptions engine_options;
  engine_options.num_workers = 1;
  engine_options.max_batch = 4;
  engine_options.max_wait_us = 0;
  InferenceEngine engine(model_a, engine_options);
  ModelRegistry registry(&engine, options);

  ASSERT_TRUE(registry.Publish(path_b).ok());
  ASSERT_TRUE(registry.on_probation());

  // The gate sized the candidate's one plan for the engine's largest
  // batch, so no batch the engine forms after the swap compiles a plan.
  const std::shared_ptr<const FrozenModel> live = engine.model_snapshot();
  const int64_t max_batch = engine_options.max_batch;
  const std::shared_ptr<const core::RolloutPlan> plan = live->PlanFor(1);
  EXPECT_EQ(live->PlanFor(max_batch).get(), plan.get());

  // Drive one batch of every size 1..max_batch: a slow_batch stall holds
  // the worker in the previous batch while the next one queues whole.
  ASSERT_TRUE(
      utils::FaultInjector::Global().Configure("slow_batch@us=20000").ok());
  const int64_t batches_before = engine.stats().batches;
  const std::vector<RequestData> sized = MakeRequests(config, max_batch, 31);
  std::vector<std::future<Forecast>> futures;
  for (int64_t b = 1; b <= max_batch; ++b) {
    while (engine.stats().queue_depth > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    for (int64_t i = 0; i < b; ++i) {
      futures.push_back(engine.Submit(sized[i].x, sized[i].future_tod));
    }
  }
  for (std::future<Forecast>& future : futures) {
    Forecast forecast = future.get();
    ASSERT_TRUE(forecast.status.ok()) << forecast.status.ToString();
  }
  utils::FaultInjector::Global().Reset();
  EXPECT_EQ(engine.stats().batches - batches_before, max_batch);
  EXPECT_EQ(live->PlanFor(max_batch).get(), plan.get());

  const std::vector<RequestData> requests = MakeRequests(config, 10, 29);
  for (const RequestData& r : requests) {
    Forecast forecast = engine.Submit(r.x, r.future_tod).get();
    ASSERT_TRUE(forecast.status.ok()) << forecast.status.ToString();
  }
  EXPECT_FALSE(registry.on_probation());
  EXPECT_EQ(registry.stats().health_passes, 1);
  EXPECT_EQ(registry.stats().rollbacks, 0);
  EXPECT_EQ(engine.stats().rollbacks, 0);
  std::remove(path_b.c_str());
}

// ---------------------------------------------------------------------------
// Deadlines and shedding
// ---------------------------------------------------------------------------

TEST(RegistryTest, QueueExpiredDeadlineRejectedOthersUnaffected) {
  const core::SagdfnConfig config = TinyConfig();
  auto model = std::shared_ptr<const FrozenModel>(
      FrozenModel::Freeze(std::make_unique<core::SagdfnModel>(config)));
  const std::vector<RequestData> requests = MakeRequests(config, 8, 31);
  const std::vector<Tensor> reference = SerialReference(*model, requests);

  EngineOptions options;
  options.num_workers = 1;
  options.max_batch = 8;
  options.max_wait_us = 60'000'000;  // only a full batch flushes
  InferenceEngine engine(model, options);

  // Request 0 carries a 1 ms deadline and sits in the queue while the
  // worker waits for a full batch; it expires there.
  std::future<Forecast> doomed = engine.Submit(
      requests[0].x, requests[0].future_tod, std::chrono::microseconds(1000));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // Seven live requests complete the batch of 8 and trigger the flush.
  std::vector<std::future<Forecast>> live;
  for (size_t i = 1; i < requests.size(); ++i) {
    live.push_back(engine.Submit(requests[i].x, requests[i].future_tod));
  }

  Forecast expired = doomed.get();
  EXPECT_EQ(expired.status.code(), utils::StatusCode::kDeadlineExceeded)
      << expired.status.ToString();
  for (size_t i = 0; i < live.size(); ++i) {
    Forecast forecast = live[i].get();
    ASSERT_TRUE(forecast.status.ok()) << forecast.status.ToString();
    EXPECT_TRUE(BytesEqual(forecast.prediction, reference[i + 1]))
        << "live request " << i + 1 << " affected by the expired one";
  }
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.timed_out, 1);
  EXPECT_EQ(stats.completed, 7);
  // The expired request was never executed: one batch of 7 ran.
  EXPECT_EQ(stats.batches, 1);
}

TEST(RegistryTest, DefaultDeadlineAppliesToPlainSubmit) {
  const core::SagdfnConfig config = TinyConfig();
  auto model = std::shared_ptr<const FrozenModel>(
      FrozenModel::Freeze(std::make_unique<core::SagdfnModel>(config)));
  const std::vector<RequestData> requests = MakeRequests(config, 2, 37);

  EngineOptions options;
  options.num_workers = 1;
  options.max_batch = 2;
  options.max_wait_us = 60'000'000;
  options.default_deadline_us = 1'000;
  InferenceEngine engine(model, options);

  std::future<Forecast> first =
      engine.Submit(requests[0].x, requests[0].future_tod);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  // The second submission flushes the batch; by then the first expired.
  std::future<Forecast> second = engine.Submit(
      requests[1].x, requests[1].future_tod, std::chrono::microseconds(-1));
  EXPECT_EQ(first.get().status.code(),
            utils::StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(second.get().status.ok());
  EXPECT_EQ(engine.stats().timed_out, 1);
}

TEST(RegistryTest, OverloadWatermarkShedsWithUnavailable) {
  const core::SagdfnConfig config = TinyConfig();
  auto model = std::shared_ptr<const FrozenModel>(
      FrozenModel::Freeze(std::make_unique<core::SagdfnModel>(config)));
  const std::vector<RequestData> requests = MakeRequests(config, 3, 41);

  EngineOptions options;
  options.num_workers = 1;
  options.max_batch = 8;
  options.max_wait_us = 60'000'000;
  options.max_queue_depth = 10;
  options.shed_queue_depth = 2;
  InferenceEngine engine(model, options);

  std::vector<std::future<Forecast>> accepted;
  accepted.push_back(engine.Submit(requests[0].x, requests[0].future_tod));
  accepted.push_back(engine.Submit(requests[1].x, requests[1].future_tod));
  Forecast shed = engine.Submit(requests[2].x, requests[2].future_tod).get();
  EXPECT_EQ(shed.status.code(), utils::StatusCode::kUnavailable)
      << shed.status.ToString();
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.shed, 1);
  EXPECT_EQ(stats.rejected, 0) << "shedding is counted separately";
  engine.Shutdown();  // drains the two accepted requests
  for (auto& future : accepted) {
    EXPECT_TRUE(future.get().status.ok());
  }
}

// ---------------------------------------------------------------------------
// Watched directory
// ---------------------------------------------------------------------------

TEST(RegistryTest, WatchedDirectoryPublishesNewCandidatesOnce) {
  const core::SagdfnConfig config = TinyConfig();
  const std::string dir = TempPath("registry_watch");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  auto live = std::shared_ptr<const FrozenModel>(
      FrozenModel::Freeze(std::make_unique<core::SagdfnModel>(config)));
  InferenceEngine engine(live, EngineOptions{});
  RegistryOptions options;
  options.watch_dir = dir;
  ModelRegistry registry(&engine, options);

  EXPECT_EQ(registry.ScanOnce(), 0);  // empty directory

  SaveCandidate(config, 151, dir + "/candidate_b.ckpt");
  EXPECT_EQ(registry.ScanOnce(), 1);
  EXPECT_EQ(registry.stats().published, 1);
  EXPECT_EQ(registry.ScanOnce(), 0) << "a processed candidate is not retried";

  // A corrupt drop is rejected without touching the live model...
  const FrozenModel* before = engine.model_snapshot().get();
  {
    std::ofstream out(dir + "/candidate_c.ckpt", std::ios::binary);
    out << "not a checkpoint";
  }
  EXPECT_EQ(registry.ScanOnce(), 0);
  EXPECT_EQ(registry.stats().rejected, 1);
  EXPECT_EQ(engine.model_snapshot().get(), before);

  // ...and a rewritten (changed size) file is picked up again.
  SaveCandidate(config, 161, dir + "/candidate_c.ckpt");
  EXPECT_EQ(registry.ScanOnce(), 1);
  EXPECT_EQ(registry.stats().published, 2);
  std::filesystem::remove_all(dir);
}

TEST(RegistryTest, WatchedDirectoryDetectsSameSizeSameMtimeRewrite) {
  // Regression: the dedup key used to be (size, mtime). A candidate
  // rewritten with identical byte size inside the filesystem's mtime
  // granularity — exactly what re-publishing a fixed-architecture
  // checkpoint produces — was silently skipped. The content fingerprint
  // in CandidateVersion must catch it.
  const core::SagdfnConfig config = TinyConfig();
  const std::string dir = TempPath("registry_watch_rewrite");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  auto live = std::shared_ptr<const FrozenModel>(
      FrozenModel::Freeze(std::make_unique<core::SagdfnModel>(config)));
  InferenceEngine engine(live, EngineOptions{});
  RegistryOptions options;
  options.watch_dir = dir;
  ModelRegistry registry(&engine, options);

  const std::string path = dir + "/candidate.ckpt";
  SaveCandidate(config, 151, path);
  const auto size_first = std::filesystem::file_size(path);
  const auto mtime_first = std::filesystem::last_write_time(path);
  EXPECT_EQ(registry.ScanOnce(), 1);
  EXPECT_EQ(registry.stats().published, 1);

  // Rewrite with a different seed: same architecture, same byte size,
  // different weights. Pin the mtime back so (size, mtime) is identical
  // to the processed version — only the content differs.
  SaveCandidate(config, 152, path);
  ASSERT_EQ(std::filesystem::file_size(path), size_first)
      << "test premise broken: rewrite changed the file size";
  std::filesystem::last_write_time(path, mtime_first);

  EXPECT_EQ(registry.ScanOnce(), 1)
      << "a same-size same-mtime rewrite was not detected";
  EXPECT_EQ(registry.stats().published, 2);
  EXPECT_EQ(registry.ScanOnce(), 0)
      << "the rewritten version must itself be deduplicated";
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace sagdfn::serve
