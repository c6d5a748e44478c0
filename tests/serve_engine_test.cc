// Concurrency tests for the batched inference engine (src/serve).
//
// The core claim under test is the determinism contract: a request's
// forecast is BYTE-identical (memcmp, not AllClose) whether it runs
// serially through the frozen model, through a 1-worker engine, or
// through an 8-worker engine under randomized arrival interleavings —
// micro-batch composition must never leak into the numbers.
#include "serve/engine.h"

#include <chrono>
#include <cstring>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/sagdfn.h"
#include "serve/frozen_model.h"
#include "tensor/tensor.h"
#include "utils/rng.h"
#include "utils/status.h"

namespace sagdfn::serve {
namespace {

using tensor::Shape;
using tensor::Tensor;

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

std::shared_ptr<const FrozenModel> MakeFrozen(
    const core::SagdfnConfig& config) {
  return std::shared_ptr<const FrozenModel>(
      FrozenModel::Freeze(std::make_unique<core::SagdfnModel>(config)));
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

// Serial ground truth: each request alone through the frozen model.
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

// Submits every request from `clients` threads with per-thread seeded
// random jitter (so arrival order interleaves differently per seed) and
// memcmp-checks every forecast against the serial reference.
void RunInterleaved(const EngineOptions& options, int64_t clients,
                    uint64_t jitter_seed) {
  const core::SagdfnConfig config = TinyConfig();
  auto model = MakeFrozen(config);
  const std::vector<RequestData> requests = MakeRequests(config, 24);
  const std::vector<Tensor> reference = SerialReference(*model, requests);

  InferenceEngine engine(model, options);
  std::vector<std::future<Forecast>> futures(requests.size());
  std::vector<std::thread> threads;
  for (int64_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      utils::Rng rng(jitter_seed + static_cast<uint64_t>(c));
      for (size_t i = c; i < requests.size(); i += clients) {
        std::this_thread::sleep_for(std::chrono::microseconds(
            static_cast<int64_t>(rng.Uniform(0.0, 200.0))));
        futures[i] = engine.Submit(requests[i].x, requests[i].future_tod);
      }
    });
  }
  for (auto& t : threads) t.join();
  for (size_t i = 0; i < futures.size(); ++i) {
    Forecast forecast = futures[i].get();
    ASSERT_TRUE(forecast.status.ok()) << forecast.status.ToString();
    EXPECT_TRUE(BytesEqual(forecast.prediction, reference[i]))
        << "request " << i << " differs from serial reference";
  }
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.submitted, static_cast<int64_t>(requests.size()));
  EXPECT_EQ(stats.rejected, 0);
}

TEST(ServeEngineTest, OneWorkerMatchesSerialBytes) {
  EngineOptions options;
  options.num_workers = 1;
  options.max_batch = 4;
  options.max_wait_us = 200;
  RunInterleaved(options, /*clients=*/2, /*jitter_seed=*/17);
}

TEST(ServeEngineTest, EightWorkersMatchSerialBytes) {
  EngineOptions options;
  options.num_workers = 8;
  options.max_batch = 4;
  options.max_wait_us = 200;
  for (uint64_t seed : {1u, 29u, 333u}) {
    RunInterleaved(options, /*clients=*/4, seed);
  }
}

TEST(ServeEngineTest, GreedyBatchingMatchesSerialBytes) {
  // max_wait_us = 0: workers grab whatever is queued, so batch
  // compositions vary run to run — the bytes must not.
  EngineOptions options;
  options.num_workers = 3;
  options.max_batch = 16;
  options.max_wait_us = 0;
  RunInterleaved(options, /*clients=*/3, /*jitter_seed=*/71);
}

TEST(ServeEngineTest, PlanReplayMatchesEagerBytes) {
  // FrozenModel::Predict serves from the precompiled rollout plan; its
  // bytes must match the eager autograd walk even when requests arrive
  // through a loaded multi-worker engine with varying batch composition.
  const core::SagdfnConfig config = TinyConfig();
  auto model = MakeFrozen(config);
  const std::vector<RequestData> requests = MakeRequests(config, 16, 11);
  std::vector<Tensor> eager;
  eager.reserve(requests.size());
  for (const RequestData& r : requests) {
    Tensor x(Shape({1, config.history, config.num_nodes, config.input_dim}));
    std::memcpy(x.data(), r.x.data(), r.x.size() * sizeof(float));
    Tensor tod(Shape({1, config.horizon}));
    std::memcpy(tod.data(), r.future_tod.data(),
                r.future_tod.size() * sizeof(float));
    eager.push_back(model->model().Predict(x, tod, model->snapshot()));
  }
  EngineOptions options;
  options.num_workers = 8;
  options.max_batch = 4;
  options.max_wait_us = 100;
  InferenceEngine engine(model, options);
  std::vector<std::future<Forecast>> futures;
  futures.reserve(requests.size());
  for (const RequestData& r : requests) {
    futures.push_back(engine.Submit(r.x, r.future_tod));
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    Forecast forecast = futures[i].get();
    ASSERT_TRUE(forecast.status.ok()) << forecast.status.ToString();
    EXPECT_TRUE(BytesEqual(forecast.prediction, eager[i]))
        << "request " << i << " differs from the eager reference";
  }
}

TEST(ServeEngineTest, BatchedEqualsUnbatchedBitForBit) {
  const core::SagdfnConfig config = TinyConfig();
  auto model = MakeFrozen(config);
  const std::vector<RequestData> requests = MakeRequests(config, 7);
  const std::vector<Tensor> reference = SerialReference(*model, requests);

  // All 7 requests in one batch.
  const int64_t sample =
      config.history * config.num_nodes * config.input_dim;
  Tensor x(Shape({7, config.history, config.num_nodes, config.input_dim}));
  Tensor tod(Shape({7, config.horizon}));
  for (int64_t i = 0; i < 7; ++i) {
    std::memcpy(x.data() + i * sample, requests[i].x.data(),
                sample * sizeof(float));
    std::memcpy(tod.data() + i * config.horizon,
                requests[i].future_tod.data(),
                config.horizon * sizeof(float));
  }
  Tensor batched = model->Predict(x, tod);  // [7, f, N]
  const int64_t per_request = config.horizon * config.num_nodes;
  for (int64_t i = 0; i < 7; ++i) {
    EXPECT_EQ(std::memcmp(batched.data() + i * per_request,
                          reference[i].data(),
                          per_request * sizeof(float)),
              0)
        << "batch row " << i;
  }
}

TEST(ServeEngineTest, ShutdownDrainsQueuedRequests) {
  const core::SagdfnConfig config = TinyConfig();
  auto model = MakeFrozen(config);
  const std::vector<RequestData> requests = MakeRequests(config, 16);

  EngineOptions options;
  options.num_workers = 2;
  options.max_batch = 4;
  options.max_wait_us = 50'000;  // without shutdown this would sit waiting
  options.drain_on_shutdown = true;
  InferenceEngine engine(model, options);
  std::vector<std::future<Forecast>> futures;
  for (const RequestData& r : requests) {
    futures.push_back(engine.Submit(r.x, r.future_tod));
  }
  engine.Shutdown();
  for (auto& future : futures) {
    ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
              std::future_status::ready)
        << "shutdown returned with a dangling future";
    Forecast forecast = future.get();
    EXPECT_TRUE(forecast.status.ok()) << forecast.status.ToString();
  }
  EXPECT_EQ(engine.stats().completed, 16);
}

TEST(ServeEngineTest, ShutdownRejectsQueuedRequestsWhenNotDraining) {
  const core::SagdfnConfig config = TinyConfig();
  auto model = MakeFrozen(config);
  const std::vector<RequestData> requests = MakeRequests(config, 16);

  EngineOptions options;
  options.num_workers = 1;
  options.max_batch = 4;
  options.max_wait_us = 50'000;
  options.drain_on_shutdown = false;
  InferenceEngine engine(model, options);
  std::vector<std::future<Forecast>> futures;
  for (const RequestData& r : requests) {
    futures.push_back(engine.Submit(r.x, r.future_tod));
  }
  engine.Shutdown();
  int64_t completed = 0;
  int64_t rejected = 0;
  for (auto& future : futures) {
    ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
              std::future_status::ready)
        << "shutdown returned with a dangling future";
    Forecast forecast = future.get();
    if (forecast.status.ok()) {
      ++completed;
    } else {
      EXPECT_EQ(forecast.status.code(),
                utils::StatusCode::kFailedPrecondition)
          << forecast.status.ToString();
      ++rejected;
    }
  }
  EXPECT_EQ(completed + rejected, 16);
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.completed, completed);
  EXPECT_EQ(stats.rejected, rejected);
}

TEST(ServeEngineTest, DestructorUnderLoadSatisfiesEveryFuture) {
  const core::SagdfnConfig config = TinyConfig();
  auto model = MakeFrozen(config);
  const std::vector<RequestData> requests = MakeRequests(config, 32);

  std::vector<std::future<Forecast>> futures;
  {
    EngineOptions options;
    options.num_workers = 4;
    options.max_batch = 4;
    options.max_wait_us = 1'000;
    InferenceEngine engine(model, options);
    std::vector<std::thread> clients;
    std::mutex futures_mu;
    for (int64_t c = 0; c < 4; ++c) {
      clients.emplace_back([&, c] {
        for (size_t i = c; i < requests.size(); i += 4) {
          std::future<Forecast> f =
              engine.Submit(requests[i].x, requests[i].future_tod);
          std::lock_guard<std::mutex> lock(futures_mu);
          futures.push_back(std::move(f));
        }
      });
    }
    for (auto& client : clients) client.join();
    // Engine destroyed here with requests still queued / in flight.
  }
  ASSERT_EQ(futures.size(), requests.size());
  for (auto& future : futures) {
    ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
              std::future_status::ready)
        << "destructor returned with a dangling future";
    Forecast forecast = future.get();  // ok (drained) — must not throw
    EXPECT_TRUE(forecast.status.ok()) << forecast.status.ToString();
  }
}

TEST(ServeEngineTest, SubmitAfterShutdownIsRejected) {
  const core::SagdfnConfig config = TinyConfig();
  auto model = MakeFrozen(config);
  InferenceEngine engine(model, EngineOptions{});
  engine.Shutdown();
  const std::vector<RequestData> requests = MakeRequests(config, 1);
  Forecast forecast =
      engine.Submit(requests[0].x, requests[0].future_tod).get();
  EXPECT_EQ(forecast.status.code(), utils::StatusCode::kFailedPrecondition);
  EXPECT_EQ(engine.stats().rejected, 1);
}

TEST(ServeEngineTest, MalformedRequestsAreRejectedNotFatal) {
  const core::SagdfnConfig config = TinyConfig();
  auto model = MakeFrozen(config);
  InferenceEngine engine(model, EngineOptions{});
  const Tensor good_tod = Tensor::Zeros(Shape({config.horizon}));

  // Wrong rank.
  Forecast f1 = engine.Submit(Tensor::Zeros(Shape({4, 10})), good_tod).get();
  EXPECT_EQ(f1.status.code(), utils::StatusCode::kInvalidArgument);
  // Wrong node count.
  Forecast f2 =
      engine.Submit(Tensor::Zeros(Shape({4, 11, 2})), good_tod).get();
  EXPECT_EQ(f2.status.code(), utils::StatusCode::kInvalidArgument);
  // Wrong horizon.
  Forecast f3 = engine
                    .Submit(Tensor::Zeros(Shape({4, 10, 2})),
                            Tensor::Zeros(Shape({config.horizon + 1})))
                    .get();
  EXPECT_EQ(f3.status.code(), utils::StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.stats().rejected, 3);
  EXPECT_EQ(engine.stats().submitted, 0);
}

TEST(ServeEngineTest, FullQueueAppliesBackpressure) {
  const core::SagdfnConfig config = TinyConfig();
  auto model = MakeFrozen(config);
  const std::vector<RequestData> requests = MakeRequests(config, 4);

  // The worker waits for a full batch of 8 (deadline far away), so three
  // submissions sit in the queue and the fourth deterministically bounces.
  EngineOptions options;
  options.num_workers = 1;
  options.max_batch = 8;
  options.max_wait_us = 60'000'000;
  options.max_queue_depth = 3;
  options.drain_on_shutdown = true;
  InferenceEngine engine(model, options);
  std::vector<std::future<Forecast>> accepted;
  for (int64_t i = 0; i < 3; ++i) {
    accepted.push_back(
        engine.Submit(requests[i].x, requests[i].future_tod));
  }
  Forecast bounced =
      engine.Submit(requests[3].x, requests[3].future_tod).get();
  EXPECT_EQ(bounced.status.code(), utils::StatusCode::kResourceExhausted);
  engine.Shutdown();  // drains the three queued requests
  for (auto& future : accepted) {
    EXPECT_TRUE(future.get().status.ok());
  }
}

}  // namespace
}  // namespace sagdfn::serve
