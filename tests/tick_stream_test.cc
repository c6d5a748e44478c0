// Streaming tick-loop tests (src/serve/forecast_cache): the single-slot
// per-scenario forecast cache and the TickStreamer writer.
//
// The claims under test:
//   * Carry contract: incremental ticks (O(1) encoder work, hidden state
//     carried in TickState) publish forecasts BIT-identical to eagerly
//     re-encoding every frame received since warmup, across >= 3
//     consecutive ticks.
//   * Cache invalidation: a new tick atomically replaces the slot (no
//     reader ever sees a stale forecast for a published window id), and
//     a model swap — direct SetModel or through the engine's swap
//     observer — empties the slot immediately, so no reader is served a
//     retired snapshot's forecast.
//   * Warmup: nothing is published until `history` frames arrived.
//   * Drift guard: full_reencode_every forces periodic kFull replays.
//   * Concurrent readers against one writer are race-free (this suite
//     runs under TSan via tools/check_tsan.sh) and observe monotonic
//     window ids.
#include "serve/forecast_cache.h"

#include <atomic>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/sagdfn.h"
#include "serve/engine.h"
#include "serve/frozen_model.h"
#include "tensor/tensor.h"
#include "utils/rng.h"

namespace sagdfn::serve {
namespace {

using tensor::Shape;
using tensor::Tensor;

core::SagdfnConfig TinyConfig() {
  core::SagdfnConfig config;
  config.num_nodes = 9;
  config.embedding_dim = 4;
  config.m = 5;
  config.k = 3;
  config.hidden_dim = 6;
  config.heads = 2;
  config.ffn_hidden = 4;
  config.diffusion_steps = 2;
  config.history = 5;
  config.horizon = 4;
  config.seed = 33;
  return config;
}

std::shared_ptr<const FrozenModel> MakeFrozen(const core::SagdfnConfig& config,
                                              uint64_t seed = 0) {
  core::SagdfnConfig seeded = config;
  if (seed != 0) seeded.seed = seed;
  return std::shared_ptr<const FrozenModel>(
      FrozenModel::Freeze(std::make_unique<core::SagdfnModel>(seeded)));
}

/// A deterministic frame stream plus the tod covariates for one window.
struct Stream {
  std::vector<Tensor> frames;  // each [N, C]
  Tensor tod;                  // [f]
};

Stream MakeStream(const core::SagdfnConfig& config, int64_t ticks,
                  uint64_t seed = 11) {
  utils::Rng rng(seed);
  Stream s;
  for (int64_t i = 0; i < ticks; ++i) {
    s.frames.push_back(Tensor::Normal(
        Shape({config.num_nodes, config.input_dim}), rng));
  }
  s.tod = Tensor::Uniform(Shape({config.horizon}), rng, 0.0f, 1.0f);
  return s;
}

/// Eager reference for tick `t`: re-encode ALL frames 0..t from zero
/// init through the autograd path (the differential oracle for the
/// incremental chain). Returns [1, f, N].
Tensor EagerAccumulated(const FrozenModel& model, const Stream& stream,
                        int64_t t) {
  const core::SagdfnConfig& config = model.config();
  const int64_t frame_floats = config.num_nodes * config.input_dim;
  Tensor x{Shape({1, t + 1, config.num_nodes, config.input_dim})};
  for (int64_t i = 0; i <= t; ++i) {
    std::memcpy(x.data() + i * frame_floats, stream.frames[i].data(),
                sizeof(float) * frame_floats);
  }
  Tensor tod{Shape({1, config.horizon})};
  std::memcpy(tod.data(), stream.tod.data(),
              sizeof(float) * config.horizon);
  return model.model().Predict(x, tod, model.snapshot());
}

/// Eager reference for a sliding h-frame window ending at tick `t`.
Tensor EagerWindow(const FrozenModel& model, const Stream& stream,
                   int64_t t) {
  const core::SagdfnConfig& config = model.config();
  const int64_t h = config.history;
  const int64_t frame_floats = config.num_nodes * config.input_dim;
  Tensor x{Shape({1, h, config.num_nodes, config.input_dim})};
  for (int64_t i = 0; i < h; ++i) {
    std::memcpy(x.data() + i * frame_floats,
                stream.frames[t - h + 1 + i].data(),
                sizeof(float) * frame_floats);
  }
  Tensor tod{Shape({1, config.horizon})};
  std::memcpy(tod.data(), stream.tod.data(),
              sizeof(float) * config.horizon);
  return model.model().Predict(x, tod, model.snapshot());
}

bool BytesEqual(const Tensor& a, const Tensor& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

TEST(ForecastCacheTest, EmptyUntilPublished) {
  ForecastCache cache;
  EXPECT_EQ(cache.Read(), nullptr);
  const ForecastCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.reads, 1);
  EXPECT_EQ(stats.hits, 0);
  EXPECT_EQ(stats.publishes, 0);
}

TEST(ForecastCacheTest, PublishReadInvalidate) {
  ForecastCache cache;
  auto f = std::make_shared<TickForecast>();
  f->window_id = 7;
  cache.Publish(f);
  std::shared_ptr<const TickForecast> read = cache.Read();
  ASSERT_NE(read, nullptr);
  EXPECT_EQ(read->window_id, 7);
  cache.Invalidate();
  EXPECT_EQ(cache.Read(), nullptr);
  // The reader's pinned copy survives the invalidation.
  EXPECT_EQ(read->window_id, 7);
  const ForecastCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.publishes, 1);
  EXPECT_EQ(stats.invalidations, 1);
}

TEST(TickStreamerTest, WarmupPublishesNothing) {
  const core::SagdfnConfig config = TinyConfig();
  auto model = MakeFrozen(config);
  const Stream stream = MakeStream(config, config.history);
  ForecastCache cache;
  TickStreamer streamer(model, &cache);
  for (int64_t t = 0; t < config.history - 1; ++t) {
    EXPECT_EQ(streamer.OnTick(stream.frames[t], stream.tod), nullptr);
    EXPECT_EQ(cache.Read(), nullptr) << "published during warmup, tick " << t;
  }
  // The h-th frame completes the first window.
  std::shared_ptr<const TickForecast> first =
      streamer.OnTick(stream.frames[config.history - 1], stream.tod);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->window_id, config.history - 1);
  EXPECT_FALSE(first->incremental) << "the first window is a full encode";
  EXPECT_EQ(cache.Read().get(), first.get());
}

TEST(TickStreamerTest, IncrementalTicksMatchAccumulatedEagerBytes) {
  const core::SagdfnConfig config = TinyConfig();
  auto model = MakeFrozen(config);
  const int64_t h = config.history;
  const int64_t ticks = h + 4;  // >= 3 consecutive incremental ticks
  const Stream stream = MakeStream(config, ticks);
  ForecastCache cache;
  TickStreamer streamer(model, &cache);

  for (int64_t t = 0; t < ticks; ++t) {
    std::shared_ptr<const TickForecast> f =
        streamer.OnTick(stream.frames[t], stream.tod);
    if (t < h - 1) {
      EXPECT_EQ(f, nullptr);
      continue;
    }
    ASSERT_NE(f, nullptr);
    EXPECT_EQ(f->window_id, t);
    EXPECT_EQ(f->incremental, t > h - 1)
        << "every post-warmup tick must take the O(1) incremental path";
    const Tensor eager = EagerAccumulated(*model, stream, t);
    EXPECT_TRUE(BytesEqual(f->prediction, eager))
        << "tick " << t << " diverged from the eager accumulated re-encode";
  }
}

TEST(TickStreamerTest, DriftGuardForcesPeriodicFullReencode) {
  const core::SagdfnConfig config = TinyConfig();
  auto model = MakeFrozen(config);
  const int64_t h = config.history;
  TickStreamerOptions options;
  options.full_reencode_every = 2;
  const int64_t ticks = h + 6;
  const Stream stream = MakeStream(config, ticks);
  ForecastCache cache;
  TickStreamer streamer(model, &cache, options);

  for (int64_t t = 0; t < ticks; ++t) {
    std::shared_ptr<const TickForecast> f =
        streamer.OnTick(stream.frames[t], stream.tod);
    if (t < h - 1) continue;
    ASSERT_NE(f, nullptr);
    // Warmup full at t = h-1, then inc, inc, full, inc, inc, full, ...
    const bool expect_full = (t - (h - 1)) % 3 == 0;
    EXPECT_EQ(f->incremental, !expect_full) << "tick " << t;
    if (expect_full) {
      // A full re-encode is the sliding h-frame window from zero init.
      EXPECT_TRUE(BytesEqual(f->prediction, EagerWindow(*model, stream, t)))
          << "full re-encode at tick " << t
          << " diverged from the eager window";
    }
  }
}

TEST(TickStreamerTest, NewTickAtomicallyReplacesPublishedForecast) {
  const core::SagdfnConfig config = TinyConfig();
  auto model = MakeFrozen(config);
  const int64_t ticks = config.history + 3;
  const Stream stream = MakeStream(config, ticks);
  ForecastCache cache;
  TickStreamer streamer(model, &cache);
  for (int64_t t = 0; t < ticks; ++t) {
    streamer.OnTick(stream.frames[t], stream.tod);
    if (t < config.history - 1) continue;
    std::shared_ptr<const TickForecast> read = cache.Read();
    ASSERT_NE(read, nullptr);
    EXPECT_EQ(read->window_id, t)
        << "a reader saw a stale forecast after tick " << t << " published";
  }
}

TEST(TickStreamerTest, ModelSwapInvalidatesCacheAndForcesFullReencode) {
  const core::SagdfnConfig config = TinyConfig();
  auto model_a = MakeFrozen(config);
  auto model_b = MakeFrozen(config, /*seed=*/77);
  const int64_t h = config.history;
  const int64_t ticks = h + 4;
  const Stream stream = MakeStream(config, ticks);
  ForecastCache cache;
  TickStreamer streamer(model_a, &cache);

  int64_t t = 0;
  for (; t < h + 2; ++t) streamer.OnTick(stream.frames[t], stream.tod);
  ASSERT_NE(cache.Read(), nullptr);
  EXPECT_TRUE(streamer.last_tick_incremental());

  streamer.SetModel(model_b);
  EXPECT_EQ(cache.Read(), nullptr)
      << "a swapped-out model's forecast stayed readable";

  // Next tick republishes on the new snapshot via a full re-encode (the
  // carried state is meaningless under new weights).
  std::shared_ptr<const TickForecast> f =
      streamer.OnTick(stream.frames[t], stream.tod);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->model.get(), model_b.get());
  EXPECT_FALSE(f->incremental);
  EXPECT_TRUE(BytesEqual(f->prediction, EagerWindow(*model_b, stream, t)));
  ++t;

  // And the tick after that is incremental again, chained on the new
  // model's exported state.
  f = streamer.OnTick(stream.frames[t], stream.tod);
  ASSERT_NE(f, nullptr);
  EXPECT_TRUE(f->incremental);

  // Swapping to the SAME model is a no-op (no invalidation).
  const int64_t invalidations_before = cache.stats().invalidations;
  streamer.SetModel(model_b);
  EXPECT_EQ(cache.stats().invalidations, invalidations_before);
  EXPECT_NE(cache.Read(), nullptr);
}

TEST(TickStreamerTest, EngineSwapObserverInvalidatesCache) {
  const core::SagdfnConfig config = TinyConfig();
  auto model_a = MakeFrozen(config);
  auto model_b = MakeFrozen(config, /*seed=*/78);
  const int64_t h = config.history;
  const Stream stream = MakeStream(config, h + 2);
  ForecastCache cache;
  TickStreamer streamer(model_a, &cache);
  InferenceEngine engine(model_a, EngineOptions{});
  streamer.BindEngine(&engine);

  for (int64_t t = 0; t < h + 1; ++t) {
    streamer.OnTick(stream.frames[t], stream.tod);
  }
  ASSERT_NE(cache.Read(), nullptr);

  // A registry-style publish through the engine reaches the streamer
  // through the swap observer: the stale forecast vanishes immediately,
  // not at the next tick.
  ASSERT_TRUE(engine.SwapModel(model_b).ok());
  EXPECT_EQ(cache.Read(), nullptr);

  std::shared_ptr<const TickForecast> f =
      streamer.OnTick(stream.frames[h + 1], stream.tod);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->model.get(), model_b.get());
  engine.SetSwapObserver(nullptr);  // streamer dies before the engine
}

TEST(TickStreamerTest, ConcurrentReadersNeverSeeStaleOrTornForecasts) {
  const core::SagdfnConfig config = TinyConfig();
  auto model = MakeFrozen(config);
  const int64_t h = config.history;
  const int64_t ticks = h + 12;
  const Stream stream = MakeStream(config, ticks);
  ForecastCache cache;
  TickStreamer streamer(model, &cache);
  for (int64_t t = 0; t < h; ++t) {
    streamer.OnTick(stream.frames[t], stream.tod);
  }

  constexpr int kReaders = 8;
  std::atomic<bool> stop{false};
  std::atomic<int64_t> failures{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      int64_t last_window = -1;
      while (!stop.load(std::memory_order_relaxed)) {
        std::shared_ptr<const TickForecast> f = cache.Read();
        if (f == nullptr) continue;  // never invalidated in this test
        // Window ids only move forward, and the pinned forecast is
        // immutable: its prediction matches its window id's reference.
        if (f->window_id < last_window) failures.fetch_add(1);
        last_window = f->window_id;
        if (f->prediction.size() !=
            config.horizon * config.num_nodes) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (int64_t t = h; t < ticks; ++t) {
    streamer.OnTick(stream.frames[t], stream.tod);
  }
  stop.store(true);
  for (auto& r : readers) r.join();
  EXPECT_EQ(failures.load(), 0);
  // Every published window is still byte-correct vs the eager oracle.
  std::shared_ptr<const TickForecast> final_forecast = cache.Read();
  ASSERT_NE(final_forecast, nullptr);
  EXPECT_EQ(final_forecast->window_id, ticks - 1);
  EXPECT_TRUE(BytesEqual(final_forecast->prediction,
                         EagerAccumulated(*model, stream, ticks - 1)));
}

TEST(TickStreamerTest, RejectsMalformedInputs) {
  const core::SagdfnConfig config = TinyConfig();
  auto model = MakeFrozen(config);
  ForecastCache cache;
  TickStreamer streamer(model, &cache);
  Tensor bad_frame{Shape({config.num_nodes + 1, config.input_dim})};
  Tensor tod{Shape({config.horizon})};
  EXPECT_DEATH(streamer.OnTick(bad_frame, tod), "");
  Tensor frame{Shape({config.num_nodes, config.input_dim})};
  Tensor bad_tod{Shape({config.horizon + 2})};
  EXPECT_DEATH(streamer.OnTick(frame, bad_tod), "");
}

}  // namespace
}  // namespace sagdfn::serve
