// Google-benchmark latency/throughput benchmarks for the batched
// inference engine (src/serve). Each BM_Serve* scenario replays a fixed
// request stream from concurrent clients through an InferenceEngine and
// records per-request end-to-end latency; after the run a compact
// summary (p50/p99 latency in microseconds plus request throughput per
// scenario) is written to BENCH_serve_latency.json so
// tools/check_bench_regression.py can compare it against the committed
// baseline in bench/baselines/.
//
// The model is small on purpose: the interesting numbers here are the
// engine's queueing/batching overheads and their trend across PRs, not
// the raw kernel cost (bench_micro_ops covers that).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/sagdfn.h"
#include "serve/engine.h"
#include "serve/forecast_cache.h"
#include "serve/frozen_model.h"
#include "serve/tenant_router.h"
#include "tensor/tensor.h"
#include "utils/rng.h"

namespace sagdfn {
namespace {

// Engine knobs overridable from the command line (see main): --max_wait_us
// sets the batching window for every scenario; --max_batch, when positive,
// overrides each scenario's max_batch argument. Defaults reproduce the
// committed baseline numbers.
int64_t g_max_wait_us = 200;
int64_t g_max_batch = 0;
// --readers overrides the reader-thread count of the cached-read
// scenario (0 = use the registered benchmark argument).
int64_t g_readers = 0;

struct ScenarioSummary {
  double p50_us = 0.0;
  double p99_us = 0.0;
  double throughput_rps = 0.0;
  int64_t requests = 0;
  // Serve-path failure/lifecycle counters (EngineStats): deadline
  // expiries, overload sheds, and model swaps/rollbacks seen during the
  // scenario. Zero for the plain latency scenarios; the swap scenario
  // asserts its own swap traffic through them.
  int64_t timed_out = 0;
  int64_t shed = 0;
  int64_t swaps = 0;
  int64_t rollbacks = 0;
};

void RecordEngineCounters(const serve::InferenceEngine& engine,
                          ScenarioSummary* summary,
                          benchmark::State& state) {
  const serve::EngineStats stats = engine.stats();
  summary->timed_out = stats.timed_out;
  summary->shed = stats.shed;
  summary->swaps = stats.swaps;
  summary->rollbacks = stats.rollbacks;
  state.counters["timed_out"] = static_cast<double>(stats.timed_out);
  state.counters["shed"] = static_cast<double>(stats.shed);
  state.counters["swaps"] = static_cast<double>(stats.swaps);
  state.counters["rollbacks"] = static_cast<double>(stats.rollbacks);
}

// Scenario name -> summary, written to BENCH_serve_latency.json by main().
std::map<std::string, ScenarioSummary>& Summaries() {
  static std::map<std::string, ScenarioSummary> summaries;
  return summaries;
}

core::SagdfnConfig BenchConfig() {
  core::SagdfnConfig config;
  config.num_nodes = 32;
  config.embedding_dim = 8;
  config.m = 12;
  config.k = 8;
  config.hidden_dim = 16;
  config.heads = 2;
  config.ffn_hidden = 8;
  config.diffusion_steps = 2;
  config.history = 12;
  config.horizon = 12;
  config.seed = 7;
  return config;
}

// One frozen model shared by every scenario: latency depends on shapes,
// not on trained weights, so the randomly initialized model is enough.
std::shared_ptr<const serve::FrozenModel> SharedModel() {
  static std::shared_ptr<const serve::FrozenModel> model = [] {
    auto raw = std::make_unique<core::SagdfnModel>(BenchConfig());
    return std::shared_ptr<const serve::FrozenModel>(
        serve::FrozenModel::Freeze(std::move(raw)));
  }();
  return model;
}

struct RequestStream {
  std::vector<tensor::Tensor> xs;
  std::vector<tensor::Tensor> tods;
};

const RequestStream& SharedStream(int64_t count) {
  static std::map<int64_t, RequestStream> streams;
  auto it = streams.find(count);
  if (it != streams.end()) return it->second;
  const core::SagdfnConfig config = BenchConfig();
  utils::Rng rng(99);
  RequestStream stream;
  for (int64_t i = 0; i < count; ++i) {
    stream.xs.push_back(tensor::Tensor::Normal(
        tensor::Shape({config.history, config.num_nodes, 2}), rng));
    stream.tods.push_back(tensor::Tensor::Uniform(
        tensor::Shape({config.horizon}), rng, 0.0f, 1.0f));
  }
  return streams.emplace(count, std::move(stream)).first->second;
}

/// Sorts the scenario's latency sample ONCE and fills the summary
/// percentiles through the shared unbiased estimator
/// (bench::PercentileSorted) — one sort per scenario instead of one per
/// percentile query, and no +0.5 index bias.
void FillLatencyPercentiles(std::vector<double>* latencies_us,
                            ScenarioSummary* summary) {
  std::sort(latencies_us->begin(), latencies_us->end());
  summary->p50_us = bench::PercentileSorted(*latencies_us, 50.0);
  summary->p99_us = bench::PercentileSorted(*latencies_us, 99.0);
  summary->requests = static_cast<int64_t>(latencies_us->size());
}

/// Replays `requests` windows from `clients` submitter threads and
/// appends each request's end-to-end latency to `latencies_us`. Returns
/// the wall-clock seconds for the whole replay.
double ReplayOnce(serve::InferenceEngine& engine, int64_t requests,
                  int64_t clients, std::vector<double>* latencies_us) {
  const RequestStream& stream = SharedStream(requests);
  std::vector<std::future<serve::Forecast>> futures(requests);
  std::vector<std::chrono::steady_clock::time_point> started(requests);
  const auto wall_start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (int64_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (int64_t i = c; i < requests; i += clients) {
        started[i] = std::chrono::steady_clock::now();
        futures[i] = engine.Submit(stream.xs[i], stream.tods[i]);
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int64_t i = 0; i < requests; ++i) {
    futures[i].wait();
    latencies_us->push_back(
        std::chrono::duration_cast<std::chrono::duration<double, std::micro>>(
            std::chrono::steady_clock::now() - started[i])
            .count());
  }
  return std::chrono::duration_cast<std::chrono::duration<double>>(
             std::chrono::steady_clock::now() - wall_start)
      .count();
}

/// workers x max_batch sweep: the engine's end-to-end request latency
/// under a bursty 4-client load.
void BM_ServeLatency(benchmark::State& state) {
  const int64_t workers = state.range(0);
  const int64_t max_batch = g_max_batch > 0 ? g_max_batch : state.range(1);
  const int64_t requests = 64;
  serve::EngineOptions options;
  options.num_workers = workers;
  options.max_batch = max_batch;
  options.max_wait_us = g_max_wait_us;
  serve::InferenceEngine engine(SharedModel(), options);

  std::vector<double> latencies_us;
  double wall_s = 0.0;
  for (auto _ : state) {
    wall_s += ReplayOnce(engine, requests, /*clients=*/4, &latencies_us);
  }
  ScenarioSummary summary;
  FillLatencyPercentiles(&latencies_us, &summary);
  summary.throughput_rps =
      wall_s > 0.0 ? static_cast<double>(summary.requests) / wall_s : 0.0;
  RecordEngineCounters(engine, &summary, state);
  Summaries()["serve.w" + std::to_string(workers) + ".b" +
              std::to_string(max_batch)] = summary;
  state.counters["p50_us"] = summary.p50_us;
  state.counters["p99_us"] = summary.p99_us;
  state.counters["rps"] = summary.throughput_rps;
}
BENCHMARK(BM_ServeLatency)
    ->ArgNames({"workers", "batch"})
    ->Args({1, 1})
    ->Args({1, 8})
    ->Args({2, 8})
    ->Args({4, 8})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3);

/// Low-wait sweep: how much of the batching window (max_wait_us) the
/// engine actually needs under the same bursty load. wait=0 degenerates
/// to take-what's-queued batching; the gap between wait=0 and the
/// default 200us shows the latency cost of waiting for fuller batches.
void BM_ServeLowWaitSweep(benchmark::State& state) {
  const int64_t wait_us = state.range(0);
  const int64_t requests = 64;
  serve::EngineOptions options;
  options.num_workers = 2;
  options.max_batch = g_max_batch > 0 ? g_max_batch : 8;
  options.max_wait_us = wait_us;
  serve::InferenceEngine engine(SharedModel(), options);

  std::vector<double> latencies_us;
  double wall_s = 0.0;
  for (auto _ : state) {
    wall_s += ReplayOnce(engine, requests, /*clients=*/4, &latencies_us);
  }
  ScenarioSummary summary;
  FillLatencyPercentiles(&latencies_us, &summary);
  summary.throughput_rps =
      wall_s > 0.0 ? static_cast<double>(summary.requests) / wall_s : 0.0;
  RecordEngineCounters(engine, &summary, state);
  Summaries()["serve.lowwait.wait" + std::to_string(wait_us)] = summary;
  state.counters["p50_us"] = summary.p50_us;
  state.counters["p99_us"] = summary.p99_us;
  state.counters["rps"] = summary.throughput_rps;
}
BENCHMARK(BM_ServeLowWaitSweep)
    ->ArgNames({"wait_us"})
    ->Arg(0)
    ->Arg(50)
    ->Arg(200)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3);

/// Hot-swap cost: the 4-client replay with a model swap landing in the
/// middle of every iteration. Measures what a registry publish does to
/// request latency (the answer should be "nothing visible": swaps are a
/// pointer exchange; in-flight batches finish on their pinned snapshot).
void BM_ServeSwapUnderLoad(benchmark::State& state) {
  const int64_t requests = 64;
  serve::EngineOptions options;
  options.num_workers = 2;
  options.max_batch = g_max_batch > 0 ? g_max_batch : 8;
  options.max_wait_us = g_max_wait_us;
  serve::InferenceEngine engine(SharedModel(), options);
  // A second snapshot with the same shapes: alternate swaps between the
  // two so every iteration pays one full swap.
  auto other = std::shared_ptr<const serve::FrozenModel>(
      serve::FrozenModel::Freeze(
          std::make_unique<core::SagdfnModel>(BenchConfig())));
  const std::shared_ptr<const serve::FrozenModel> snapshots[2] = {
      other, SharedModel()};

  std::vector<double> latencies_us;
  double wall_s = 0.0;
  int64_t iteration = 0;
  for (auto _ : state) {
    std::thread swapper([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      if (!engine.SwapModel(snapshots[iteration % 2]).ok()) {
        state.SkipWithError("SwapModel failed");
      }
    });
    wall_s += ReplayOnce(engine, requests, /*clients=*/4, &latencies_us);
    swapper.join();
    ++iteration;
  }
  ScenarioSummary summary;
  FillLatencyPercentiles(&latencies_us, &summary);
  summary.throughput_rps =
      wall_s > 0.0 ? static_cast<double>(summary.requests) / wall_s : 0.0;
  RecordEngineCounters(engine, &summary, state);
  Summaries()["serve.swap_under_load"] = summary;
  state.counters["p50_us"] = summary.p50_us;
  state.counters["p99_us"] = summary.p99_us;
  state.counters["rps"] = summary.throughput_rps;
}
BENCHMARK(BM_ServeSwapUnderLoad)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3);

/// Unbatched floor: the same windows one at a time straight through
/// FrozenModel::Predict on the caller thread — what the engine's
/// batching and queueing overheads are measured against.
void BM_ServeUnbatchedBaseline(benchmark::State& state) {
  const int64_t requests = 64;
  const RequestStream& stream = SharedStream(requests);
  std::shared_ptr<const serve::FrozenModel> model = SharedModel();
  const core::SagdfnConfig& config = model->config();
  std::vector<double> latencies_us;
  double wall_s = 0.0;
  for (auto _ : state) {
    const auto wall_start = std::chrono::steady_clock::now();
    for (int64_t i = 0; i < requests; ++i) {
      const auto start = std::chrono::steady_clock::now();
      tensor::Tensor x(tensor::Shape(
          {1, config.history, config.num_nodes, 2}));
      std::copy(stream.xs[i].data(), stream.xs[i].data() + stream.xs[i].size(),
                x.data());
      tensor::Tensor tod(tensor::Shape({1, config.horizon}));
      std::copy(stream.tods[i].data(),
                stream.tods[i].data() + stream.tods[i].size(), tod.data());
      benchmark::DoNotOptimize(model->Predict(x, tod));
      latencies_us.push_back(
          std::chrono::duration_cast<
              std::chrono::duration<double, std::micro>>(
              std::chrono::steady_clock::now() - start)
              .count());
    }
    wall_s += std::chrono::duration_cast<std::chrono::duration<double>>(
                  std::chrono::steady_clock::now() - wall_start)
                  .count();
  }
  ScenarioSummary summary;
  FillLatencyPercentiles(&latencies_us, &summary);
  summary.throughput_rps =
      wall_s > 0.0 ? static_cast<double>(summary.requests) / wall_s : 0.0;
  Summaries()["serve.unbatched"] = summary;
  state.counters["p50_us"] = summary.p50_us;
  state.counters["p99_us"] = summary.p99_us;
  state.counters["rps"] = summary.throughput_rps;
}
BENCHMARK(BM_ServeUnbatchedBaseline)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3);

/// Replays `requests` windows through a TenantRouter for one tenant from
/// `clients` submitter threads; same latency accounting as ReplayOnce.
double RouterReplayOnce(serve::TenantRouter& router, const std::string& tenant,
                        int64_t requests, int64_t clients,
                        std::vector<double>* latencies_us) {
  const RequestStream& stream = SharedStream(requests);
  std::vector<std::future<serve::Forecast>> futures(requests);
  std::vector<std::chrono::steady_clock::time_point> started(requests);
  const auto wall_start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (int64_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (int64_t i = c; i < requests; i += clients) {
        started[i] = std::chrono::steady_clock::now();
        futures[i] = router.Submit(tenant, stream.xs[i], stream.tods[i]);
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int64_t i = 0; i < requests; ++i) {
    futures[i].wait();
    latencies_us->push_back(
        std::chrono::duration_cast<std::chrono::duration<double, std::micro>>(
            std::chrono::steady_clock::now() - started[i])
            .count());
  }
  return std::chrono::duration_cast<std::chrono::duration<double>>(
             std::chrono::steady_clock::now() - wall_start)
      .count();
}

/// Multi-tenant isolation cost at EQUAL AGGREGATE LOAD: the 4-client
/// 64-request replay served to ONE tenant on an otherwise idle router
/// (the single-tenant reference), then the same 64 requests split
/// across four tenants at once — each tenant's own client submitting
/// its quarter of the stream concurrently against its own engine. Total
/// offered work and total client threads are identical in both legs, so
/// the comparison measures what per-tenant partitioning (separate
/// queues, workers, registries) costs over pooling everything in one
/// engine — not the machine's capacity to run 4x the load. Each
/// tenant's p50/p99 is recorded separately (serve.tenant.multi.<id>)
/// next to the reference (serve.tenant.single);
/// check_bench_regression.py gates, from the fresh run alone, that no
/// tenant's p99 exceeds 2x the single-tenant p99 — the "noisy neighbors
/// cost at most one doubling" fairness bound.
void BM_ServeMultiTenant(benchmark::State& state) {
  const std::vector<std::string> ids = {"metr-la-sim", "london2000",
                                        "newyork2000", "carpark"};
  const int64_t requests = 64;
  const int64_t per_tenant =
      requests / static_cast<int64_t>(ids.size());
  serve::TenantConfig tenant_config;
  tenant_config.engine.num_workers = 2;
  tenant_config.engine.max_batch = g_max_batch > 0 ? g_max_batch : 8;
  tenant_config.engine.max_wait_us = g_max_wait_us;

  std::vector<double> single_us;
  std::map<std::string, std::vector<double>> multi_us;
  for (const std::string& id : ids) multi_us[id];  // pre-insert: the tenant
  // threads below only touch their own pre-existing vector.
  double single_wall_s = 0.0;
  double multi_wall_s = 0.0;
  for (auto _ : state) {
    {
      serve::TenantRouter router;
      if (!router.AddTenant("solo", SharedModel(), tenant_config).ok()) {
        state.SkipWithError("AddTenant(solo) failed");
        return;
      }
      single_wall_s +=
          RouterReplayOnce(router, "solo", requests, /*clients=*/4,
                           &single_us);
    }
    {
      serve::TenantRouter router;
      for (const std::string& id : ids) {
        if (!router.AddTenant(id, SharedModel(), tenant_config).ok()) {
          state.SkipWithError("AddTenant failed");
          return;
        }
      }
      const auto wall_start = std::chrono::steady_clock::now();
      std::vector<std::thread> tenants;
      for (const std::string& id : ids) {
        tenants.emplace_back([&, id] {
          RouterReplayOnce(router, id, per_tenant, /*clients=*/1,
                           &multi_us[id]);
        });
      }
      for (auto& t : tenants) t.join();
      multi_wall_s +=
          std::chrono::duration_cast<std::chrono::duration<double>>(
              std::chrono::steady_clock::now() - wall_start)
              .count();
    }
  }

  ScenarioSummary single;
  FillLatencyPercentiles(&single_us, &single);
  single.throughput_rps =
      single_wall_s > 0.0
          ? static_cast<double>(single.requests) / single_wall_s
          : 0.0;
  Summaries()["serve.tenant.single"] = single;
  state.counters["single_p99_us"] = single.p99_us;
  double worst_p99 = 0.0;
  for (const std::string& id : ids) {
    ScenarioSummary summary;
    FillLatencyPercentiles(&multi_us[id], &summary);
    summary.throughput_rps =
        multi_wall_s > 0.0
            ? static_cast<double>(summary.requests) / multi_wall_s
            : 0.0;
    Summaries()["serve.tenant.multi." + id] = summary;
    worst_p99 = std::max(worst_p99, summary.p99_us);
  }
  state.counters["worst_multi_p99_us"] = worst_p99;
  state.counters["fairness_ratio"] =
      single.p99_us > 0.0 ? worst_p99 / single.p99_us : 0.0;
}
BENCHMARK(BM_ServeMultiTenant)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3);

/// Builds a warm streaming scenario: a TickStreamer fed `warmup_ticks`
/// frames (at least `history`, so the cache holds a published forecast)
/// over a deterministic frame stream. Returns the frames so callers can
/// keep ticking.
struct StreamingScenario {
  std::shared_ptr<const serve::FrozenModel> model;
  std::unique_ptr<serve::ForecastCache> cache;
  std::unique_ptr<serve::TickStreamer> streamer;
  std::vector<tensor::Tensor> frames;
  tensor::Tensor tod;
};

StreamingScenario MakeStreamingScenario(int64_t total_ticks,
                                        int64_t warmup_ticks,
                                        serve::TickStreamerOptions options) {
  const core::SagdfnConfig config = BenchConfig();
  StreamingScenario s;
  s.model = SharedModel();
  s.cache = std::make_unique<serve::ForecastCache>();
  s.streamer = std::make_unique<serve::TickStreamer>(s.model, s.cache.get(),
                                                     options);
  utils::Rng rng(41);
  for (int64_t i = 0; i < total_ticks; ++i) {
    s.frames.push_back(tensor::Tensor::Normal(
        tensor::Shape({config.num_nodes, 2}), rng));
  }
  s.tod = tensor::Tensor::Uniform(tensor::Shape({config.horizon}), rng, 0.0f,
                                  1.0f);
  for (int64_t i = 0; i < warmup_ticks; ++i) {
    s.streamer->OnTick(s.frames[i], s.tod);
  }
  return s;
}

/// The production read path: ≥1k concurrent reader threads hammering
/// one scenario's single-slot forecast cache while a single writer keeps
/// ticking. Every read's latency is timed around ForecastCache::Read()
/// alone; the cache is warm before the readers start, so the sample is
/// the cache-HIT latency distribution (the acceptance bar: hit p99
/// within 5x of the unbatched single-request p50). Reader count is
/// overridable with --readers.
void BM_ServeCachedReads(benchmark::State& state) {
  const int64_t readers = g_readers > 0 ? g_readers : state.range(0);
  const int64_t reads_per_reader = 32;
  const core::SagdfnConfig config = BenchConfig();
  StreamingScenario scenario = MakeStreamingScenario(
      /*total_ticks=*/config.history + 64, /*warmup_ticks=*/config.history,
      serve::TickStreamerOptions{});

  std::vector<double> latencies_us;
  int64_t stale_reads = 0;
  double wall_s = 0.0;
  for (auto _ : state) {
    std::vector<std::vector<double>> per_reader(readers);
    std::atomic<bool> stop_writer{false};
    const auto wall_start = std::chrono::steady_clock::now();
    // One writer advances the tick loop (incremental encoder) while the
    // readers run, exactly the production cadence.
    std::thread writer([&] {
      int64_t next = config.history;
      while (!stop_writer.load(std::memory_order_relaxed)) {
        scenario.streamer->OnTick(
            scenario.frames[next % scenario.frames.size()], scenario.tod);
        ++next;
        std::this_thread::sleep_for(std::chrono::microseconds(500));
      }
    });
    std::vector<std::thread> threads;
    threads.reserve(readers);
    std::atomic<int64_t> misses{0};
    for (int64_t r = 0; r < readers; ++r) {
      threads.emplace_back([&, r] {
        per_reader[r].reserve(reads_per_reader);
        for (int64_t i = 0; i < reads_per_reader; ++i) {
          const auto start = std::chrono::steady_clock::now();
          std::shared_ptr<const serve::TickForecast> f =
              scenario.cache->Read();
          const auto end = std::chrono::steady_clock::now();
          if (f == nullptr) {
            misses.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          benchmark::DoNotOptimize(f->prediction.data());
          per_reader[r].push_back(
              std::chrono::duration_cast<
                  std::chrono::duration<double, std::micro>>(end - start)
                  .count());
        }
      });
    }
    for (auto& t : threads) t.join();
    stop_writer.store(true, std::memory_order_relaxed);
    writer.join();
    wall_s += std::chrono::duration_cast<std::chrono::duration<double>>(
                  std::chrono::steady_clock::now() - wall_start)
                  .count();
    for (auto& sample : per_reader) {
      latencies_us.insert(latencies_us.end(), sample.begin(), sample.end());
    }
    stale_reads += misses.load();
  }
  ScenarioSummary summary;
  FillLatencyPercentiles(&latencies_us, &summary);
  summary.throughput_rps =
      wall_s > 0.0 ? static_cast<double>(summary.requests) / wall_s : 0.0;
  const serve::ForecastCache::Stats cache_stats = scenario.cache->stats();
  Summaries()["serve.cached_reads.r" + std::to_string(readers)] = summary;
  state.counters["p50_us"] = summary.p50_us;
  state.counters["p99_us"] = summary.p99_us;
  state.counters["rps"] = summary.throughput_rps;
  state.counters["hits"] = static_cast<double>(cache_stats.hits);
  state.counters["misses"] =
      static_cast<double>(cache_stats.reads - cache_stats.hits);
  state.counters["stale_reads"] = static_cast<double>(stale_reads);
}
BENCHMARK(BM_ServeCachedReads)
    ->ArgNames({"readers"})
    ->Arg(1024)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(2);

/// Writer-side tick cost: p50/p99 of one OnTick through the incremental
/// encoder (steady state) vs. through a forced full re-encode every
/// tick. The gap is what carrying the GRU hidden state buys per tick.
void BM_ServeTickAdvance(benchmark::State& state) {
  const bool incremental = state.range(0) != 0;
  const core::SagdfnConfig config = BenchConfig();
  serve::TickStreamerOptions options;
  options.full_reencode_every = incremental ? 0 : 1;
  const int64_t ticks = 48;
  StreamingScenario scenario = MakeStreamingScenario(
      /*total_ticks=*/config.history + ticks,
      /*warmup_ticks=*/config.history, options);

  std::vector<double> latencies_us;
  double wall_s = 0.0;
  int64_t next = config.history;
  for (auto _ : state) {
    const auto wall_start = std::chrono::steady_clock::now();
    for (int64_t i = 0; i < ticks; ++i) {
      const auto start = std::chrono::steady_clock::now();
      scenario.streamer->OnTick(
          scenario.frames[next % scenario.frames.size()], scenario.tod);
      ++next;
      latencies_us.push_back(
          std::chrono::duration_cast<
              std::chrono::duration<double, std::micro>>(
              std::chrono::steady_clock::now() - start)
              .count());
    }
    wall_s += std::chrono::duration_cast<std::chrono::duration<double>>(
                  std::chrono::steady_clock::now() - wall_start)
                  .count();
  }
  ScenarioSummary summary;
  FillLatencyPercentiles(&latencies_us, &summary);
  summary.throughput_rps =
      wall_s > 0.0 ? static_cast<double>(summary.requests) / wall_s : 0.0;
  Summaries()[incremental ? "serve.tick.incremental" : "serve.tick.full"] =
      summary;
  state.counters["p50_us"] = summary.p50_us;
  state.counters["p99_us"] = summary.p99_us;
  state.counters["rps"] = summary.throughput_rps;
}
BENCHMARK(BM_ServeTickAdvance)
    ->ArgNames({"incremental"})
    ->Arg(1)
    ->Arg(0)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3);

utils::Status WriteSummaryJson(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return utils::Status::Internal("cannot open " + path);
  }
  std::fprintf(f, "{\n  \"serve\": {\n");
  size_t emitted = 0;
  for (const auto& [name, s] : Summaries()) {
    std::fprintf(f,
                 "    \"%s\": {\"p50_us\": %.3f, \"p99_us\": %.3f, "
                 "\"throughput_rps\": %.3f, \"requests\": %lld, "
                 "\"timed_out\": %lld, \"shed\": %lld, \"swaps\": %lld, "
                 "\"rollbacks\": %lld}%s\n",
                 name.c_str(), s.p50_us, s.p99_us, s.throughput_rps,
                 static_cast<long long>(s.requests),
                 static_cast<long long>(s.timed_out),
                 static_cast<long long>(s.shed),
                 static_cast<long long>(s.swaps),
                 static_cast<long long>(s.rollbacks),
                 ++emitted < Summaries().size() ? "," : "");
  }
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
  return utils::Status::Ok();
}

}  // namespace
}  // namespace sagdfn

int main(int argc, char** argv) {
  // Strip our engine-knob flags before google-benchmark sees (and
  // rejects) them.
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--max_wait_us=", 0) == 0) {
      sagdfn::g_max_wait_us = std::stoll(arg.substr(14));
    } else if (arg.rfind("--max_batch=", 0) == 0) {
      sagdfn::g_max_batch = std::stoll(arg.substr(12));
    } else if (arg.rfind("--readers=", 0) == 0) {
      sagdfn::g_readers = std::stoll(arg.substr(10));
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  const sagdfn::utils::Status status =
      sagdfn::WriteSummaryJson("BENCH_serve_latency.json");
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr,
               "[serve] latency summary written to BENCH_serve_latency.json\n");
  benchmark::Shutdown();
  return 0;
}
