// Fused-vs-eager A/B benchmark for the eval-mode rollout. Replays the
// same METR-LA-shaped windows through both FrozenModel paths:
//
//   eager — SagdfnModel::Predict, walking the autograd op layer per step
//   plan  — core::RolloutPlan replay (precompiled kernel sequence, arena
//           scratch slab, zero per-step allocation)
//
// and writes per-batch mean latencies plus the speedup to
// BENCH_rollout_fusion.json, together with two invariants the plan
// promises: replay output is memcmp-identical to the eager path, and the
// arena high-water mark is stable across ticks after warmup (no per-step
// heap growth). tools/check_bench_regression.py --rollout-fresh gates on
// that JSON against the committed baseline in bench/baselines/.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/sagdfn.h"
#include "serve/frozen_model.h"
#include "tensor/tensor.h"
#include "utils/arena.h"
#include "utils/rng.h"

namespace sagdfn {
namespace {

struct Scenario {
  double eager_ms = 0.0;
  double plan_ms = 0.0;
  // Per-iteration latency percentiles via the shared unbiased estimator
  // (bench::PercentileSorted) — the same math bench_serve reports, so
  // the two benches' numbers are comparable.
  double eager_p50_ms = 0.0;
  double eager_p99_ms = 0.0;
  double plan_p50_ms = 0.0;
  double plan_p99_ms = 0.0;
};

std::map<std::string, Scenario>& Scenarios() {
  static std::map<std::string, Scenario> scenarios;
  return scenarios;
}

// The METR-LA shape (207 nodes) at the repo's CPU-scaled model size —
// the same regime the paper-table benches use for this dataset.
core::SagdfnConfig BenchConfig() {
  core::SagdfnConfig config;
  config.num_nodes = 207;
  config.embedding_dim = 16;
  config.m = 20;
  config.k = 16;
  config.hidden_dim = 32;
  config.heads = 4;
  config.ffn_hidden = 16;
  config.diffusion_steps = 2;
  config.history = 12;
  config.horizon = 12;
  config.seed = 7;
  return config;
}

std::shared_ptr<const serve::FrozenModel> SharedModel() {
  static std::shared_ptr<const serve::FrozenModel> model = [] {
    auto raw = std::make_unique<core::SagdfnModel>(BenchConfig());
    return std::shared_ptr<const serve::FrozenModel>(
        serve::FrozenModel::Freeze(std::move(raw)));
  }();
  return model;
}

struct Inputs {
  tensor::Tensor x;
  tensor::Tensor tod;
};

const Inputs& InputsFor(int64_t batch) {
  static std::map<int64_t, Inputs> inputs;
  auto it = inputs.find(batch);
  if (it != inputs.end()) return it->second;
  const core::SagdfnConfig config = BenchConfig();
  utils::Rng rng(99 + static_cast<uint64_t>(batch));
  Inputs in;
  in.x = tensor::Tensor::Normal(
      tensor::Shape({batch, config.history, config.num_nodes,
                     config.input_dim}),
      rng);
  in.tod = tensor::Tensor::Uniform(tensor::Shape({batch, config.horizon}),
                                   rng, 0.0f, 1.0f);
  return inputs.emplace(batch, std::move(in)).first->second;
}

std::string ScenarioName(int64_t batch) {
  return "metr_la_sim.b" + std::to_string(batch);
}

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::duration<double>>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

void BM_RolloutEager(benchmark::State& state) {
  const int64_t batch = state.range(0);
  std::shared_ptr<const serve::FrozenModel> model = SharedModel();
  const Inputs& in = InputsFor(batch);
  double total_s = 0.0;
  std::vector<double> iter_ms;
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(
        model->model().Predict(in.x, in.tod, model->snapshot()));
    const double s = SecondsSince(t0);
    total_s += s;
    iter_ms.push_back(1e3 * s);
  }
  std::sort(iter_ms.begin(), iter_ms.end());
  Scenario& scenario = Scenarios()[ScenarioName(batch)];
  scenario.eager_ms = 1e3 * total_s / static_cast<double>(iter_ms.size());
  scenario.eager_p50_ms = bench::PercentileSorted(iter_ms, 50.0);
  scenario.eager_p99_ms = bench::PercentileSorted(iter_ms, 99.0);
}
BENCHMARK(BM_RolloutEager)
    ->ArgNames({"batch"})
    ->Arg(1)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(20);

void BM_RolloutPlan(benchmark::State& state) {
  const int64_t batch = state.range(0);
  std::shared_ptr<const serve::FrozenModel> model = SharedModel();
  const Inputs& in = InputsFor(batch);
  // Size the plan outside the timed loop: construction cost is paid once
  // per model and amortized across every request.
  model->PlanFor(batch);
  double total_s = 0.0;
  std::vector<double> iter_ms;
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(model->Predict(in.x, in.tod));
    const double s = SecondsSince(t0);
    total_s += s;
    iter_ms.push_back(1e3 * s);
  }
  std::sort(iter_ms.begin(), iter_ms.end());
  Scenario& scenario = Scenarios()[ScenarioName(batch)];
  scenario.plan_ms = 1e3 * total_s / static_cast<double>(iter_ms.size());
  scenario.plan_p50_ms = bench::PercentileSorted(iter_ms, 50.0);
  scenario.plan_p99_ms = bench::PercentileSorted(iter_ms, 99.0);
}
BENCHMARK(BM_RolloutPlan)
    ->ArgNames({"batch"})
    ->Arg(1)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(20);

/// Replay-equals-eager and arena-stability invariants, checked once after
/// the timed runs. Returns false (and explains on stderr) on violation.
bool CheckInvariants(int* replay_matches, int* arena_stable,
                     long long* high_water) {
  std::shared_ptr<const serve::FrozenModel> model = SharedModel();
  bool ok = true;
  *replay_matches = 1;
  for (int64_t batch : {int64_t{1}, int64_t{8}}) {
    const Inputs& in = InputsFor(batch);
    tensor::Tensor planned = model->Predict(in.x, in.tod);
    tensor::Tensor eager =
        model->model().Predict(in.x, in.tod, model->snapshot());
    if (std::memcmp(planned.data(), eager.data(),
                    sizeof(float) * planned.size()) != 0) {
      std::fprintf(stderr,
                   "[rollout] plan replay diverges from eager at batch %lld\n",
                   static_cast<long long>(batch));
      *replay_matches = 0;
      ok = false;
    }
  }
  // After the runs above every plan is warm: further ticks must not move
  // the process-wide arena high-water mark (zero per-step allocation).
  const Inputs& in = InputsFor(8);
  model->Predict(in.x, in.tod);
  const int64_t before = utils::ScratchArena::ProcessHighWater();
  for (int tick = 0; tick < 5; ++tick) model->Predict(in.x, in.tod);
  const int64_t after = utils::ScratchArena::ProcessHighWater();
  *arena_stable = before == after ? 1 : 0;
  *high_water = static_cast<long long>(after);
  if (before != after) {
    std::fprintf(stderr,
                 "[rollout] arena high-water moved across ticks: %lld -> "
                 "%lld bytes\n",
                 static_cast<long long>(before),
                 static_cast<long long>(after));
    ok = false;
  }
  return ok;
}

bool WriteSummaryJson(const std::string& path, int replay_matches,
                      int arena_stable, long long high_water) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "[rollout] cannot open %s\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\n  \"rollout\": {\n");
  size_t emitted = 0;
  for (const auto& [name, s] : Scenarios()) {
    const double speedup = s.plan_ms > 0.0 ? s.eager_ms / s.plan_ms : 0.0;
    std::fprintf(f,
                 "    \"%s\": {\"eager_ms\": %.4f, \"plan_ms\": %.4f, "
                 "\"speedup\": %.3f, \"eager_p50_ms\": %.4f, "
                 "\"eager_p99_ms\": %.4f, \"plan_p50_ms\": %.4f, "
                 "\"plan_p99_ms\": %.4f}%s\n",
                 name.c_str(), s.eager_ms, s.plan_ms, speedup, s.eager_p50_ms,
                 s.eager_p99_ms, s.plan_p50_ms, s.plan_p99_ms,
                 ++emitted < Scenarios().size() ? "," : "");
  }
  std::fprintf(f,
               "  },\n  \"invariants\": {\"replay_matches_eager\": %d, "
               "\"arena_stable_across_ticks\": %d, "
               "\"arena_high_water_bytes\": %lld}\n}\n",
               replay_matches, arena_stable, high_water);
  std::fclose(f);
  return true;
}

}  // namespace
}  // namespace sagdfn

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  int replay_matches = 0;
  int arena_stable = 0;
  long long high_water = 0;
  const bool invariants_ok =
      sagdfn::CheckInvariants(&replay_matches, &arena_stable, &high_water);
  if (!sagdfn::WriteSummaryJson("BENCH_rollout_fusion.json", replay_matches,
                                arena_stable, high_water)) {
    return 1;
  }
  std::fprintf(stderr,
               "[rollout] fusion summary written to "
               "BENCH_rollout_fusion.json\n");
  benchmark::Shutdown();
  return invariants_ok ? 0 : 1;
}
