// Google-benchmark micro-benchmarks for the kernels behind the paper's
// complexity claims: matmul, entmax, SNS sampling, slim vs dense graph
// diffusion, and a full SAGDFN forward step — plus thread-count sweeps
// over the parallel backend (utils::ParallelFor).
//
// Results are written to BENCH_micro_ops.json (benchmark's JSON format)
// by default so the perf trajectory is machine-readable across PRs; pass
// your own --benchmark_out= to override.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "core/entmax.h"
#include "core/sagdfn.h"
#include "core/sns.h"
#include "obs/telemetry.h"
#include "tensor/simd.h"
#include "tensor/tensor_ops.h"
#include "utils/arena.h"
#include "utils/block_reduce.h"
#include "utils/check.h"
#include "utils/parallel.h"
#include "utils/rng.h"

namespace sagdfn {
namespace {

/// Applies the benchmark's thread-count argument (0 means "default":
/// SAGDFN_NUM_THREADS env var or hardware concurrency) and restores the prior
/// pool size on destruction (so interleaved benchmarks stay independent).
class BenchThreadScope {
 public:
  explicit BenchThreadScope(benchmark::State& state, int64_t threads)
      : previous_(utils::GetNumThreads()) {
    utils::SetNumThreads(threads);
    state.counters["threads"] =
        static_cast<double>(utils::GetNumThreads());
  }
  ~BenchThreadScope() { utils::SetNumThreads(previous_); }

 private:
  int64_t previous_;
};

void BM_MatMul(benchmark::State& state) {
  const int64_t n = state.range(0);
  utils::Rng rng(1);
  tensor::Tensor a = tensor::Tensor::Normal(tensor::Shape({n, n}), rng);
  tensor::Tensor b = tensor::Tensor::Normal(tensor::Shape({n, n}), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatMul)->Arg(64)->Arg(128)->Arg(256);

// Thread scaling of the blocked parallel MatMul. The 2048 point is the
// acceptance shape for the parallel backend (expect >= 3x at 4 threads on
// hardware with >= 4 cores; on fewer cores the sweep simply documents the
// machine's ceiling — `threads` reports the actual pool size).
void BM_MatMulThreads(benchmark::State& state) {
  const int64_t n = state.range(0);
  BenchThreadScope scope(state, state.range(1));
  utils::Rng rng(1);
  tensor::Tensor a = tensor::Tensor::Normal(tensor::Shape({n, n}), rng);
  tensor::Tensor b = tensor::Tensor::Normal(tensor::Shape({n, n}), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatMulThreads)
    ->ArgNames({"n", "threads"})
    ->Args({256, 1})->Args({256, 2})->Args({256, 4})->Args({256, 0})
    ->Args({1024, 1})->Args({1024, 2})->Args({1024, 4})->Args({1024, 0})
    ->Args({2048, 1})->Args({2048, 2})->Args({2048, 4})->Args({2048, 0})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Small-batch batched matmul: parallelism must come from batch x rows,
// not batch alone (batch = 4 would cap speedup at 4).
void BM_BatchedMatMulThreads(benchmark::State& state) {
  const int64_t n = state.range(0);
  BenchThreadScope scope(state, state.range(1));
  utils::Rng rng(2);
  tensor::Tensor a =
      tensor::Tensor::Normal(tensor::Shape({4, n, 64}), rng);
  tensor::Tensor b = tensor::Tensor::Normal(tensor::Shape({64, 64}), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::BatchedMatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * 4 * n * 64 * 64);
}
BENCHMARK(BM_BatchedMatMulThreads)
    ->ArgNames({"n", "threads"})
    ->Args({512, 1})->Args({512, 2})->Args({512, 4})->Args({512, 0})
    ->Args({2048, 1})->Args({2048, 2})->Args({2048, 4})->Args({2048, 0})
    ->UseRealTime();

// The fast-gconv hot path (slim diffusion gather + product + add) under
// the thread sweep, at the paper's large-graph scale.
void BM_SlimDiffusionThreads(benchmark::State& state) {
  const int64_t n = state.range(0);
  BenchThreadScope scope(state, state.range(1));
  const int64_t m = 20;
  const int64_t channels = 16;
  utils::Rng rng(3);
  tensor::Tensor a = tensor::Tensor::Uniform(tensor::Shape({n, m}), rng);
  tensor::Tensor x =
      tensor::Tensor::Normal(tensor::Shape({4, n, channels}), rng);
  std::vector<int64_t> index_set(m);
  for (int64_t i = 0; i < m; ++i) index_set[i] = i;
  for (auto _ : state) {
    tensor::Tensor gathered = tensor::IndexSelect(x, 1, index_set);
    benchmark::DoNotOptimize(
        tensor::Add(tensor::BatchedMatMul(a, gathered), x));
  }
  state.SetItemsProcessed(state.iterations() * 4 * n * m * channels);
}
BENCHMARK(BM_SlimDiffusionThreads)
    ->ArgNames({"n", "threads"})
    ->Args({2048, 1})->Args({2048, 2})->Args({2048, 4})->Args({2048, 0})
    ->UseRealTime();

void BM_EntmaxForward(benchmark::State& state) {
  const int64_t rows = state.range(0);
  const float alpha = static_cast<float>(state.range(1)) / 10.0f;
  utils::Rng rng(2);
  tensor::Tensor z =
      tensor::Tensor::Normal(tensor::Shape({rows, 64}), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::EntmaxForward(z, alpha, 1));
  }
  state.SetItemsProcessed(state.iterations() * rows * 64);
}
BENCHMARK(BM_EntmaxForward)
    ->Args({256, 10})   // alpha = 1.0 (softmax fast path)
    ->Args({256, 15})   // alpha = 1.5 (bisection)
    ->Args({256, 20});  // alpha = 2.0

void BM_EntmaxBackward(benchmark::State& state) {
  utils::Rng rng(3);
  tensor::Tensor z =
      tensor::Tensor::Normal(tensor::Shape({256, 64}), rng);
  tensor::Tensor p = core::EntmaxForward(z, 1.5f, 1);
  tensor::Tensor g =
      tensor::Tensor::Normal(tensor::Shape({256, 64}), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::EntmaxBackward(p, g, 1.5f, 1));
  }
}
BENCHMARK(BM_EntmaxBackward);

void BM_SignificantNeighborSampling(benchmark::State& state) {
  const int64_t n = state.range(0);
  core::SignificantNeighborSampler sampler(n, 20, 16, 4);
  utils::Rng rng(5);
  tensor::Tensor e = tensor::Tensor::Normal(tensor::Shape({n, 16}), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.Sample(e, true));
  }
  state.SetItemsProcessed(state.iterations() * n * 20);
}
BENCHMARK(BM_SignificantNeighborSampling)->Arg(256)->Arg(1024)->Arg(2048);

// The paper's central cost contrast: one diffusion application with a
// slim [N, M] adjacency vs a dense [N, N] adjacency.
void BM_SlimDiffusion(benchmark::State& state) {
  const int64_t n = state.range(0);
  const int64_t m = 20;
  const int64_t channels = 16;
  utils::Rng rng(6);
  tensor::Tensor a =
      tensor::Tensor::Uniform(tensor::Shape({n, m}), rng);
  tensor::Tensor x =
      tensor::Tensor::Normal(tensor::Shape({4, n, channels}), rng);
  std::vector<int64_t> index_set(m);
  for (int64_t i = 0; i < m; ++i) index_set[i] = i;
  for (auto _ : state) {
    tensor::Tensor gathered = tensor::IndexSelect(x, 1, index_set);
    benchmark::DoNotOptimize(
        tensor::Add(tensor::BatchedMatMul(a, gathered), x));
  }
  state.SetItemsProcessed(state.iterations() * 4 * n * m * channels);
}
BENCHMARK(BM_SlimDiffusion)->Arg(256)->Arg(1024)->Arg(2048);

void BM_DenseDiffusion(benchmark::State& state) {
  const int64_t n = state.range(0);
  const int64_t channels = 16;
  utils::Rng rng(7);
  tensor::Tensor a = tensor::Tensor::Uniform(tensor::Shape({n, n}), rng);
  tensor::Tensor x =
      tensor::Tensor::Normal(tensor::Shape({4, n, channels}), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tensor::Add(tensor::BatchedMatMul(a, x), x));
  }
  state.SetItemsProcessed(state.iterations() * 4 * n * n * channels);
}
BENCHMARK(BM_DenseDiffusion)->Arg(256)->Arg(1024);

void BM_SagdfnForward(benchmark::State& state) {
  const int64_t n = state.range(0);
  core::SagdfnConfig config;
  config.num_nodes = n;
  config.embedding_dim = 8;
  config.m = 16;
  config.k = 12;
  config.hidden_dim = 16;
  config.heads = 2;
  config.ffn_hidden = 8;
  config.diffusion_steps = 2;
  config.history = 12;
  config.horizon = 12;
  core::SagdfnModel model(config);
  utils::Rng rng(8);
  tensor::Tensor x =
      tensor::Tensor::Normal(tensor::Shape({4, 12, n, 2}), rng);
  tensor::Tensor tod =
      tensor::Tensor::Uniform(tensor::Shape({4, 12}), rng);
  autograd::NoGradGuard guard;
  model.SetTraining(false);
  model.Forward(x, tod, 0);  // warm up / fix the index set
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.Forward(x, tod, 0));
  }
}
BENCHMARK(BM_SagdfnForward)->Arg(64)->Arg(256);

// METR-LA-sized (N = 207) full SAGDFN forward step under the thread
// sweep: the acceptance shape for end-to-end model parallelism.
void BM_SagdfnForwardThreads(benchmark::State& state) {
  BenchThreadScope scope(state, state.range(0));
  const int64_t n = 207;
  core::SagdfnConfig config;
  config.num_nodes = n;
  config.embedding_dim = 16;
  config.m = 20;
  config.k = 16;
  config.hidden_dim = 32;
  config.heads = 4;
  config.ffn_hidden = 16;
  config.diffusion_steps = 2;
  config.history = 12;
  config.horizon = 12;
  core::SagdfnModel model(config);
  utils::Rng rng(9);
  tensor::Tensor x =
      tensor::Tensor::Normal(tensor::Shape({8, 12, n, 2}), rng);
  tensor::Tensor tod =
      tensor::Tensor::Uniform(tensor::Shape({8, 12}), rng);
  autograd::NoGradGuard guard;
  model.SetTraining(false);
  model.Forward(x, tod, 0);  // warm up / fix the index set
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.Forward(x, tod, 0));
  }
}
BENCHMARK(BM_SagdfnForwardThreads)
    ->ArgNames({"threads"})
    ->Arg(1)->Arg(2)->Arg(4)->Arg(0)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// ---------------------------------------------------------------------------
// SIMD dispatch A/B: the same raw kernel at an explicitly pinned level.
// Each (kernel, level) pair also records its per-iteration time into the
// telemetry registry as "simd.<kernel>.<level>", so the cost JSON written
// at exit carries the scalar-vs-avx2 pairs that
// tools/check_bench_regression.py --require-simd-speedup checks (>= 2x on
// the transcendental kernels, where the vectorized polynomial exp replaces
// one libm call per element).
// ---------------------------------------------------------------------------

/// Pins the dispatch level for one benchmark run, restoring the previous
/// level afterwards. Skips the benchmark when the level is unavailable.
class SimdLevelScope {
 public:
  SimdLevelScope(benchmark::State& state, tensor::simd::Level level)
      : previous_(tensor::simd::ActiveLevel()) {
    ok_ = tensor::simd::SetActiveLevel(level);
    if (!ok_) state.SkipWithError("SIMD level unavailable on this machine");
  }
  ~SimdLevelScope() { tensor::simd::SetActiveLevel(previous_); }
  bool ok() const { return ok_; }

 private:
  tensor::simd::Level previous_;
  bool ok_ = false;
};

constexpr int64_t kSimdBenchLen = 65536;

/// Runs `body(kernels)` per iteration, timing each call and recording the
/// per-iteration seconds under "simd.<name>.<level>". A non-null `reset`
/// runs untimed before each call, for kernels that update their output in
/// place.
template <typename Body>
void RunSimdKernelBench(benchmark::State& state, const char* name,
                        Body&& body, int64_t items = kSimdBenchLen,
                        const std::function<void()>& reset = nullptr) {
  const auto level = static_cast<tensor::simd::Level>(state.range(0));
  SimdLevelScope scope(state, level);
  if (!scope.ok()) return;
  const tensor::simd::Kernels& kern = tensor::simd::KernelsFor(level);
  const std::string timer_name =
      std::string("simd.") + name + "." + tensor::simd::LevelName(level);
  for (auto _ : state) {
    if (reset) {
      state.PauseTiming();
      reset();
      state.ResumeTiming();
    }
    const auto t0 = std::chrono::steady_clock::now();
    body(kern);
    const auto t1 = std::chrono::steady_clock::now();
    obs::Telemetry::Global().RecordDuration(
        timer_name, std::chrono::duration<double>(t1 - t0).count());
  }
  state.SetItemsProcessed(state.iterations() * items);
  state.SetLabel(tensor::simd::LevelName(level));
}

/// Shared input/output buffers for the kernel A/B benches.
struct SimdBenchData {
  tensor::Tensor a, b, c, out;
  SimdBenchData() {
    utils::Rng rng(11);
    const tensor::Shape shape({kSimdBenchLen});
    a = tensor::Tensor::Normal(shape, rng);
    b = tensor::Tensor::Normal(shape, rng);
    c = tensor::Tensor::Uniform(shape, rng);  // in (0, 1): a valid gate
    out = tensor::Tensor::Zeros(shape);
  }
  static SimdBenchData& Get() {
    static SimdBenchData data;
    return data;
  }
};

void BM_SimdAdd(benchmark::State& state) {
  SimdBenchData& d = SimdBenchData::Get();
  RunSimdKernelBench(state, "add", [&](const tensor::simd::Kernels& k) {
    k.add(d.a.data(), d.b.data(), d.out.data(), kSimdBenchLen);
    benchmark::DoNotOptimize(d.out.data());
  });
}
BENCHMARK(BM_SimdAdd)->ArgNames({"level"})->Arg(0)->Arg(1);

void BM_SimdMul(benchmark::State& state) {
  SimdBenchData& d = SimdBenchData::Get();
  RunSimdKernelBench(state, "mul", [&](const tensor::simd::Kernels& k) {
    k.mul(d.a.data(), d.b.data(), d.out.data(), kSimdBenchLen);
    benchmark::DoNotOptimize(d.out.data());
  });
}
BENCHMARK(BM_SimdMul)->ArgNames({"level"})->Arg(0)->Arg(1);

// acc_add and max_into are the exact kernels whose speed depends most on
// the ISA they are compiled for (DESIGN.md §5f).
void BM_SimdAccAdd(benchmark::State& state) {
  SimdBenchData& d = SimdBenchData::Get();
  RunSimdKernelBench(state, "acc_add", [&](const tensor::simd::Kernels& k) {
    k.acc_add(d.out.data(), d.a.data(), kSimdBenchLen);
    benchmark::DoNotOptimize(d.out.data());
    benchmark::ClobberMemory();
  });
}
BENCHMARK(BM_SimdAccAdd)->ArgNames({"level"})->Arg(0)->Arg(1);

void BM_SimdMaxInto(benchmark::State& state) {
  SimdBenchData& d = SimdBenchData::Get();
  // dst restarts from b before each call, so about half of its elements
  // take a's value, as in a fresh max reduction.
  RunSimdKernelBench(
      state, "max_into",
      [&](const tensor::simd::Kernels& k) {
        k.max_into(d.out.data(), d.a.data(), kSimdBenchLen);
        benchmark::DoNotOptimize(d.out.data());
        benchmark::ClobberMemory();
      },
      kSimdBenchLen,
      [&] {
        std::memcpy(d.out.data(), d.b.data(), sizeof(float) * kSimdBenchLen);
      });
}
BENCHMARK(BM_SimdMaxInto)->ArgNames({"level"})->Arg(0)->Arg(1);

void BM_SimdExp(benchmark::State& state) {
  SimdBenchData& d = SimdBenchData::Get();
  RunSimdKernelBench(state, "exp", [&](const tensor::simd::Kernels& k) {
    k.vexp(d.a.data(), d.out.data(), kSimdBenchLen);
    benchmark::DoNotOptimize(d.out.data());
  });
}
BENCHMARK(BM_SimdExp)->ArgNames({"level"})->Arg(0)->Arg(1);

void BM_SimdSigmoid(benchmark::State& state) {
  SimdBenchData& d = SimdBenchData::Get();
  RunSimdKernelBench(state, "sigmoid", [&](const tensor::simd::Kernels& k) {
    k.sigmoid(d.a.data(), d.out.data(), kSimdBenchLen);
    benchmark::DoNotOptimize(d.out.data());
  });
}
BENCHMARK(BM_SimdSigmoid)->ArgNames({"level"})->Arg(0)->Arg(1);

void BM_SimdTanh(benchmark::State& state) {
  SimdBenchData& d = SimdBenchData::Get();
  RunSimdKernelBench(state, "tanh", [&](const tensor::simd::Kernels& k) {
    k.vtanh(d.a.data(), d.out.data(), kSimdBenchLen);
    benchmark::DoNotOptimize(d.out.data());
  });
}
BENCHMARK(BM_SimdTanh)->ArgNames({"level"})->Arg(0)->Arg(1);

void BM_SimdGruBlend(benchmark::State& state) {
  SimdBenchData& d = SimdBenchData::Get();
  RunSimdKernelBench(state, "gru_blend", [&](const tensor::simd::Kernels& k) {
    k.gru_blend(d.c.data(), d.a.data(), d.b.data(), d.out.data(),
                kSimdBenchLen);
    benchmark::DoNotOptimize(d.out.data());
  });
}
BENCHMARK(BM_SimdGruBlend)->ArgNames({"level"})->Arg(0)->Arg(1);

// The fused GRU step (the whole cell tail in one pass: r/z sigmoids, the
// candidate tanh with the r-gated hidden projection, and the blend).
void BM_SimdGruStep(benchmark::State& state) {
  SimdBenchData& d = SimdBenchData::Get();
  static const tensor::Tensor xi = [] {
    utils::Rng rng(12);
    return tensor::Tensor::Normal(tensor::Shape({3 * kSimdBenchLen}), rng);
  }();
  static const tensor::Tensor hh = [] {
    utils::Rng rng(13);
    return tensor::Tensor::Normal(tensor::Shape({3 * kSimdBenchLen}), rng);
  }();
  RunSimdKernelBench(state, "gru_step", [&](const tensor::simd::Kernels& k) {
    k.gru_step(xi.data(), hh.data(), d.a.data(), d.out.data(),
               /*r_out=*/nullptr, /*z_out=*/nullptr, /*n_out=*/nullptr,
               kSimdBenchLen);
    benchmark::DoNotOptimize(d.out.data());
  });
}
BENCHMARK(BM_SimdGruStep)->ArgNames({"level"})->Arg(0)->Arg(1);

// The same kernels called once per 16-float row over all 4,096 rows of
// the bench buffers: the width the GRU rows and the fused-diffusion
// backward's dot run at with hidden 16. Call overhead and the loop
// prologue weigh more here than at 65,536 floats; these rows decide
// whether a kernel keeps a hand-written AVX2 body (DESIGN.md §5f).
constexpr int64_t kRowWidth = 16;
constexpr int64_t kRowCount = kSimdBenchLen / kRowWidth;

/// Three more bench-length buffers for the multi-output kernels.
struct SimdRowOutputs {
  std::vector<float> o1, o2, o3;
  SimdRowOutputs()
      : o1(3 * kSimdBenchLen), o2(3 * kSimdBenchLen), o3(kSimdBenchLen) {}
  static SimdRowOutputs& Get() {
    static SimdRowOutputs outputs;
    return outputs;
  }
};

void BM_SimdGruBlendRow16(benchmark::State& state) {
  SimdBenchData& d = SimdBenchData::Get();
  RunSimdKernelBench(
      state, "gru_blend_row16", [&](const tensor::simd::Kernels& k) {
        for (int64_t r = 0; r < kSimdBenchLen; r += kRowWidth) {
          k.gru_blend(d.c.data() + r, d.a.data() + r, d.b.data() + r,
                      d.out.data() + r, kRowWidth);
        }
        benchmark::DoNotOptimize(d.out.data());
      });
}
BENCHMARK(BM_SimdGruBlendRow16)->ArgNames({"level"})->Arg(0)->Arg(1);

void BM_SimdAxpyRow16(benchmark::State& state) {
  SimdBenchData& d = SimdBenchData::Get();
  RunSimdKernelBench(state, "axpy_row16", [&](const tensor::simd::Kernels& k) {
    for (int64_t r = 0; r < kSimdBenchLen; r += kRowWidth) {
      k.axpy(1e-3f, d.a.data() + r, d.out.data() + r, kRowWidth);
    }
    benchmark::DoNotOptimize(d.out.data());
    benchmark::ClobberMemory();
  });
}
BENCHMARK(BM_SimdAxpyRow16)->ArgNames({"level"})->Arg(0)->Arg(1);

void BM_SimdGruTailGradRow16(benchmark::State& state) {
  SimdBenchData& d = SimdBenchData::Get();
  SimdRowOutputs& o = SimdRowOutputs::Get();
  RunSimdKernelBench(
      state, "gru_tail_grad_row16", [&](const tensor::simd::Kernels& k) {
        for (int64_t r = 0; r < kSimdBenchLen; r += kRowWidth) {
          k.gru_tail_grad(d.a.data() + r, d.c.data() + r, d.c.data() + r,
                          d.b.data() + r, d.out.data() + r, o.o1.data() + r,
                          o.o3.data() + r, kRowWidth);
        }
        benchmark::DoNotOptimize(d.out.data());
        benchmark::ClobberMemory();
      });
}
BENCHMARK(BM_SimdGruTailGradRow16)->ArgNames({"level"})->Arg(0)->Arg(1);

void BM_SimdGruStepGradRow16(benchmark::State& state) {
  SimdBenchData& d = SimdBenchData::Get();
  SimdRowOutputs& o = SimdRowOutputs::Get();
  RunSimdKernelBench(
      state, "gru_step_grad_row16", [&](const tensor::simd::Kernels& k) {
        for (int64_t row = 0; row < kRowCount; ++row) {
          const int64_t r = row * kRowWidth;
          k.gru_step_grad(d.a.data() + r, d.c.data() + r, d.c.data() + r,
                          d.c.data() + r, d.b.data() + r, d.a.data() + r,
                          o.o1.data() + 3 * r, o.o2.data() + 3 * r,
                          o.o3.data() + r, kRowWidth);
        }
        benchmark::DoNotOptimize(o.o1.data());
        benchmark::ClobberMemory();
      });
}
BENCHMARK(BM_SimdGruStepGradRow16)->ArgNames({"level"})->Arg(0)->Arg(1);

void BM_SimdDotRow16(benchmark::State& state) {
  SimdBenchData& d = SimdBenchData::Get();
  RunSimdKernelBench(state, "dot_row16", [&](const tensor::simd::Kernels& k) {
    double acc = 0.0;
    for (int64_t r = 0; r < kSimdBenchLen; r += kRowWidth) {
      acc += k.dot(d.a.data() + r, d.b.data() + r, kRowWidth);
    }
    benchmark::DoNotOptimize(acc);
  });
}
BENCHMARK(BM_SimdDotRow16)->ArgNames({"level"})->Arg(0)->Arg(1);

// The register-resident row kernels at the stream-10k shapes: rows of
// traffic10k-sim width (c = 10 input channels, M = 16 significant nodes)
// for one slim-diffusion step, and the small per-row matmuls of the
// fused cell (k = 10 inputs into n = 16 and n = 8 outputs).
constexpr int64_t kRowBenchRows = 4096;
constexpr int64_t kRowBenchC = 10;
constexpr int64_t kRowBenchM = 16;

void BM_SimdDiffuseRow(benchmark::State& state) {
  static const tensor::Tensor term = [] {
    utils::Rng rng(14);
    return tensor::Tensor::Normal(
        tensor::Shape({kRowBenchRows, kRowBenchC}), rng);
  }();
  static const tensor::Tensor a_s = [] {
    utils::Rng rng(15);
    return tensor::Tensor::Uniform(
        tensor::Shape({kRowBenchRows, kRowBenchM}), rng);
  }();
  static const std::vector<int64_t> index_set = [] {
    std::vector<int64_t> idx(kRowBenchM);
    for (int64_t j = 0; j < kRowBenchM; ++j) {
      idx[j] = (j * 2654435761LL) % kRowBenchRows;
    }
    return idx;
  }();
  static const std::vector<float> inv_deg(kRowBenchRows, 0.5f);
  static tensor::Tensor out =
      tensor::Tensor::Zeros(tensor::Shape({kRowBenchRows, kRowBenchC}));
  // One multi-row call over every row, as one diffusion task range makes.
  // The timer keeps its `diffuse_row` name so the committed cost rows gate.
  RunSimdKernelBench(
      state, "diffuse_row",
      [&](const tensor::simd::Kernels& k) {
        k.diffuse_rows(term.data(), a_s.data(), index_set.data(), kRowBenchM,
                       term.data(), inv_deg.data(), out.data(), kRowBenchRows,
                       kRowBenchC);
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
      },
      kRowBenchRows * kRowBenchM * kRowBenchC);
}
BENCHMARK(BM_SimdDiffuseRow)->ArgNames({"level"})->Arg(0)->Arg(1);

void BM_SimdMatMulRows(benchmark::State& state) {
  static const tensor::Tensor a = [] {
    utils::Rng rng(16);
    return tensor::Tensor::Normal(
        tensor::Shape({kRowBenchRows, kRowBenchC}), rng);
  }();
  static const tensor::Tensor w16 = [] {
    utils::Rng rng(17);
    return tensor::Tensor::Normal(tensor::Shape({kRowBenchC, 16}), rng);
  }();
  static const tensor::Tensor w8 = [] {
    utils::Rng rng(18);
    return tensor::Tensor::Normal(tensor::Shape({kRowBenchC, 8}), rng);
  }();
  static tensor::Tensor o16 =
      tensor::Tensor::Zeros(tensor::Shape({kRowBenchRows, 16}));
  static tensor::Tensor o8 =
      tensor::Tensor::Zeros(tensor::Shape({kRowBenchRows, 8}));
  RunSimdKernelBench(
      state, "matmul_rows",
      [&](const tensor::simd::Kernels& k) {
        k.matmul_rows(a.data(), kRowBenchC, 1, w16.data(), o16.data(),
                      kRowBenchRows, kRowBenchC, 16);
        k.matmul_rows(a.data(), kRowBenchC, 1, w8.data(), o8.data(),
                      kRowBenchRows, kRowBenchC, 8);
        benchmark::DoNotOptimize(o16.data());
        benchmark::DoNotOptimize(o8.data());
        benchmark::ClobberMemory();
      },
      kRowBenchRows * kRowBenchC * (16 + 8));
}
BENCHMARK(BM_SimdMatMulRows)->ArgNames({"level"})->Arg(0)->Arg(1);

// The a_s gradient of one train-metrla diffusion step (N = 207, M = 16,
// C = 18, batch 8): one dot_gather call per (batch, node) row, each
// dotting the row against the M significant nodes' rows.
void BM_SimdDotGather(benchmark::State& state) {
  constexpr int64_t kNodes = 207, kM = 16, kC = 18, kBatch = 8;
  static const tensor::Tensor gm = [] {
    utils::Rng rng(19);
    return tensor::Tensor::Normal(tensor::Shape({kBatch, kNodes, kC}), rng);
  }();
  static const tensor::Tensor term = [] {
    utils::Rng rng(20);
    return tensor::Tensor::Normal(tensor::Shape({kBatch, kNodes, kC}), rng);
  }();
  static const std::vector<int64_t> index_set = [] {
    std::vector<int64_t> idx(kM);
    for (int64_t j = 0; j < kM; ++j) idx[j] = (j * 2654435761LL) % kNodes;
    return idx;
  }();
  static std::vector<double> acc(kNodes * kM);
  RunSimdKernelBench(
      state, "dot_gather",
      [&](const tensor::simd::Kernels& k) {
        std::fill(acc.begin(), acc.end(), 0.0);
        for (int64_t i = 0; i < kNodes; ++i) {
          for (int64_t b = 0; b < kBatch; ++b) {
            k.dot_gather(gm.data() + (b * kNodes + i) * kC,
                         term.data() + b * kNodes * kC, index_set.data(), kM,
                         kC, acc.data() + i * kM);
          }
        }
        benchmark::DoNotOptimize(acc.data());
        benchmark::ClobberMemory();
      },
      kNodes * kBatch * kM * kC);
}
BENCHMARK(BM_SimdDotGather)->ArgNames({"level"})->Arg(0)->Arg(1);

// Deterministic block reduction over the bench buffer. The per-block
// partials live in the calling thread's ScratchArena, so this bench also
// keeps the `arena.high_water_bytes` gauge live in the cost JSON when CI
// runs with --benchmark_filter=BM_Simd (no other BM_Simd bench touches
// the arena).
void BM_SimdBlockReduceSum(benchmark::State& state) {
  SimdBenchData& d = SimdBenchData::Get();
  RunSimdKernelBench(
      state, "block_reduce_sum", [&](const tensor::simd::Kernels& k) {
        const double total = utils::DeterministicBlockReduce<double>(
            kSimdBenchLen, 0.0,
            [&](int64_t lo, int64_t hi) {
              return k.sum(d.a.data() + lo, hi - lo);
            },
            [](double& acc, double part) { acc += part; });
        benchmark::DoNotOptimize(total);
      });
}
BENCHMARK(BM_SimdBlockReduceSum)->ArgNames({"level"})->Arg(0)->Arg(1);

// Telemetry overhead contract. The disabled path of SAGDFN_SCOPED_TIMER
// must be a single relaxed atomic load — this bench both measures it and
// asserts that nothing was recorded (instrumented kernels with telemetry
// off must stay within noise of PR 1 throughput).
void BM_ScopedTimerDisabled(benchmark::State& state) {
  const bool prev = obs::Telemetry::CollectionEnabled();
  obs::Telemetry::SetCollectionEnabled(false);
  for (auto _ : state) {
    SAGDFN_SCOPED_TIMER("bench.overhead.disabled");
    benchmark::ClobberMemory();
  }
  SAGDFN_CHECK_EQ(
      obs::Telemetry::Global().timer("bench.overhead.disabled").count, 0);
  obs::Telemetry::SetCollectionEnabled(prev);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ScopedTimerDisabled);

// The enabled path: two steady_clock reads plus relaxed-atomic updates.
void BM_ScopedTimerEnabled(benchmark::State& state) {
  const bool prev = obs::Telemetry::CollectionEnabled();
  obs::Telemetry::SetCollectionEnabled(true);
  for (auto _ : state) {
    SAGDFN_SCOPED_TIMER("bench.overhead.enabled");
    benchmark::ClobberMemory();
  }
  obs::Telemetry::SetCollectionEnabled(prev);
  SAGDFN_CHECK_GT(
      obs::Telemetry::Global().timer("bench.overhead.enabled").count, 0);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ScopedTimerEnabled);

}  // namespace
}  // namespace sagdfn

// Custom main: defaults --benchmark_out to BENCH_micro_ops.json (JSON
// format) so every run leaves a machine-readable record; explicit
// --benchmark_out flags take precedence.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_out", 15) == 0) has_out = true;
  }
  std::string out_flag = "--benchmark_out=BENCH_micro_ops.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int adjusted_argc = static_cast<int>(args.size());
  benchmark::Initialize(&adjusted_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(adjusted_argc, args.data())) {
    return 1;
  }
  // Collect scoped-timer stats from the instrumented kernels (sns/ssma/
  // gconv/encoder/decoder) across the whole run; the overhead benches
  // toggle collection themselves and restore this state.
  sagdfn::obs::Telemetry::SetCollectionEnabled(true);
  benchmark::RunSpecifiedBenchmarks();
  // Peak scratch-arena footprint across the whole run rides along in the
  // cost JSON's gauges.
  sagdfn::obs::Telemetry::Global().SetGauge(
      "arena.high_water_bytes",
      static_cast<double>(sagdfn::utils::ScratchArena::ProcessHighWater()));
  sagdfn::obs::Telemetry::SetCollectionEnabled(false);
  const sagdfn::utils::Status cost_status =
      sagdfn::obs::Telemetry::Global().WriteRegistryJson(
          "BENCH_micro_ops_cost.json", "micro_ops");
  if (cost_status.ok()) {
    std::cerr << "[obs ] per-kernel cost breakdown written to "
                 "BENCH_micro_ops_cost.json\n";
  } else {
    std::cerr << "[obs ] " << cost_status.ToString() << "\n";
  }
  benchmark::Shutdown();
  return 0;
}
