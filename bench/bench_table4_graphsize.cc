// Reproduces paper Table IV: accuracy on the London200 evaluation subset
// as a function of the number of nodes in the training graph. SAGDFN
// scales to the biggest graphs; AGCRN / GTS / D2STGNN are trained at the
// largest size their memory class can process (paper: 1750 / 1000 / 200
// of 2000; emulated here as the same fractions of the bench's largest
// size).
//
// With --scaling the bench instead measures the scale-tier contract
// (10k–100k nodes): per-N dense and CSR diffusion step latency, with the
// dense step — the kernel rollout plans run — normalized to ns per (node
// x slim column), which must stay ~flat as N grows, i.e. linear N*M
// total cost — plus frozen-model heap-vs-mmap
// load times and a served plan tick, with two byte-equality invariants
// (CSR step == dense step, mmap forecasts == heap forecasts). Results go
// to BENCH_graphsize_scaling.json for
// tools/check_bench_regression.py --graphsize-fresh. Quick covers
// N={2000, 10000}; --full adds the nightly N={50000, 100000} legs.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>

#include "bench_common.h"
#include "core/fused_ops.h"
#include "graph/csr.h"
#include "nn/serialization.h"
#include "serve/frozen_model.h"

namespace sagdfn::bench {
namespace {

struct SizedRun {
  std::string model;
  int64_t train_nodes;
};

metrics::Scores EvalOnSubset(const std::string& model_name,
                             const data::TimeSeries& series,
                             int64_t train_nodes, int64_t eval_nodes,
                             const BenchConfig& config,
                             std::vector<metrics::Scores>* horizon_out) {
  data::TimeSeries train_series = data::SliceNodes(series, train_nodes);
  data::ForecastDataset dataset(
      train_series, data::DefaultWindowSpec("london2000-sim"));
  auto forecaster = baselines::MakeForecaster(
      model_name, MakeModelSizing(config));
  baselines::FitOptions fit = MakeFitOptions(config);
  forecaster->Fit(dataset, fit);
  const int64_t max_windows =
      fit.max_eval_batches > 0 ? fit.max_eval_batches * fit.batch_size : 0;
  tensor::Tensor pred =
      forecaster->Predict(dataset, data::Split::kTest, max_windows);
  tensor::Tensor truth = baselines::CollectTruth(
      dataset, data::Split::kTest, pred.dim(0));
  // Score only the shared evaluation subset (the first eval_nodes).
  tensor::Tensor pred_sub = tensor::Slice(pred, 2, 0, eval_nodes);
  tensor::Tensor truth_sub = tensor::Slice(truth, 2, 0, eval_nodes);
  *horizon_out =
      metrics::EvaluateHorizons(pred_sub, truth_sub, {3, 6, 12});
  return (*horizon_out)[0];
}

// ---------------------------------------------------------------------------
// --scaling mode

struct ScaleRow {
  int64_t nodes = 0;
  int64_t m = 0;
  double dense_step_ms = 0.0;
  double csr_step_ms = 0.0;
  double ns_per_nm = 0.0;  // dense step, ns per (node x slim column)
  double heap_load_ms = 0.0;
  double mmap_load_ms = 0.0;
  double tick_ms = 0.0;
};

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::duration<double>>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

// Mean latency of fn over enough iterations to cover min_seconds.
template <typename F>
double MeanMs(F&& fn, double min_seconds, int min_iters) {
  fn();  // warmup
  int iters = 0;
  const auto t0 = std::chrono::steady_clock::now();
  double elapsed = 0.0;
  do {
    fn();
    ++iters;
    elapsed = SecondsSince(t0);
  } while (elapsed < min_seconds || iters < min_iters);
  return elapsed * 1000.0 / iters;
}

core::SagdfnConfig ScalingModelConfig(int64_t n) {
  core::SagdfnConfig config;
  config.num_nodes = n;
  config.embedding_dim = 8;
  config.m = 16;
  config.k = 12;
  config.hidden_dim = 8;
  config.heads = 2;
  config.ffn_hidden = 4;
  config.diffusion_steps = 2;
  config.history = 6;
  config.horizon = 3;
  config.convergence_iters = 2;
  config.seed = 99;
  return config;
}

int RunScaling(bool full) {
  std::vector<int64_t> sizes = {2000, 10000};
  if (full) {
    sizes.push_back(50000);
    sizes.push_back(100000);
  }
  int csr_matches_dense = 1;
  int mmap_matches_heap = 1;
  std::vector<ScaleRow> rows;

  for (int64_t n : sizes) {
    const core::SagdfnConfig config = ScalingModelConfig(n);
    auto frozen = serve::FrozenModel::Freeze(
        std::make_unique<core::SagdfnModel>(config));
    const core::AdjacencySnapshot& snap = frozen->snapshot();
    const int64_t c = config.hidden_dim;

    ScaleRow row;
    row.nodes = n;
    row.m = config.m;

    // Dense vs CSR diffusion step over the frozen slim adjacency.
    utils::Rng rng(13 + n);
    tensor::Tensor term =
        tensor::Tensor::Normal(tensor::Shape({1, n, c}), rng);
    tensor::Tensor out_dense =
        tensor::Tensor::Zeros(tensor::Shape({1, n, c}));
    tensor::Tensor out_csr =
        tensor::Tensor::Zeros(tensor::Shape({1, n, c}));
    const graph::NodeShards shards = graph::ComputeNodeShards(
        n, c * static_cast<int64_t>(sizeof(float)));
    row.dense_step_ms = MeanMs(
        [&] {
          core::OneStepFastGConvInto(snap.a_s.data(), term.data(),
                                     snap.inv_deg.data(), snap.index_set, 1,
                                     n, c, out_dense.data());
        },
        0.2, 5);
    row.csr_step_ms = MeanMs(
        [&] {
          core::OneStepFastGConvCsrInto(*snap.csr, term.data(),
                                        snap.inv_deg.data(), snap.index_set,
                                        shards, 1, n, c, out_csr.data());
        },
        0.2, 5);
    row.ns_per_nm = row.dense_step_ms * 1e6 /
                    static_cast<double>(n * config.m);
    if (std::memcmp(out_dense.data(), out_csr.data(),
                    out_dense.size() * sizeof(float)) != 0) {
      std::fprintf(stderr, "[scaling] CSR step != dense step at N=%lld\n",
                   static_cast<long long>(n));
      csr_matches_dense = 0;
    }

    // Frozen-model persistence: heap checkpoint load vs mmap load.
    const std::string mapped_path = "bench_graphsize_model.sagm";
    const std::string heap_path = "bench_graphsize_model.ckpt";
    if (!frozen->Save(mapped_path).ok() ||
        !nn::SaveModule(frozen->model(), heap_path).ok()) {
      std::fprintf(stderr, "[scaling] save failed at N=%lld\n",
                   static_cast<long long>(n));
      return 1;
    }
    std::unique_ptr<serve::FrozenModel> heap;
    std::unique_ptr<serve::FrozenModel> mapped;
    row.heap_load_ms = MeanMs(
        [&] {
          heap.reset();
          if (!serve::FrozenModel::Load(config, heap_path, &heap).ok()) {
            std::abort();
          }
        },
        0.0, 3);
    row.mmap_load_ms = MeanMs(
        [&] {
          mapped.reset();
          if (!serve::FrozenModel::LoadMapped(config, mapped_path, &mapped)
                   .ok()) {
            std::abort();
          }
        },
        0.0, 3);

    // One served tick through the mapped model's plan; forecasts must be
    // byte-identical to the heap-loaded model's.
    tensor::Tensor x = tensor::Tensor::Normal(
        tensor::Shape({1, config.history, n, config.input_dim}), rng);
    tensor::Tensor tod = tensor::Tensor::Uniform(
        tensor::Shape({1, config.horizon}), rng);
    tensor::Tensor got = mapped->Predict(x, tod);
    tensor::Tensor want = heap->Predict(x, tod);
    if (!(got.shape() == want.shape()) ||
        std::memcmp(got.data(), want.data(),
                    got.size() * sizeof(float)) != 0) {
      std::fprintf(stderr,
                   "[scaling] mmap forecast != heap forecast at N=%lld\n",
                   static_cast<long long>(n));
      mmap_matches_heap = 0;
    }
    row.tick_ms = MeanMs([&] { mapped->Predict(x, tod); }, 0.2, 3);
    std::remove(mapped_path.c_str());
    std::remove(heap_path.c_str());

    rows.push_back(row);
    std::fprintf(stderr, "[scaling] done N=%lld\n",
                 static_cast<long long>(n));
  }

  utils::TablePrinter table({"N", "dense step ms", "CSR step ms",
                             "ns/(N*M)", "heap load ms", "mmap load ms",
                             "tick ms"});
  for (const ScaleRow& r : rows) {
    table.AddRow({std::to_string(r.nodes),
                  utils::FormatDouble(r.dense_step_ms, 3),
                  utils::FormatDouble(r.csr_step_ms, 3),
                  utils::FormatDouble(r.ns_per_nm, 3),
                  utils::FormatDouble(r.heap_load_ms, 2),
                  utils::FormatDouble(r.mmap_load_ms, 2),
                  utils::FormatDouble(r.tick_ms, 2)});
  }
  std::cout << table.ToString();

  const std::string json_path = "BENCH_graphsize_scaling.json";
  std::FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "[scaling] cannot open %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"graphsize\": {\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const ScaleRow& r = rows[i];
    std::fprintf(
        f,
        "    \"n%lld\": {\"nodes\": %lld, \"m\": %lld, "
        "\"dense_step_ms\": %.4f, \"csr_step_ms\": %.4f, "
        "\"ns_per_nm\": %.4f, \"heap_load_ms\": %.3f, "
        "\"mmap_load_ms\": %.3f, \"tick_ms\": %.3f}%s\n",
        static_cast<long long>(r.nodes), static_cast<long long>(r.nodes),
        static_cast<long long>(r.m), r.dense_step_ms, r.csr_step_ms,
        r.ns_per_nm, r.heap_load_ms, r.mmap_load_ms, r.tick_ms,
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f,
               "  },\n  \"invariants\": {\"csr_matches_dense\": %d, "
               "\"mmap_matches_heap\": %d}\n}\n",
               csr_matches_dense, mmap_matches_heap);
  std::fclose(f);
  std::fprintf(stderr, "[scaling] summary written to %s\n",
               json_path.c_str());
  return csr_matches_dense == 1 && mmap_matches_heap == 1 ? 0 : 1;
}

}  // namespace
}  // namespace sagdfn::bench

int main(int argc, char** argv) {
  using namespace sagdfn;
  bool scaling = false;
  bool scaling_full = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--scaling") scaling = true;
    if (std::string(argv[i]) == "--full") scaling_full = true;
  }
  if (scaling) return bench::RunScaling(scaling_full);

  auto config = bench::ParseBenchConfig(argc, argv);
  bench::PrintHeader(
      "Table IV: London200 accuracy vs training-graph size", config);

  data::TimeSeries series =
      data::MakeDataset("london2000-sim", config.scale());
  const int64_t total = series.num_nodes();
  const int64_t eval_nodes = config.full ? 200 : total / 5;
  std::vector<int64_t> sagdfn_sizes;
  if (config.full) {
    sagdfn_sizes = {200, 1000, 1750, 2000};
  } else {
    sagdfn_sizes = {eval_nodes, 2 * eval_nodes, 3 * eval_nodes, total};
  }
  // Baseline caps mirror the paper's max-processable sizes as fractions
  // of the largest graph (AGCRN 1750/2000, GTS 1000/2000, D2STGNN
  // 200/2000).
  const int64_t agcrn_cap = std::max<int64_t>(eval_nodes, total * 7 / 8);
  const int64_t gts_cap = std::max<int64_t>(eval_nodes, total / 2);
  const int64_t d2_cap = eval_nodes;

  std::cout << "evaluation subset: first " << eval_nodes << " of " << total
            << " nodes\n\n";

  utils::TablePrinter table(
      {"Model", "# nodes in training set", "H3 MAE", "H3 RMSE", "H3 MAPE",
       "H6 MAE", "H6 RMSE", "H6 MAPE", "H12 MAE", "H12 RMSE",
       "H12 MAPE"});
  auto add = [&](const std::string& model, int64_t train_nodes) {
    std::vector<metrics::Scores> horizons;
    bench::EvalOnSubset(model, series, train_nodes, eval_nodes, config,
                        &horizons);
    std::vector<std::string> row = {model, std::to_string(train_nodes)};
    for (const auto& s : horizons) {
      row.push_back(utils::FormatDouble(s.mae, 2));
      row.push_back(utils::FormatDouble(s.rmse, 2));
      row.push_back(utils::FormatDouble(s.mape * 100.0, 1) + "%");
    }
    table.AddRow(std::move(row));
    std::cerr << "[done] " << model << " @ " << train_nodes << " nodes\n";
  };

  add("AGCRN", agcrn_cap);
  add("GTS", gts_cap);
  add("D2STGNN(c)", d2_cap);
  for (int64_t size : sagdfn_sizes) add("SAGDFN", size);

  std::cout << table.ToString();
  std::cout << "\nExpected shape (paper, full scale): SAGDFN improves "
               "monotonically as the training graph grows and beats every "
               "capped baseline. At quick scale SAGDFN matches/beats the "
               "capped baselines, but monotonicity needs per-configuration "
               "convergence (fixed iteration budgets penalize larger "
               "graphs) — see EXPERIMENTS.md.\n";
  return 0;
}
