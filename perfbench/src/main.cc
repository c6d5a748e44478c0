// perfbench: the repository benchmark.
//
//   perfbench --workload <serve-openloop|stream-10k|train-metrla>
//             --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]
//   perfbench --selftest
//
// Untraced runs (--trace 0) measure the end-to-end metrics; traced runs
// (--trace 1) record spans, switch the programme's telemetry on and then
// probe every layer on the workload's own model. The last stdout line is
// the JSON result; the process exits non-zero when any correctness check
// failed.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "utils/parallel.h"
#include "workloads.h"

namespace perfbench {

const std::vector<std::string>& EndToEndKeys() {
  static const std::vector<std::string> keys = {
      "p50_ms", "tail_ms", "rate_per_s", "setup_s", "peak_rss_mb"};
  return keys;
}

const std::vector<std::string>& PerLayerKeys() {
  static const std::vector<std::string> keys = [] {
    std::vector<std::string> k = {
        "engine.submit_us", "engine.batch_size_mean",
        "engine.batch_compute_ms", "engine.wait_ms_mean",
        "bench.gen_lag_tail_ms", "registry.publish_ms", "registry.rejected",
        "registry.rollbacks", "frozen.load_mapped_ms", "frozen.load_ckpt_ms",
        "frozen.predict_ms.b1", "frozen.predict_ms.b8",
        "frozen.plan_build_ms", "plan.run_incremental_ms",
        "plan.scratch_bytes", "arena.high_water_bytes", "stream.on_tick_ms",
        "cache.read_ns.p50", "cache.read_ns.p99", "cache.hit_ratio",
        "diffusion.csr_step_ms", "diffusion.dense_step_ms",
        "diffusion.ns_per_nm", "diffusion.nnz_share",
        "diffusion.bytes_per_step", "gru.candidate_input_us",
        "gru.tail_blend_us", "tensor.matmul_rows_us"};
    for (const char* kernel :
         {"add", "mul", "gru_blend", "exp", "sigmoid", "tanh", "gru_step"}) {
      for (const char* level : {"avx2", "scalar"}) {
        k.push_back(std::string("simd.") + kernel + "." + level + "_us");
      }
    }
    for (const char* name :
         {"sns.sample_ms", "ssma.forward_ms", "entmax.forward_us",
          "train.forward_ms", "train.backward_ms", "train.clip_ms",
          "train.adam_step_ms", "data.get_batch_ms", "train.skipped_batches",
          "pool.region_us.1caller", "pool.region_us.2callers",
          "stream.attributed_share", "train.attributed_share",
          "trace.overhead_share"}) {
      k.push_back(name);
    }
    return k;
  }();
  return keys;
}

sagdfn::core::SagdfnConfig CliDefaultConfig(int64_t num_nodes,
                                            int64_t history, int64_t horizon,
                                            uint64_t seed) {
  sagdfn::core::SagdfnConfig c;
  c.num_nodes = num_nodes;
  c.m = std::min<int64_t>(16, num_nodes);
  c.k = (c.m * 4) / 5;
  c.embedding_dim = 12;
  c.hidden_dim = 16;
  c.heads = 2;
  c.ffn_hidden = 8;
  c.diffusion_steps = 2;
  c.alpha = 1.5f;
  c.history = history;
  c.horizon = horizon;
  c.seed = seed;
  return c;
}

sagdfn::core::SagdfnConfig ScaleTierConfig(int64_t num_nodes, uint64_t seed) {
  sagdfn::core::SagdfnConfig c;
  c.num_nodes = num_nodes;
  c.embedding_dim = 8;
  c.m = 16;
  c.k = 12;
  c.hidden_dim = 8;
  c.heads = 2;
  c.ffn_hidden = 4;
  c.diffusion_steps = 2;
  c.history = 12;
  c.horizon = 12;
  c.convergence_iters = 2;
  c.seed = seed;
  return c;
}

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <serve-openloop|stream-10k|"
               "train-metrla> --seed N --seconds S --trace 0|1 "
               "[--work-dir DIR]\n       perfbench --selftest\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunArgs args;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag.c_str());
        std::exit(Usage());
      }
      return argv[++i];
    };
    if (flag == "--workload") {
      args.workload = value();
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value());
    } else if (flag == "--trace") {
      args.trace = std::atoi(value()) != 0;
    } else if (flag == "--work-dir") {
      args.work_dir = value();
    } else if (flag == "--selftest") {
      selftest = true;
    } else {
      return Usage();
    }
  }
  sagdfn::utils::SetNumThreads(kPoolThreads);
  if (selftest) return RunSelfTest(args);
  if (args.seconds <= 0) return Usage();

  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);
  PrintEnvironment(args);
  Metrics metrics;
  Tally tally;
  int rc = 0;
  if (args.workload == "serve-openloop") {
    rc = RunServeOpenLoop(args, &metrics, &tally);
  } else if (args.workload == "stream-10k") {
    rc = RunStream10k(args, &metrics, &tally);
  } else if (args.workload == "train-metrla") {
    rc = RunTrainMetrLa(args, &metrics, &tally);
  } else {
    return Usage();
  }
  if (rc != 0) return rc;

  const std::vector<std::string>& keys =
      args.trace ? PerLayerKeys() : EndToEndKeys();
  bool complete = true;
  for (const std::string& key : keys) {
    if (!metrics.Has(key)) {
      std::fprintf(stderr, "[perfbench] metric %s was not measured\n",
                   key.c_str());
      complete = false;
    }
  }
  std::printf("result attempted=%lld failed=%lld failed_share=%.6g\n",
              static_cast<long long>(tally.attempted),
              static_cast<long long>(tally.failed),
              tally.attempted > 0
                  ? static_cast<double>(tally.failed) / tally.attempted
                  : 0.0);
  const bool correct = tally.mismatches == 0 && complete;
  std::printf("%s\n", metrics.ResultJson(correct, tally.attempted,
                                         tally.failed, keys)
                          .c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
