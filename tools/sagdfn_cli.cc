// Command-line interface for the SAGDFN library.
//
// Subcommands:
//   generate --dataset <name> [--full] --out series.csv
//       Generate a synthetic benchmark dataset and write it as CSV.
//   info --dataset <name> [--full]
//       Print Table II-style statistics for a dataset.
//   train --dataset <name> [--full] [--nodes N] [--epochs E] [--m M]
//         [--k K] [--alpha A] [--hidden H] [--heads P] [--out model.ckpt]
//       Train SAGDFN and report per-horizon test metrics; optionally
//       save a checkpoint.
//   evaluate --dataset <name> --model model.ckpt [--nodes N] [...]
//       Load a checkpoint (built with the same flags) and evaluate it.
//   serve --dataset <name> --model model.ckpt [--workers W] [--batch B]
//         [--max-wait-us U] [--requests R] [--clients C]
//         [--registry_dir DIR] [--deadline_ms MS]
//         [--tenants a,b,c] [--worker-budget T]
//       Replay test-split windows through the batched inference engine
//       from C concurrent clients and report latency percentiles.
//       --registry_dir watches DIR for candidate checkpoints and
//       hot-swaps any that pass the quality gate while the replay runs;
//       --deadline_ms applies a per-request deadline (expired requests
//       are rejected, never executed). --tenants switches to the
//       multi-tenant router: one isolated engine per listed tenant id,
//       all serving the checkpoint, replayed concurrently with the
//       shared --worker-budget (0 = unlimited) divided across tenants;
//       the report becomes a per-tenant table.
//
// Examples:
//   sagdfn_cli generate --dataset metr-la-sim --out metr.csv
//   sagdfn_cli train --dataset metr-la-sim --epochs 8 --out model.ckpt
//   sagdfn_cli evaluate --dataset metr-la-sim --model model.ckpt
//   sagdfn_cli serve --dataset metr-la-sim --model model.ckpt --workers 4
#include <algorithm>
#include <chrono>
#include <cstring>
#include <future>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/sagdfn.h"
#include "core/trainer.h"
#include "data/csv.h"
#include "data/registry.h"
#include "nn/serialization.h"
#include "obs/telemetry.h"
#include "serve/engine.h"
#include "serve/frozen_model.h"
#include "serve/registry.h"
#include "serve/tenant_router.h"
#include "utils/cli.h"
#include "utils/percentile.h"
#include "utils/string_util.h"
#include "utils/table_printer.h"

namespace sagdfn::cli {
namespace {

int Usage() {
  std::cerr
      << "usage: sagdfn_cli <generate|info|train|evaluate|serve> [flags]\n"
         "  common flags: --dataset <name> --full --nodes N\n"
         "                --telemetry <file.jsonl>  (or SAGDFN_TELEMETRY "
         "env var)\n"
         "  datasets: ";
  for (const auto& name : data::KnownDatasets()) std::cerr << name << " ";
  std::cerr << "\n";
  return 2;
}

data::DatasetScale ScaleOf(const utils::CommandLine& cli) {
  return cli.GetBool("full", false) ? data::DatasetScale::kFull
                                    : data::DatasetScale::kQuick;
}

bool KnownDataset(const std::string& name) {
  for (const auto& known : data::KnownDatasets()) {
    if (known == name) return true;
  }
  return false;
}

data::ForecastDataset LoadDataset(const utils::CommandLine& cli,
                                  const std::string& name) {
  data::TimeSeries series = data::MakeDataset(name, ScaleOf(cli));
  const int64_t nodes = cli.GetInt("nodes", 0);
  if (nodes > 0 && nodes < series.num_nodes()) {
    series = data::SliceNodes(series, nodes);
  }
  return data::ForecastDataset(std::move(series),
                               data::DefaultWindowSpec(name));
}

core::SagdfnConfig ConfigFromFlags(const utils::CommandLine& cli,
                                   const data::ForecastDataset& dataset) {
  core::SagdfnConfig config;
  config.num_nodes = dataset.num_nodes();
  config.m = std::min<int64_t>(cli.GetInt("m", 16), config.num_nodes);
  config.k = std::min<int64_t>(cli.GetInt("k", (config.m * 4) / 5),
                               config.m);
  config.embedding_dim = cli.GetInt("embedding", 12);
  config.hidden_dim = cli.GetInt("hidden", 16);
  config.heads = cli.GetInt("heads", 2);
  config.ffn_hidden = cli.GetInt("ffn-hidden", 8);
  config.diffusion_steps = cli.GetInt("diffusion", 2);
  config.alpha = static_cast<float>(cli.GetDouble("alpha", 1.5));
  config.history = dataset.spec().history;
  config.horizon = dataset.spec().horizon;
  config.seed = static_cast<uint64_t>(cli.GetInt("seed", 7));
  return config;
}

void PrintScores(core::Trainer& trainer) {
  auto scores = trainer.EvaluateSplit(data::Split::kTest, {3, 6, 12});
  utils::TablePrinter table({"Horizon", "MAE", "RMSE", "MAPE"});
  const int64_t horizons[] = {3, 6, 12};
  for (size_t i = 0; i < scores.size(); ++i) {
    table.AddRow({std::to_string(horizons[i]),
                  utils::FormatDouble(scores[i].mae, 2),
                  utils::FormatDouble(scores[i].rmse, 2),
                  utils::FormatDouble(scores[i].mape * 100, 1) + "%"});
  }
  std::cout << table.ToString();
}

int Generate(const utils::CommandLine& cli, const std::string& name) {
  const std::string out = cli.GetString("out", name + ".csv");
  data::TimeSeries series = data::MakeDataset(name, ScaleOf(cli));
  utils::Status status = data::WriteCsv(series, out);
  if (!status.ok()) {
    std::cerr << "error: " << status.ToString() << "\n";
    return 1;
  }
  std::cout << "wrote " << series.num_steps() << " steps x "
            << series.num_nodes() << " nodes to " << out << "\n";
  return 0;
}

int Info(const utils::CommandLine& cli, const std::string& name) {
  data::DatasetInfo info = data::GetDatasetInfo(name, ScaleOf(cli));
  data::WindowSpec spec = data::DefaultWindowSpec(name);
  utils::TablePrinter table({"field", "value"});
  table.AddRow({"dataset", info.name});
  table.AddRow({"data type", info.data_type});
  table.AddRow({"sensors", std::to_string(info.num_nodes)});
  table.AddRow({"steps", std::to_string(info.num_steps)});
  table.AddRow({"steps/day", std::to_string(info.steps_per_day)});
  table.AddRow({"window", std::to_string(spec.history) + " -> " +
                              std::to_string(spec.horizon)});
  table.AddRow({"time range", info.time_range});
  std::cout << table.ToString();
  return 0;
}

int Train(const utils::CommandLine& cli, const std::string& name) {
  data::ForecastDataset dataset = LoadDataset(cli, name);
  core::SagdfnConfig config = ConfigFromFlags(cli, dataset);
  core::SagdfnModel model(config);
  std::cout << "SAGDFN: " << model.ParameterCount() << " parameters, N="
            << config.num_nodes << ", M=" << config.m << ", K=" << config.k
            << ", alpha=" << config.alpha << "\n";

  core::TrainOptions train;
  train.epochs = cli.GetInt("epochs", 6);
  train.batch_size = cli.GetInt("batch", 8);
  train.learning_rate = cli.GetDouble("lr", 0.02);
  train.max_train_batches_per_epoch = cli.GetInt("train-batches", 25);
  train.max_eval_batches = cli.GetInt("eval-batches", 8);
  train.patience = cli.GetInt("patience", 0);
  train.verbose = true;
  core::Trainer trainer(&model, &dataset, train);
  core::TrainResult result = trainer.Train();
  std::cout << "trained " << result.epochs_run << " epochs ("
            << utils::FormatDouble(result.seconds_per_epoch, 1)
            << " s/epoch); best val MAE "
            << utils::FormatDouble(result.best_val_mae, 2) << "\n";
  PrintScores(trainer);

  const std::string out = cli.GetString("out", "");
  if (!out.empty()) {
    utils::Status status = nn::SaveModule(model, out);
    if (!status.ok()) {
      std::cerr << "error: " << status.ToString() << "\n";
      return 1;
    }
    std::cout << "saved checkpoint to " << out << "\n";
  }
  return 0;
}

int Evaluate(const utils::CommandLine& cli, const std::string& name) {
  const std::string path = cli.GetString("model", "");
  if (path.empty()) {
    std::cerr << "error: --model <checkpoint> required\n";
    return 2;
  }
  data::ForecastDataset dataset = LoadDataset(cli, name);
  core::SagdfnConfig config = ConfigFromFlags(cli, dataset);
  core::SagdfnModel model(config);
  utils::Status status = nn::LoadModule(&model, path);
  if (!status.ok()) {
    std::cerr << "error: " << status.ToString()
              << " (were the model flags identical to training?)\n";
    return 1;
  }
  core::TrainOptions eval_options;
  eval_options.batch_size = cli.GetInt("batch", 8);
  eval_options.max_eval_batches = cli.GetInt("eval-batches", 8);
  core::Trainer trainer(&model, &dataset, eval_options);
  PrintScores(trainer);
  return 0;
}

// One serving request: a single test window, sliced out of its batch.
struct ServeRequest {
  tensor::Tensor x;           // [h, N, C]
  tensor::Tensor future_tod;  // [f]
};

std::vector<ServeRequest> TestWindows(const data::ForecastDataset& dataset,
                                      int64_t count) {
  std::vector<ServeRequest> requests;
  const int64_t available = dataset.NumSamples(data::Split::kTest);
  count = std::min(count, available);
  requests.reserve(count);
  for (int64_t i = 0; i < count; ++i) {
    data::Batch batch = dataset.GetBatch(data::Split::kTest, i, 1);
    ServeRequest request;
    request.x = tensor::Tensor(tensor::Shape(
        {batch.x.dim(1), batch.x.dim(2), batch.x.dim(3)}));
    std::memcpy(request.x.data(), batch.x.data(),
                request.x.size() * sizeof(float));
    request.future_tod =
        tensor::Tensor(tensor::Shape({batch.future_tod.dim(1)}));
    std::memcpy(request.future_tod.data(), batch.future_tod.data(),
                request.future_tod.size() * sizeof(float));
    requests.push_back(std::move(request));
  }
  return requests;
}

/// Multi-tenant replay: every listed tenant gets its own engine (and
/// registry namespace) on one TenantRouter serving the same checkpoint;
/// all tenants replay the window stream at once, each from `clients`
/// concurrent submitter threads, and the report is per-tenant — workers
/// granted under the shared budget, failures, p50/p99 — so a skew
/// between tenants is visible at a glance.
int ServeTenants(const utils::CommandLine& cli,
                 const std::vector<std::string>& tenants,
                 std::shared_ptr<const serve::FrozenModel> model,
                 const serve::EngineOptions& engine_options,
                 const std::vector<ServeRequest>& requests, int64_t clients) {
  serve::TenantRouterOptions router_options;
  router_options.worker_budget = cli.GetInt("worker-budget", 0);
  serve::TenantRouter router(router_options);
  for (const std::string& id : tenants) {
    serve::TenantConfig config;
    config.engine = engine_options;
    utils::Status status = router.AddTenant(id, model, config);
    if (!status.ok()) {
      std::cerr << "error: " << status.ToString() << "\n";
      return 1;
    }
  }
  std::cout << "serving " << requests.size() << " requests x "
            << tenants.size() << " tenants (" << clients
            << " clients each, worker budget "
            << (router_options.worker_budget > 0
                    ? std::to_string(router_options.worker_budget)
                    : std::string("unlimited"))
            << ")\n";

  using Clock = std::chrono::steady_clock;
  std::map<std::string, std::vector<double>> latencies_us;
  std::map<std::string, int64_t> failures;
  for (const std::string& id : tenants) {
    latencies_us[id].resize(requests.size(), 0.0);
    failures[id] = 0;
  }
  std::mutex failure_mu;
  std::vector<std::thread> threads;
  for (const std::string& id : tenants) {
    std::vector<double>* tenant_latencies = &latencies_us[id];
    int64_t* tenant_failures = &failures[id];
    for (int64_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, id, c, tenant_latencies, tenant_failures] {
        int64_t failed = 0;
        for (size_t i = c; i < requests.size(); i += clients) {
          const auto start = Clock::now();
          serve::Forecast forecast =
              router.Submit(id, requests[i].x, requests[i].future_tod).get();
          // clients never share an index i, so the writes don't race.
          (*tenant_latencies)[i] =
              std::chrono::duration_cast<
                  std::chrono::duration<double, std::micro>>(Clock::now() -
                                                             start)
                  .count();
          if (!forecast.status.ok()) ++failed;
        }
        std::lock_guard<std::mutex> lock(failure_mu);
        *tenant_failures += failed;
      });
    }
  }
  for (auto& thread : threads) thread.join();

  int64_t total_failures = 0;
  utils::TablePrinter table(
      {"tenant", "workers", "requests", "failures", "p50 (us)", "p99 (us)"});
  for (const std::string& id : tenants) {
    std::vector<double>& sample = latencies_us[id];
    std::sort(sample.begin(), sample.end());
    total_failures += failures[id];
    table.AddRow({id, std::to_string(router.WorkersGranted(id)),
                  std::to_string(sample.size()),
                  std::to_string(failures[id]),
                  utils::FormatDouble(utils::PercentileSorted(sample, 50), 0),
                  utils::FormatDouble(utils::PercentileSorted(sample, 99), 0)});
  }
  std::cout << table.ToString();
  return total_failures == 0 ? 0 : 1;
}

int Serve(const utils::CommandLine& cli, const std::string& name) {
  const std::string path = cli.GetString("model", "");
  if (path.empty()) {
    std::cerr << "error: --model <checkpoint> required\n";
    return 2;
  }
  data::ForecastDataset dataset = LoadDataset(cli, name);
  core::SagdfnConfig config = ConfigFromFlags(cli, dataset);
  std::unique_ptr<serve::FrozenModel> frozen;
  utils::Status status = serve::FrozenModel::Load(config, path, &frozen);
  if (!status.ok()) {
    std::cerr << "error: " << status.ToString()
              << " (were the model flags identical to training?)\n";
    return 1;
  }
  std::shared_ptr<const serve::FrozenModel> model(std::move(frozen));

  serve::EngineOptions options;
  options.num_workers = cli.GetInt("workers", 2);
  options.max_batch = cli.GetInt("batch", 8);
  options.max_wait_us = cli.GetInt("max-wait-us", 1000);
  const int64_t deadline_ms = cli.GetInt("deadline_ms", 0);
  options.default_deadline_us = deadline_ms * 1000;

  // --tenants switches to the multi-tenant router path.
  const std::string tenants_flag = cli.GetString("tenants", "");
  if (!tenants_flag.empty()) {
    std::vector<std::string> tenants;
    for (const std::string& id : utils::Split(tenants_flag, ',')) {
      if (!id.empty()) tenants.push_back(id);
    }
    if (tenants.empty()) {
      std::cerr << "error: --tenants needs at least one non-empty id\n";
      return 2;
    }
    const int64_t clients = std::max<int64_t>(1, cli.GetInt("clients", 4));
    std::vector<ServeRequest> tenant_requests =
        TestWindows(dataset, cli.GetInt("requests", 64));
    if (tenant_requests.empty()) {
      std::cerr << "error: no test windows available\n";
      return 1;
    }
    return ServeTenants(cli, tenants, model, options, tenant_requests,
                        clients);
  }

  serve::InferenceEngine engine(model, options);

  // Optional hot-swap registry: watch --registry_dir for candidate
  // checkpoints, gate them against a held-out slice of the test split,
  // and swap winners in while the replay below is running.
  const std::string registry_dir = cli.GetString("registry_dir", "");
  std::unique_ptr<serve::ModelRegistry> registry;
  if (!registry_dir.empty()) {
    serve::RegistryOptions registry_options;
    registry_options.watch_dir = registry_dir;
    const int64_t eval_windows =
        std::min<int64_t>(8, dataset.NumSamples(data::Split::kTest));
    if (eval_windows > 0) {
      data::Batch eval = dataset.GetBatch(data::Split::kTest, 0, eval_windows);
      registry_options.eval_x = eval.x;
      registry_options.eval_tod = eval.future_tod;
      registry_options.eval_y = eval.y_scaled;
    }
    registry = std::make_unique<serve::ModelRegistry>(&engine,
                                                      registry_options);
    registry->StartWatching(/*interval_ms=*/200);
    std::cout << "registry: watching " << registry_dir
              << " for candidate checkpoints\n";
  }

  const int64_t clients = std::max<int64_t>(1, cli.GetInt("clients", 4));
  std::vector<ServeRequest> requests =
      TestWindows(dataset, cli.GetInt("requests", 64));
  if (requests.empty()) {
    std::cerr << "error: no test windows available\n";
    return 1;
  }
  std::cout << "serving " << requests.size() << " requests from " << clients
            << " clients (" << options.num_workers << " workers, max batch "
            << options.max_batch << ", max wait " << options.max_wait_us
            << " us)\n";

  // Each client replays an interleaved slice of the windows and records
  // end-to-end (submit -> future ready) latency per request.
  using Clock = std::chrono::steady_clock;
  std::vector<double> latencies_us(requests.size(), 0.0);
  std::vector<int64_t> failures_per_client(clients, 0);
  const auto wall_start = Clock::now();
  std::vector<std::thread> client_threads;
  client_threads.reserve(clients);
  for (int64_t c = 0; c < clients; ++c) {
    client_threads.emplace_back([&, c] {
      for (size_t i = c; i < requests.size(); i += clients) {
        const auto start = Clock::now();
        std::future<serve::Forecast> future =
            engine.Submit(requests[i].x, requests[i].future_tod);
        serve::Forecast forecast = future.get();
        latencies_us[i] =
            std::chrono::duration_cast<std::chrono::duration<double, std::micro>>(
                Clock::now() - start)
                .count();
        if (!forecast.status.ok()) ++failures_per_client[c];
      }
    });
  }
  for (auto& thread : client_threads) thread.join();
  const double wall_s =
      std::chrono::duration_cast<std::chrono::duration<double>>(
          Clock::now() - wall_start)
          .count();

  int64_t failures = 0;
  for (int64_t f : failures_per_client) failures += f;
  std::sort(latencies_us.begin(), latencies_us.end());
  const serve::EngineStats stats = engine.stats();
  utils::TablePrinter table({"metric", "value"});
  table.AddRow({"requests", std::to_string(requests.size())});
  table.AddRow({"failures", std::to_string(failures)});
  table.AddRow({"batches", std::to_string(stats.batches)});
  table.AddRow({"timed out", std::to_string(stats.timed_out)});
  table.AddRow({"shed", std::to_string(stats.shed)});
  table.AddRow({"swaps", std::to_string(stats.swaps)});
  table.AddRow({"rollbacks", std::to_string(stats.rollbacks)});
  if (registry != nullptr) {
    const serve::RegistryStats rstats = registry->stats();
    table.AddRow({"candidates published", std::to_string(rstats.published)});
    table.AddRow({"candidates rejected", std::to_string(rstats.rejected)});
  }
  table.AddRow(
      {"p50 latency",
       utils::FormatDouble(utils::PercentileSorted(latencies_us, 50), 0) +
           " us"});
  table.AddRow(
      {"p99 latency",
       utils::FormatDouble(utils::PercentileSorted(latencies_us, 99), 0) +
           " us"});
  table.AddRow(
      {"throughput",
       utils::FormatDouble(static_cast<double>(requests.size()) / wall_s, 1) +
           " req/s"});
  std::cout << table.ToString();
  return failures == 0 ? 0 : 1;
}

int Run(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  utils::CommandLine cli(argc - 1, argv + 1);
  const std::string dataset = cli.GetString("dataset", "metr-la-sim");
  if (!KnownDataset(dataset)) {
    std::cerr << "error: unknown dataset '" << dataset << "'\n";
    return Usage();
  }
  const std::string telemetry_path = cli.GetString("telemetry", "");
  if (!telemetry_path.empty()) {
    utils::Status status =
        obs::Telemetry::Global().Configure(telemetry_path);
    if (!status.ok()) {
      std::cerr << "error: " << status.ToString() << "\n";
      return 1;
    }
    std::cerr << "telemetry: appending JSONL events to " << telemetry_path
              << "\n";
  }
  if (command == "generate") return Generate(cli, dataset);
  if (command == "info") return Info(cli, dataset);
  if (command == "train") return Train(cli, dataset);
  if (command == "evaluate") return Evaluate(cli, dataset);
  if (command == "serve") return Serve(cli, dataset);
  return Usage();
}

}  // namespace
}  // namespace sagdfn::cli

int main(int argc, char** argv) { return sagdfn::cli::Run(argc, argv); }
