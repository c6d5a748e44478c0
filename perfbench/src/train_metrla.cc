// train-metrla: Trainer::Train on metr-la-sim (N=207) with the CLI-default
// model, batch 8, a fixed number of batches per epoch and fixed
// validation batches.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "core/trainer.h"
#include "data/registry.h"
#include "obs/telemetry.h"
#include "serve/frozen_model.h"
#include "utils/parallel.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace core = sagdfn::core;
namespace data = sagdfn::data;
namespace serve = sagdfn::serve;
namespace ag = sagdfn::autograd;
using sagdfn::tensor::Tensor;

constexpr int64_t kBatch = 8;
constexpr int64_t kBatchesPerEpoch = 25;
constexpr int64_t kEvalBatches = 4;
// Step tail: three 25-batch epochs give 75 steps, eleven beyond p85.
constexpr double kStepTailPct = 85.0;
constexpr int kSetupRepeats = 101;

/// Passes every call through to the wrapped SagdfnModel and stamps the
/// start of each training forward, so consecutive stamps delimit one
/// optimizer step (batch fetch, forward, loss, backward, clip, Adam).
class SteppedModel : public core::SeqModel {
 public:
  explicit SteppedModel(const core::SagdfnConfig& config) : inner_(config) {
    RegisterModule("sagdfn", &inner_);
  }

  ag::Variable Forward(const Tensor& x, const Tensor& future_tod,
                       int64_t iteration, const Tensor* teacher,
                       double teacher_prob) override {
    if (teacher != nullptr) {
      const int64_t now = NowNs();
      if (open_ >= 0) steps_ms.push_back(NsToMs(static_cast<double>(now - open_)));
      open_ = now;
    } else {
      CloseStep();
    }
    return inner_.Forward(x, future_tod, iteration, teacher, teacher_prob);
  }

  /// Ends the open step at an evaluation forward (or end of training).
  void CloseStep() {
    if (open_ >= 0) {
      steps_ms.push_back(NsToMs(static_cast<double>(NowNs() - open_)));
    }
    open_ = -1;
  }

  std::string name() const override { return inner_.name(); }
  int64_t horizon() const override { return inner_.horizon(); }
  void OnTrainingPlan(int64_t total) override { inner_.OnTrainingPlan(total); }
  void OnStateLoaded() override { inner_.OnStateLoaded(); }
  std::vector<std::pair<std::string, std::vector<uint64_t>>>
  ExportRuntimeState() const override {
    return inner_.ExportRuntimeState();
  }
  sagdfn::utils::Status ImportRuntimeState(
      const std::vector<std::pair<std::string, std::vector<uint64_t>>>& state)
      override {
    return inner_.ImportRuntimeState(state);
  }

  std::vector<double> steps_ms;

 private:
  core::SagdfnModel inner_;
  int64_t open_ = -1;
};

core::TrainOptions Options(int64_t epochs, int64_t batches, int64_t evals,
                           uint64_t seed) {
  core::TrainOptions o;
  o.epochs = epochs;
  o.batch_size = kBatch;
  o.max_train_batches_per_epoch = batches;
  o.max_eval_batches = evals;
  o.seed = seed;
  return o;
}

uint64_t ParamDigest(const sagdfn::nn::Module& model) {
  uint64_t h = 14695981039346656037ull;
  for (const auto& [name, p] : model.NamedParameters()) {
    h = Fnv1a(name.data(), name.size(), h);
    h = DigestTensor(p.value(), h);
  }
  return h;
}

struct TrainOutcome {
  core::TrainResult result;
  double wall_s = 0.0;
  uint64_t digest = 0;
  std::vector<double> steps_ms;
};

TrainOutcome TrainOnce(std::unique_ptr<SteppedModel> model,
                       const data::ForecastDataset& ds,
                       const core::TrainOptions& options) {
  core::Trainer trainer(model.get(), &ds, options);
  TrainOutcome out;
  const int64_t t0 = NowNs();
  out.result = trainer.Train();
  out.wall_s = static_cast<double>(NowNs() - t0) / 1e9;
  model->CloseStep();
  out.digest = ParamDigest(*model);
  out.steps_ms = model->steps_ms;
  return out;
}

/// Records (digest, val MAE) per seed and plan under the work directory;
/// a later run with the same seed and plan must reproduce both exactly.
void CheckAgainstEarlierRuns(const std::string& work_dir, uint64_t seed,
                             int64_t epochs, uint64_t digest, double val_mae,
                             Tally* tally) {
  char key[160];
  std::snprintf(key, sizeof(key), "%s/train_digest_seed%llu_e%lld.txt",
                work_dir.c_str(), static_cast<unsigned long long>(seed),
                static_cast<long long>(epochs));
  char line[160];
  std::snprintf(line, sizeof(line), "%016llx %.17g\n",
                static_cast<unsigned long long>(digest), val_mae);
  std::string earlier;
  if (ReadFile(key, &earlier)) {
    if (earlier != line) {
      tally->Mismatch("final parameters / val MAE differ from an earlier run "
                  "with the same seed (" + earlier.substr(0, 60) + ")");
    } else {
      tally->Ok();
    }
  } else {
    WriteFile(key, line);
  }
}

}  // namespace

int RunTrainMetrLa(const RunArgs& args, Metrics* m, Tally* tally) {
  const data::WindowSpec spec = data::DefaultWindowSpec("metr-la-sim");
  auto ds = std::make_unique<data::ForecastDataset>(
      data::MakeDataset("metr-la-sim", data::DatasetScale::kFull), spec);
  const core::SagdfnConfig config =
      CliDefaultConfig(ds->num_nodes(), spec.history, spec.horizon,
                       4000 + args.seed);
  const int64_t epochs =
      std::max<int64_t>(2, static_cast<int64_t>(std::lround(args.seconds / 8.0)));
  const core::TrainOptions options =
      Options(epochs, kBatchesPerEpoch, kEvalBatches, 5000 + args.seed);
  std::printf("train N=%lld batch=%lld epochs=%lld batches/epoch=%lld "
              "eval_batches=%lld\n",
              static_cast<long long>(config.num_nodes),
              static_cast<long long>(kBatch), static_cast<long long>(epochs),
              static_cast<long long>(kBatchesPerEpoch),
              static_cast<long long>(kEvalBatches));

  // Set-up: model plus Trainer construction, repeated; the last model
  // trains.
  std::vector<double> setup_s;
  std::unique_ptr<SteppedModel> model;
  for (int i = 0; i < kSetupRepeats; ++i) {
    model.reset();
    const int64_t t0 = NowNs();
    model = std::make_unique<SteppedModel>(config);
    core::Trainer probe(model.get(), ds.get(), options);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }

  auto check = [&](const TrainOutcome& o, const char* what) {
    if (!o.result.status.ok()) {
      tally->Fail(std::string(what) + ": " + o.result.status.ToString());
    } else {
      tally->Ok();
    }
    const int64_t steps = epochs * kBatchesPerEpoch;
    tally->Ok(steps - o.result.skipped_batches);
    if (o.result.skipped_batches > 0) {
      tally->Fail(std::string(what) + ": skipped batches",
                  o.result.skipped_batches);
    }
    if (!std::isfinite(o.result.best_val_mae)) {
      tally->Fail(std::string(what) + ": validation MAE is not finite");
    }
  };

  TrainOutcome run = TrainOnce(std::move(model), *ds, options);
  check(run, "train");
  const double windows =
      static_cast<double>(epochs * kBatchesPerEpoch * kBatch);
  const double p50 = Percentile(run.steps_ms, 50.0);
  const double tail = Percentile(run.steps_ms, kStepTailPct);
  if (!TailHasTenBeyond(static_cast<int64_t>(run.steps_ms.size()),
                        kStepTailPct)) {
    std::fprintf(stderr, "[train] warning: %zu steps leave fewer than ten "
                         "beyond p%g\n", run.steps_ms.size(), kStepTailPct);
  }

  // Determinism: the same plan from the same seed at one pool thread
  // must give the same parameters (thread-count invariance), checked on
  // a two-batch plan so it stays cheap; and the full run must match any
  // earlier run with this seed.
  {
    const core::TrainOptions small = Options(1, 2, 1, 5000 + args.seed);
    TrainOutcome a = TrainOnce(std::make_unique<SteppedModel>(config), *ds,
                               small);
    sagdfn::utils::SetNumThreads(1);
    TrainOutcome b = TrainOnce(std::make_unique<SteppedModel>(config), *ds,
                               small);
    sagdfn::utils::SetNumThreads(kPoolThreads);
    if (a.digest != b.digest || a.result.best_val_mae != b.result.best_val_mae) {
      tally->Mismatch("training differs between pool sizes " +
                  std::to_string(kPoolThreads) + " and 1");
    } else {
      tally->Ok();
    }
  }
  CheckAgainstEarlierRuns(args.work_dir, args.seed, epochs, run.digest,
                          run.result.best_val_mae, tally);

  std::printf("train digest=%016llx\n",
              static_cast<unsigned long long>(run.digest));
  m->PrintInfo("train.windows_per_s", windows / run.wall_s, "1/s");
  m->PrintInfo("train.val_mae", run.result.best_val_mae, "mph");
  m->PrintInfo("train.step.p50_ms", p50, "ms");
  m->PrintInfo("train.step.tail_ms (p85)", tail, "ms");
  m->PrintInfo("train.wall_s", run.wall_s, "s");

  if (!args.trace) {
    m->Set("p50_ms", p50, "ms");
    m->Set("tail_ms", tail, "ms");
    m->Set("rate_per_s", windows / run.wall_s, "1/s");
    m->Set("setup_s", Median(setup_s), "s");
    m->Set("peak_rss_mb", PeakRssMb(), "MB");
    return 0;
  }

  // Traced: the same training again with a span around Train() and the
  // programme's telemetry on.
  Tracer tracer(true);
  sagdfn::obs::Telemetry::Global().SetCollectionEnabled(true);
  const int64_t t0 = NowNs();
  TrainOutcome traced =
      TrainOnce(std::make_unique<SteppedModel>(config), *ds, options);
  tracer.Add("train", t0, NowNs());
  sagdfn::obs::Telemetry::Global().SetCollectionEnabled(false);
  check(traced, "traced train");
  if (traced.digest != run.digest) {
    tally->Mismatch("traced training run differs from the untraced one");
  } else {
    tally->Ok();
  }
  m->Set("trace.overhead_share",
         Percentile(traced.steps_ms, 50.0) / p50 - 1.0, "share");
  m->Set("train.skipped_batches",
         static_cast<double>(run.result.skipped_batches), "count");
  tracer.WriteJsonl(args.work_dir + "/spans_train-metrla.jsonl");

  // Probes on a snapshot of the same architecture (layer cost does not
  // depend on the weights' values).
  ProbeInputs in;
  in.frozen = std::shared_ptr<const serve::FrozenModel>(serve::FrozenModel::Freeze(
      std::make_unique<core::SagdfnModel>(config)));
  in.dataset = ds.get();
  in.train_batch = kBatch;
  in.work_dir = args.work_dir;
  in.seed = args.seed;
  in.measured_step_ms = p50;
  RunLayerProbes(in, m, tally);
  return 0;
}

}  // namespace perfbench
