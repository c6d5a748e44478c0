// serve-openloop: two tenants behind one TenantRouter under Poisson
// open-loop load, with registry publishes beside the reads.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <map>
#include <mutex>
#include <thread>

#include "data/registry.h"
#include "nn/serialization.h"
#include "obs/telemetry.h"
#include "openloop.h"
#include "serve/tenant_router.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace core = sagdfn::core;
namespace data = sagdfn::data;
namespace serve = sagdfn::serve;
using sagdfn::tensor::Tensor;

// Offered load, in requests per second over both tenants, on the 4-core
// reference machine at pool size kPoolThreads (capacity ~300 rps):
//   - kMidRate (~40% of capacity): the gated latency phase;
//   - kHighRate (~80%): latency under load, with registry publishes;
//   - kSaturationRate (~2x): goodput past capacity, the gated rate. Its
//     requests carry a deadline, so the excess is refused in bounded
//     time instead of queueing without limit.
constexpr double kMidRate = 120.0;
constexpr double kHighRate = 240.0;
constexpr double kSaturationRate = 640.0;
constexpr int64_t kSaturationDeadlineUs = 250000;
constexpr double kSaturationSeconds = 3.0;
// Goodput counts completions after this settling time.
constexpr double kSaturationSettleSeconds = 0.5;
// The ladder for serve.max_rate_rps: rungs 5% apart from 0.5x to 2x
// capacity. A rung passes when its p95 stays under the limit, nothing
// fails, and latency does not climb across the rung (no growing backlog).
constexpr double kLadderBase = 150.0;
constexpr double kLadderStep = 1.05;
constexpr int kLadderRungs = 29;
constexpr double kTailLimitMs = 60.0;
constexpr double kLadderTailPct = 95.0;
constexpr double kRungSeconds = 1.0;
constexpr int64_t kRungDeadlineUs = static_cast<int64_t>(4 * kTailLimitMs * 1e3);
// The mid rate runs as kMidChunks chunks spread across the run (between
// the other phases), each cut into two sub-windows of 120 requests. The
// gated statistics are medians over all sub-windows, so a burst of host
// contention moves a few sub-windows, not the result. A sub-window's
// tail is p90, the highest percentile with ten requests beyond it.
constexpr int kMidChunks = 4;
constexpr int kSubWindowsPerChunk = 2;
constexpr int64_t kSubWindowRequests = 120;
constexpr double kSubWindowTailPct = 90.0;
// Publishes start every kPublishEverySeconds, but none later than
// kPublishQuietSeconds before the phase's last arrival: the cold tenant
// needs about a second of its traffic to finish the candidate's probation
// window, which must end under the load it started in.
constexpr double kPublishEverySeconds = 1.5;
constexpr double kPublishQuietSeconds = 2.0;
constexpr int64_t kWindowsPerTenant = 48;
constexpr int64_t kByteSampleEvery = 8;
constexpr int kSetupRepeats = 5;

struct Tenant {
  std::string id;
  std::string dataset_name;
  core::SagdfnConfig config;
  std::unique_ptr<data::ForecastDataset> dataset;
  std::vector<Tensor> xs;    // [h, N, C]
  std::vector<Tensor> tods;  // [f]
  Tensor eval_x, eval_tod, eval_y;
  std::string ckpt;
  /// Serial batch-1 reference model and its per-window forecasts.
  std::unique_ptr<serve::FrozenModel> reference;
  std::map<int64_t, Tensor> reference_out;
};

void BuildTenant(Tenant* t, data::DatasetScale scale, uint64_t model_seed,
                 SplitMix& rng, const std::string& work_dir) {
  const data::WindowSpec spec = data::DefaultWindowSpec(t->dataset_name);
  t->dataset = std::make_unique<data::ForecastDataset>(
      data::MakeDataset(t->dataset_name, scale), spec);
  t->config = CliDefaultConfig(t->dataset->num_nodes(), spec.history,
                               spec.horizon, model_seed);
  const int64_t h = spec.history;
  const int64_t f = spec.horizon;
  const int64_t n = t->dataset->num_nodes();
  const int64_t c = t->config.input_dim;
  const int64_t test = t->dataset->NumSamples(data::Split::kTest);
  for (int64_t w = 0; w < kWindowsPerTenant; ++w) {
    data::Batch b = t->dataset->GetBatchAt(data::Split::kTest,
                                           {rng.Below(test)});
    t->xs.push_back(b.x.Reshape({h, n, c}));
    t->tods.push_back(b.future_tod.Reshape({f}));
  }
  data::Batch eval = t->dataset->GetBatch(data::Split::kValidation, 0, 4);
  t->eval_x = eval.x;
  t->eval_tod = eval.future_tod;
  t->eval_y = eval.y_scaled;

  // The served model and every published candidate share these weights,
  // so a forecast's bytes do not depend on which snapshot served it.
  t->ckpt = work_dir + "/serve_" + t->id + ".ckpt";
  core::SagdfnModel model(t->config);
  sagdfn::utils::Status st = sagdfn::nn::SaveModule(model, t->ckpt);
  SAGDFN_CHECK(st.ok()) << st.ToString();
  st = serve::FrozenModel::Load(t->config, t->ckpt, &t->reference);
  SAGDFN_CHECK(st.ok()) << st.ToString();
}

std::unique_ptr<serve::TenantRouter> SetUpRouter(std::vector<Tenant>& ts) {
  serve::TenantRouterOptions ro;
  ro.worker_budget = 2;
  auto router = std::make_unique<serve::TenantRouter>(ro);
  for (Tenant& t : ts) {
    std::unique_ptr<serve::FrozenModel> fm;
    sagdfn::utils::Status st = serve::FrozenModel::Load(t.config, t.ckpt, &fm);
    SAGDFN_CHECK(st.ok()) << st.ToString();
    serve::TenantConfig tc;
    tc.engine.num_workers = 1;
    tc.engine.max_batch = 8;
    tc.engine.max_wait_us = 1000;
    for (int64_t b = 1; b <= tc.engine.max_batch; ++b) fm->PlanFor(b);
    tc.registry.eval_x = t.eval_x;
    tc.registry.eval_tod = t.eval_tod;
    tc.registry.eval_y = t.eval_y;
    st = router->AddTenant(t.id, std::shared_ptr<const serve::FrozenModel>(
                                     std::move(fm)),
                           tc);
    SAGDFN_CHECK(st.ok()) << st.ToString();
  }
  return router;
}

/// Publishes the tenants' candidates in turn every kPublishEverySeconds
/// until stopped.
class Publisher {
 public:
  Publisher(serve::TenantRouter* router, std::vector<Tenant>* tenants,
            int64_t last_start_ns, Tracer* tracer, int64_t parent)
      : router_(router),
        tenants_(tenants),
        last_start_ns_(last_start_ns),
        tracer_(tracer),
        parent_(parent) {
    thread_ = std::thread([this] { Loop(); });
  }
  ~Publisher() { Stop(); }

  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  std::vector<double> durations_ms;
  int64_t attempted = 0;
  int64_t failed = 0;

 private:
  void Loop() {
    size_t next = 0;
    std::unique_lock<std::mutex> lock(mu_);
    while (!cv_.wait_for(lock, std::chrono::duration<double>(
                                   kPublishEverySeconds),
                         [this] { return stop_; })) {
      if (NowNs() > last_start_ns_) continue;
      lock.unlock();
      Tenant& t = (*tenants_)[next++ % tenants_->size()];
      const int64_t t0 = NowNs();
      sagdfn::utils::Status st = router_->Publish(t.id, t.ckpt);
      const int64_t t1 = NowNs();
      tracer_->Add("publish", t0, t1, parent_);
      durations_ms.push_back(NsToMs(static_cast<double>(t1 - t0)));
      ++attempted;
      if (!st.ok()) {
        ++failed;
        std::fprintf(stderr, "[serve] publish to %s rejected: %s\n",
                     t.id.c_str(), st.ToString().c_str());
      }
      lock.lock();
    }
  }

  serve::TenantRouter* router_;
  std::vector<Tenant>* tenants_;
  int64_t last_start_ns_;
  Tracer* tracer_;
  int64_t parent_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

struct PhaseResult {
  OpenLoopResult run;
  std::vector<double> publish_ms;
  int64_t publish_attempted = 0;
  int64_t publish_failed = 0;
};

PhaseResult RunPhase(serve::TenantRouter* router, std::vector<Tenant>& ts,
                     const std::vector<Arrival>& schedule, bool publish,
                     int64_t deadline_us, Tracer* tracer,
                     const std::string& name) {
  const int64_t phase_start = NowNs();
  // Span ids are only known once a span closes, so the phase span is
  // recorded as a zero-length marker and children point at it.
  const int64_t phase_id = tracer->Add(name, phase_start, phase_start);
  std::unique_ptr<Publisher> publisher;
  if (publish && !schedule.empty()) {
    const int64_t last_start =
        phase_start + schedule.back().offset_ns -
        static_cast<int64_t>(kPublishQuietSeconds * 1e9);
    publisher = std::make_unique<Publisher>(router, &ts, last_start, tracer,
                                            phase_id);
  }
  SubmitFn submit = [&](const Arrival& a) {
    Tenant& t = ts[a.tenant];
    if (deadline_us > 0) {
      return router->Submit(t.id, t.xs[a.window], t.tods[a.window],
                            std::chrono::microseconds(deadline_us));
    }
    return router->Submit(t.id, t.xs[a.window], t.tods[a.window]);
  };
  KeepFn keep = [](const Arrival& a) { return a.id % kByteSampleEvery == 0; };
  PhaseResult out;
  out.run = RunOpenLoop(schedule, submit, keep);
  if (publisher != nullptr) {
    publisher->Stop();
    out.publish_ms = publisher->durations_ms;
    out.publish_attempted = publisher->attempted;
    out.publish_failed = publisher->failed;
  }
  if (tracer->enabled()) {
    for (const Completion& c : out.run.done) {
      tracer->Add("submit", c.sent_ns, c.ready_ns, phase_id, c.arrival.id);
    }
  }
  const int64_t failed = out.run.Failures();
  std::printf("phase %s sent=%zu succeeded=%lld failed=%lld publishes=%lld\n",
              name.c_str(), schedule.size(),
              static_cast<long long>(out.run.done.size() - failed),
              static_cast<long long>(failed),
              static_cast<long long>(out.publish_attempted));
  return out;
}

/// Byte contract: every kept forecast must equal a serial batch-1
/// FrozenModel::Predict of the same window.
void CheckBytes(std::vector<Tenant>& ts, const OpenLoopResult& run,
                Tally* tally) {
  for (const Completion& c : run.done) {
    if (c.arrival.id % kByteSampleEvery != 0 || !c.ok) continue;
    Tenant& t = ts[c.arrival.tenant];
    auto it = t.reference_out.find(c.arrival.window);
    if (it == t.reference_out.end()) {
      const auto& cfg = t.config;
      Tensor x = t.xs[c.arrival.window].Reshape(
          {1, cfg.history, cfg.num_nodes, cfg.input_dim});
      Tensor tod = t.tods[c.arrival.window].Reshape({1, cfg.horizon});
      it = t.reference_out.emplace(c.arrival.window,
                                   t.reference->Predict(x, tod)).first;
    }
    const Tensor& want = it->second;
    if (c.prediction.size() != want.size() ||
        std::memcmp(c.prediction.data(), want.data(),
                    want.size() * sizeof(float)) != 0) {
      tally->Mismatch("served forecast differs from serial batch-1 Predict "
                      "(tenant " + t.id + ", request " +
                      std::to_string(c.arrival.id) + ")");
    } else {
      tally->Ok();
    }
  }
}

void CountRequests(const OpenLoopResult& run, Tally* tally,
                   const std::string& phase) {
  for (const Completion& c : run.done) {
    if (c.ok) {
      tally->Ok();
    } else {
      tally->Fail(phase + " request " + std::to_string(c.arrival.id) + ": " +
                  c.error);
    }
  }
}

double TailOf(const std::vector<double>& v, double pct, const char* what) {
  if (!TailHasTenBeyond(static_cast<int64_t>(v.size()), pct)) {
    std::fprintf(stderr,
                 "[serve] warning: %s has %zu samples, fewer than ten "
                 "beyond p%g\n",
                 what, v.size(), pct);
  }
  return Percentile(v, pct);
}

/// Runs one ladder rung; true when it meets the tail limit with no
/// failures and no growing backlog.
bool RunRung(serve::TenantRouter* router, std::vector<Tenant>& ts,
             SplitMix& rng, double rate, int64_t* next_id, Tracer* tracer) {
  const int64_t count =
      std::max<int64_t>(50, static_cast<int64_t>(rate * kRungSeconds));
  std::vector<Arrival> sched =
      PoissonSchedule(rng, rate, count, true, kWindowsPerTenant, *next_id);
  *next_id += count;
  PhaseResult r = RunPhase(router, ts, sched, false, kRungDeadlineUs, tracer,
                           "rung");
  std::vector<double> lat = r.run.LatenciesMs();
  const double tail = Percentile(lat, kLadderTailPct);
  const size_t third = lat.size() / 3;
  std::vector<double> first(lat.begin(), lat.begin() + third);
  std::vector<double> last(lat.end() - third, lat.end());
  const bool growing = Median(last) > 2.0 * Median(first) + 5.0;
  const bool pass = r.run.Failures() == 0 && tail <= kTailLimitMs && !growing;
  std::printf("ladder rate=%.1f p%g=%.2fms failures=%lld growing=%d -> %s\n",
              rate, kLadderTailPct, tail,
              static_cast<long long>(r.run.Failures()), growing ? 1 : 0,
              pass ? "pass" : "fail");
  return pass;
}

/// Per-sub-window p50 and tail of the mid-rate chunks run so far.
struct MidSeries {
  std::vector<double> p50s;
  std::vector<double> tails;

  /// Cuts `run` (in arrival order) into kSubWindowsPerChunk sub-windows.
  void Add(const OpenLoopResult& run) {
    const std::vector<double> lat = run.LatenciesMs();
    const size_t per = lat.size() / kSubWindowsPerChunk;
    for (int w = 0; w < kSubWindowsPerChunk; ++w) {
      std::vector<double> part(lat.begin() + w * per,
                               lat.begin() + (w + 1) * per);
      p50s.push_back(Percentile(part, 50.0));
      tails.push_back(Percentile(part, kSubWindowTailPct));
    }
  }
  double p50() const { return Median(p50s); }
  double tail() const { return Median(tails); }
};

/// Completed requests per second past the settling time, as the median
/// over sub-windows of the sending period.
double Goodput(const OpenLoopResult& run, double seconds) {
  if (run.done.empty()) return 0.0;
  const Completion& first = run.done.front();
  const int64_t start = first.sched_ns - first.arrival.offset_ns;
  const double span = seconds - kSaturationSettleSeconds;
  const int windows = 5;
  std::vector<double> counts(windows, 0.0);
  for (const Completion& c : run.done) {
    if (!c.ok) continue;
    const double t = static_cast<double>(c.ready_ns - start) / 1e9 -
                     kSaturationSettleSeconds;
    if (t < 0.0 || t >= span) continue;
    counts[static_cast<int>(t / span * windows)] += 1.0;
  }
  for (double& c : counts) c /= span / windows;
  return Median(counts);
}

}  // namespace

int RunServeOpenLoop(const RunArgs& args, Metrics* m, Tally* tally) {
  SplitMix rng(args.seed * 0x9e3779b97f4a7c15ull + 17);
  std::vector<Tenant> ts(2);
  ts[0].id = "metr-la";
  ts[0].dataset_name = "metr-la-sim";
  ts[1].id = "carpark";
  ts[1].dataset_name = "carpark1918-sim";
  BuildTenant(&ts[0], data::DatasetScale::kFull, 1000 + args.seed, rng,
              args.work_dir);
  BuildTenant(&ts[1], data::DatasetScale::kQuick, 2000 + args.seed, rng,
              args.work_dir);
  std::printf("serve tenants: %s N=%lld h=%lld, %s N=%lld h=%lld; split 3:1\n",
              ts[0].id.c_str(), static_cast<long long>(ts[0].config.num_nodes),
              static_cast<long long>(ts[0].config.history), ts[1].id.c_str(),
              static_cast<long long>(ts[1].config.num_nodes),
              static_cast<long long>(ts[1].config.history));
  std::printf("serve rates: mid=%.1f high=%.1f saturation=%.1f rps; ladder "
              "%.1f x %.2f^i, i<%d; tail limit p%g <= %.1f ms\n",
              kMidRate, kHighRate, kSaturationRate, kLadderBase, kLadderStep,
              kLadderRungs, kLadderTailPct, kTailLimitMs);

  // Set-up: load both snapshots, build every batch size's plan, register
  // the tenants. Repeated; the last router serves the run.
  std::vector<double> setup_s;
  std::unique_ptr<serve::TenantRouter> router;
  for (int i = 0; i < kSetupRepeats; ++i) {
    router.reset();
    const int64_t t0 = NowNs();
    router = SetUpRouter(ts);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }

  Tracer off(false);
  Tracer tracer(args.trace);
  const int64_t n_chunk = kSubWindowsPerChunk * kSubWindowRequests;
  const int64_t n_high = static_cast<int64_t>(kHighRate * 0.2 * args.seconds);
  int64_t next_id = 0;
  auto schedule = [&](double rate, double count) {
    const int64_t n = static_cast<int64_t>(count);
    std::vector<Arrival> s =
        PoissonSchedule(rng, rate, n, true, kWindowsPerTenant, next_id);
    next_id += n;
    return s;
  };

  // Warm-up at the mid rate (counted for failures, not timed).
  PhaseResult warm = RunPhase(router.get(), ts,
                              schedule(kMidRate, kMidRate * 0.5), false, 0,
                              &off, "warmup");
  CountRequests(warm.run, tally, "warmup");

  MidSeries mid;
  std::vector<double> gen_lag;
  double stamp_gap_p99_us = 0.0;
  auto run_mid = [&](Tracer* t, MidSeries* series) {
    PhaseResult r = RunPhase(router.get(), ts, schedule(kMidRate, n_chunk),
                             false, 0, t, t->enabled() ? "mid.traced" : "mid");
    CountRequests(r.run, tally, "mid");
    CheckBytes(ts, r.run, tally);
    series->Add(r.run);
    for (const Completion& c : r.run.done) gen_lag.push_back(c.gen_lag_ms());
    stamp_gap_p99_us = std::max(stamp_gap_p99_us, r.run.stamp_gap_p99_us);
    return r;
  };

  if (!args.trace) {
    run_mid(&off, &mid);
    PhaseResult high = RunPhase(router.get(), ts, schedule(kHighRate, n_high),
                                true, 0, &off, "high");
    CountRequests(high.run, tally, "high");
    CheckBytes(ts, high.run, tally);
    for (const Completion& c : high.run.done) gen_lag.push_back(c.gen_lag_ms());
    run_mid(&off, &mid);
    const std::vector<double> high_lat = high.run.LatenciesMs();
    const double hot_tail =
        TailOf(high.run.LatenciesMs(0), 98.0, "high phase, hot tenant");
    const double cold_tail =
        TailOf(high.run.LatenciesMs(1), 95.0, "high phase, cold tenant");
    tally->attempted += high.publish_attempted - high.publish_failed;
    if (high.publish_failed > 0) {
      tally->Fail("registry publishes", high.publish_failed);
    }

    PhaseResult sat = RunPhase(
        router.get(), ts,
        schedule(kSaturationRate, kSaturationRate * kSaturationSeconds),
        false, kSaturationDeadlineUs, &off, "saturation");
    for (const Completion& c : sat.run.done) {
      // Refusals past the deadline are the point of this phase.
      if (c.ok || c.deadline_exceeded) {
        tally->Ok();
      } else {
        tally->Fail("saturation request " + std::to_string(c.arrival.id) +
                    ": " + c.error);
      }
    }
    CheckBytes(ts, sat.run, tally);
    const double goodput = Goodput(sat.run, kSaturationSeconds);
    run_mid(&off, &mid);

    // Ladder: binary search over fixed rungs for the highest passing one.
    int lo = -1;
    int hi = kLadderRungs;
    while (hi - lo > 1) {
      const int rung = (lo + hi) / 2;
      if (RunRung(router.get(), ts, rng,
                  kLadderBase * std::pow(kLadderStep, rung), &next_id,
                  &off)) {
        lo = rung;
      } else {
        hi = rung;
      }
    }
    const double max_rate = kLadderBase * std::pow(kLadderStep, lo);
    if (lo < 0) {
      std::fprintf(stderr, "[serve] warning: even the lowest ladder rung "
                           "missed the tail limit\n");
    }
    run_mid(&off, &mid);

    m->PrintInfo("serve.mid.p50_ms (median of sub-window p50s)", mid.p50(),
                 "ms");
    m->PrintInfo("serve.mid.tail_ms (median of sub-window p90s)",
                 mid.tail(), "ms");
    m->PrintInfo("serve.high.p50_ms", Percentile(high_lat, 50.0), "ms");
    m->PrintInfo("serve.high.tail_ms (p98)",
                 TailOf(high_lat, 98.0, "high phase"), "ms");
    m->PrintInfo("serve.high.worst_tenant_tail_ms (hot p98 / cold p95)",
                 std::max(hot_tail, cold_tail), "ms");
    m->PrintInfo("serve.saturation.goodput_rps", goodput, "1/s");
    m->PrintInfo("serve.max_rate_rps", max_rate, "1/s");
    m->PrintInfo("bench.gen_lag_tail_ms (p99)", Percentile(gen_lag, 99.0),
                 "ms");
    m->PrintInfo("bench.stamp_gap_p99_us",
                 std::max(stamp_gap_p99_us, high.run.stamp_gap_p99_us), "us");
    m->PrintInfo("serve.publishes",
                 static_cast<double>(high.publish_attempted), "count");

    m->Set("p50_ms", mid.p50(), "ms");
    m->Set("tail_ms", mid.tail(), "ms");
    m->Set("rate_per_s", goodput, "1/s");
  } else {
    // Traced run: the mid chunks untraced, the same again with spans and
    // the programme's telemetry on, then a traced high phase with
    // publishes for the engine and registry layers.
    for (int i = 0; i < kMidChunks; ++i) run_mid(&off, &mid);
    sagdfn::obs::Telemetry& tel = sagdfn::obs::Telemetry::Global();
    tel.SetCollectionEnabled(true);
    std::vector<serve::TenantStats> before = router->Stats();
    std::vector<sagdfn::obs::TimerStats> compute_before;
    for (const Tenant& t : ts) {
      compute_before.push_back(tel.timer("serve." + t.id + ".batch.compute"));
    }
    MidSeries traced_mid;
    std::vector<PhaseResult> traced;
    for (int i = 0; i < kMidChunks; ++i) {
      traced.push_back(run_mid(&tracer, &traced_mid));
    }
    traced.push_back(RunPhase(router.get(), ts, schedule(kHighRate, n_high),
                              true, 0, &tracer, "high.traced"));
    const PhaseResult& thigh = traced.back();
    CountRequests(thigh.run, tally, "high.traced");
    CheckBytes(ts, thigh.run, tally);
    std::vector<serve::TenantStats> after = router->Stats();
    tel.SetCollectionEnabled(false);

    m->Set("trace.overhead_share", traced_mid.p50() / mid.p50() - 1.0,
           "share");

    std::vector<double> submit_us;
    std::vector<double> lat;
    std::vector<double> traced_lag;
    for (const PhaseResult& p : traced) {
      for (const Completion& c : p.run.done) {
        submit_us.push_back(static_cast<double>(c.submit_ns) / 1e3);
        lat.push_back(c.latency_ms());
        traced_lag.push_back(c.gen_lag_ms());
      }
    }
    int64_t completed = 0;
    int64_t batches = 0;
    int64_t rejected = 0;
    int64_t rollbacks = 0;
    for (size_t i = 0; i < after.size(); ++i) {
      completed += after[i].engine.completed - before[i].engine.completed;
      batches += after[i].engine.batches - before[i].engine.batches;
      rejected += after[i].registry.rejected;
      rollbacks += after[i].registry.rollbacks;
    }
    double compute_s = 0.0;
    int64_t compute_n = 0;
    for (size_t i = 0; i < ts.size(); ++i) {
      sagdfn::obs::TimerStats now =
          tel.timer("serve." + ts[i].id + ".batch.compute");
      compute_s += now.total_seconds - compute_before[i].total_seconds;
      compute_n += now.count - compute_before[i].count;
    }
    const double compute_ms = compute_n > 0 ? compute_s * 1e3 / compute_n : 0;
    m->Set("engine.submit_us", Median(submit_us), "us");
    m->Set("engine.batch_size_mean",
           batches > 0 ? static_cast<double>(completed) / batches : 0.0,
           "requests");
    m->Set("engine.batch_compute_ms", compute_ms, "ms");
    m->Set("engine.wait_ms_mean", Mean(lat) - compute_ms, "ms");
    m->Set("bench.gen_lag_tail_ms", Percentile(traced_lag, 99.0), "ms");
    m->Set("registry.publish_ms", Median(thigh.publish_ms), "ms");
    m->Set("registry.rejected", static_cast<double>(rejected), "count");
    m->Set("registry.rollbacks", static_cast<double>(rollbacks), "count");
    tally->attempted += thigh.publish_attempted - thigh.publish_failed;
    if (thigh.publish_failed > 0) {
      tally->Fail("registry publishes", thigh.publish_failed);
    }
    tracer.WriteJsonl(args.work_dir + "/spans_serve-openloop.jsonl");
    std::printf("trace spans=%lld written to %s/spans_serve-openloop.jsonl\n",
                static_cast<long long>(tracer.size()), args.work_dir.c_str());
  }

  for (const serve::TenantStats& s : router->Stats()) {
    if (s.registry.rollbacks > 0) {
      tally->Fail("registry rollbacks on " + s.id, s.registry.rollbacks);
    }
    std::printf("tenant %s: completed=%lld batches=%lld rejected=%lld "
                "timed_out=%lld shed=%lld nonfinite=%lld published=%lld "
                "gate_rejected=%lld rollbacks=%lld\n",
                s.id.c_str(), static_cast<long long>(s.engine.completed),
                static_cast<long long>(s.engine.batches),
                static_cast<long long>(s.engine.rejected),
                static_cast<long long>(s.engine.timed_out),
                static_cast<long long>(s.engine.shed),
                static_cast<long long>(s.engine.nonfinite),
                static_cast<long long>(s.registry.published),
                static_cast<long long>(s.registry.rejected),
                static_cast<long long>(s.registry.rollbacks));
  }
  router.reset();

  if (args.trace) {
    ProbeInputs in;
    in.frozen = std::shared_ptr<const serve::FrozenModel>(
        std::move(ts[0].reference));
    in.dataset = ts[0].dataset.get();
    in.work_dir = args.work_dir;
    in.seed = args.seed;
    RunLayerProbes(in, m, tally);
  } else {
    m->Set("setup_s", Median(setup_s), "s");
    m->Set("peak_rss_mb", PeakRssMb(), "MB");
  }
  return 0;
}

}  // namespace perfbench
