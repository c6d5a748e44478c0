// stream-10k: one writer feeding traffic10k-sim frames through
// TickStreamer::OnTick back to back, one reader polling the
// ForecastCache at a fixed pace.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <thread>

#include "data/registry.h"
#include "obs/telemetry.h"
#include "openloop.h"
#include "serve/forecast_cache.h"
#include "utils/parallel.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace core = sagdfn::core;
namespace data = sagdfn::data;
namespace serve = sagdfn::serve;
using sagdfn::tensor::Shape;
using sagdfn::tensor::Tensor;

constexpr int64_t kNodes = 10000;
// A run feeds a fixed number of ticks per requested second (a tick takes
// 40-70 ms on the 4-core reference machine). Gated statistics are medians
// over consecutive sub-windows of 100 ticks, so one burst of host
// contention moves one sub-window, not the result; each sub-window's tail
// is p90, the highest percentile with ten ticks beyond it.
constexpr double kTicksPerSecond = 15.0;
constexpr int64_t kTicksPerSubWindow = 100;
constexpr double kTickTailPct = 90.0;
constexpr int64_t kReadPeriodUs = 500;
// Ticks replayed serially (one pool thread) against the run's digests.
constexpr int64_t kReplayTicks = 16;
constexpr int kSetupRepeats = 5;

/// Frames [N, C] and forecast-window covariates [f] for every step of the
/// series, the stream's input.
struct FrameSource {
  std::vector<Tensor> frames;
  std::vector<Tensor> future_tod;
  int64_t size() const { return static_cast<int64_t>(frames.size()); }
};

FrameSource BuildFrames(const data::ForecastDataset& ds, int64_t horizon) {
  const data::TimeSeries& series = ds.series();
  const int64_t n = ds.num_nodes();
  const int64_t steps = series.num_steps();
  const float* scaled = ds.scaled_values().data();
  FrameSource src;
  for (int64_t t = 0; t < steps; ++t) {
    Tensor frame(Shape({n, 2}));
    const float tod = static_cast<float>(series.TimeOfDay(t));
    for (int64_t i = 0; i < n; ++i) {
      frame.data()[i * 2] = scaled[t * n + i];
      frame.data()[i * 2 + 1] = tod;
    }
    Tensor ft(Shape({horizon}));
    for (int64_t k = 0; k < horizon; ++k) {
      ft.data()[k] = static_cast<float>(series.TimeOfDay((t + 1 + k) % steps));
    }
    src.frames.push_back(std::move(frame));
    src.future_tod.push_back(std::move(ft));
  }
  return src;
}

struct StreamState {
  std::shared_ptr<const serve::FrozenModel> model;
  std::unique_ptr<serve::ForecastCache> cache;
  std::unique_ptr<serve::TickStreamer> streamer;
};

/// Set-up: map the weight file, build the batch-1 plans, warm the
/// streamer up on the first `history` frames plus one incremental tick.
StreamState SetUp(const core::SagdfnConfig& config, const std::string& path,
                  const FrameSource& src, int64_t start) {
  StreamState s;
  std::unique_ptr<serve::FrozenModel> fm;
  sagdfn::utils::Status st = serve::FrozenModel::LoadMapped(config, path, &fm);
  SAGDFN_CHECK(st.ok()) << st.ToString();
  fm->PlanFor(1, core::PlanKind::kFull);
  fm->PlanFor(1, core::PlanKind::kIncremental);
  s.model = std::shared_ptr<const serve::FrozenModel>(std::move(fm));
  s.cache = std::make_unique<serve::ForecastCache>();
  s.streamer = std::make_unique<serve::TickStreamer>(s.model, s.cache.get());
  for (int64_t k = 0; k <= config.history; ++k) {
    const int64_t t = (start + k) % src.size();
    s.streamer->OnTick(src.frames[t], src.future_tod[t]);
  }
  return s;
}

struct TickRun {
  std::vector<double> tick_ms;
  std::vector<uint64_t> digests;
  std::vector<double> read_ns;
  int64_t reads = 0;
  int64_t read_misses = 0;
  int64_t not_visible = 0;
  double wall_s = 0.0;
};

/// Closed-loop writer for `ticks` ticks, reader at a fixed pace beside it.
TickRun RunTicks(StreamState& s, const FrameSource& src, int64_t first,
                 int64_t ticks, Tracer* tracer) {
  TickRun run;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    int64_t next = NowNs();
    while (!stop.load(std::memory_order_acquire)) {
      const int64_t t0 = NowNs();
      std::shared_ptr<const serve::TickForecast> f = s.cache->Read();
      const int64_t t1 = NowNs();
      run.read_ns.push_back(static_cast<double>(t1 - t0));
      ++run.reads;
      if (f == nullptr) ++run.read_misses;
      if (tracer->enabled() && run.reads % 16 == 0) {
        tracer->Add("read", t0, t1, -1, f == nullptr ? -1 : f->window_id);
      }
      next += kReadPeriodUs * 1000;
      const int64_t now = NowNs();
      if (next > now) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(next - now));
      } else {
        next = now;
      }
    }
  });
  const int64_t start = NowNs();
  for (int64_t k = 0; k < ticks; ++k) {
    const int64_t t = (first + k) % src.size();
    const int64_t t0 = NowNs();
    std::shared_ptr<const serve::TickForecast> f =
        s.streamer->OnTick(src.frames[t], src.future_tod[t]);
    std::shared_ptr<const serve::TickForecast> seen = s.cache->Read();
    const int64_t t1 = NowNs();
    if (f == nullptr || seen == nullptr || seen->window_id != f->window_id) {
      ++run.not_visible;
    }
    tracer->Add("on_tick", t0, t1, -1, f == nullptr ? -1 : f->window_id);
    run.tick_ms.push_back(NsToMs(static_cast<double>(t1 - t0)));
    run.digests.push_back(f == nullptr ? 0 : DigestTensor(f->prediction));
  }
  run.wall_s = static_cast<double>(NowNs() - start) / 1e9;
  stop.store(true, std::memory_order_release);
  reader.join();
  return run;
}

/// Serial replay: a fresh streamer on the same snapshot with a one-thread
/// pool must reproduce the run's first ticks byte for byte.
void CheckReplay(const std::shared_ptr<const serve::FrozenModel>& model,
                 const FrameSource& src, int64_t start, int64_t history,
                 const TickRun& run, Tally* tally) {
  sagdfn::utils::SetNumThreads(1);
  serve::ForecastCache cache;
  serve::TickStreamer streamer(model, &cache);
  for (int64_t k = 0; k <= history; ++k) {
    const int64_t t = (start + k) % src.size();
    streamer.OnTick(src.frames[t], src.future_tod[t]);
  }
  const int64_t ticks =
      std::min<int64_t>(kReplayTicks, static_cast<int64_t>(run.digests.size()));
  for (int64_t k = 0; k < ticks; ++k) {
    const int64_t t = (start + history + 1 + k) % src.size();
    std::shared_ptr<const serve::TickForecast> f =
        streamer.OnTick(src.frames[t], src.future_tod[t]);
    if (f == nullptr || DigestTensor(f->prediction) != run.digests[k]) {
      tally->Mismatch("tick " + std::to_string(k) +
                  " differs from its serial replay");
    } else {
      tally->Ok();
    }
  }
  sagdfn::utils::SetNumThreads(kPoolThreads);
}

void CountRun(const TickRun& run, Tally* tally) {
  tally->Ok(static_cast<int64_t>(run.tick_ms.size()) - run.not_visible);
  if (run.not_visible > 0) {
    tally->Fail("ticks whose forecast was not visible to Read on return",
                run.not_visible);
  }
  tally->Ok(run.reads - run.read_misses);
  if (run.read_misses > 0) tally->Fail("cache misses", run.read_misses);
}

}  // namespace

int RunStream10k(const RunArgs& args, Metrics* m, Tally* tally) {
  // Inputs: the traffic10k-sim series and a seeded model saved as a
  // mapped weight file. Not part of set-up.
  auto ds = std::make_unique<data::ForecastDataset>(
      data::MakeScaleDataset("traffic10k-sim", data::DatasetScale::kFull),
      data::DefaultWindowSpec("traffic10k-sim"));
  SAGDFN_CHECK_EQ(ds->num_nodes(), kNodes);
  const core::SagdfnConfig config = ScaleTierConfig(kNodes, 3000 + args.seed);
  const FrameSource src = BuildFrames(*ds, config.horizon);
  SplitMix rng(args.seed * 0x9e3779b97f4a7c15ull + 29);
  const int64_t start = rng.Below(src.size());
  const std::string path = args.work_dir + "/stream_10k.sagm";
  {
    auto built = serve::FrozenModel::Freeze(
        std::make_unique<core::SagdfnModel>(config));
    sagdfn::utils::Status st = built->Save(path);
    SAGDFN_CHECK(st.ok()) << st.ToString();
  }
  std::printf("stream N=%lld h=%lld f=%lld m=%lld hidden=%lld start=%lld\n",
              static_cast<long long>(config.num_nodes),
              static_cast<long long>(config.history),
              static_cast<long long>(config.horizon),
              static_cast<long long>(config.m),
              static_cast<long long>(config.hidden_dim),
              static_cast<long long>(start));

  std::vector<double> setup_s;
  StreamState s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    s = StreamState();
    const int64_t t0 = NowNs();
    s = SetUp(config, path, src, start);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  const int64_t first = start + config.history + 1;

  Tracer off(false);
  Tracer tracer(args.trace);
  // Whole sub-windows only; a traced run measures half as many ticks
  // untraced and traced each.
  const int64_t windows = std::max<int64_t>(
      1, static_cast<int64_t>(args.seconds * kTicksPerSecond /
                              kTicksPerSubWindow / (args.trace ? 2 : 1)));
  const int64_t ticks = windows * kTicksPerSubWindow;
  TickRun run = RunTicks(s, src, first, ticks, &off);
  CountRun(run, tally);
  CheckReplay(s.model, src, start, config.history, run, tally);
  std::vector<double> p50s, tails;
  for (int64_t w = 0; w < windows; ++w) {
    std::vector<double> part(run.tick_ms.begin() + w * kTicksPerSubWindow,
                             run.tick_ms.begin() + (w + 1) * kTicksPerSubWindow);
    p50s.push_back(Percentile(part, 50.0));
    tails.push_back(Percentile(part, kTickTailPct));
  }
  const double p50 = Median(p50s);
  const double tail = Median(tails);
  std::printf("stream sub-window p50s (ms):");
  for (double v : p50s) std::printf(" %.2f", v);
  std::printf("\n");

  if (!args.trace) {
    m->PrintInfo("stream.tick.p50_ms (median of sub-window p50s)", p50, "ms");
    m->PrintInfo("stream.tick.tail_ms (median of sub-window p90s)", tail,
                 "ms");
    m->PrintInfo("stream.tick.p95_ms (whole run)",
                 Percentile(run.tick_ms, 95.0), "ms");
    m->PrintInfo("stream.ticks", static_cast<double>(run.tick_ms.size()),
                 "count");
    m->PrintInfo("stream.reads", static_cast<double>(run.reads), "count");
    m->Set("p50_ms", p50, "ms");
    m->Set("tail_ms", tail, "ms");
    m->Set("rate_per_s", static_cast<double>(run.tick_ms.size()) / run.wall_s,
           "1/s");
    m->Set("setup_s", Median(setup_s), "s");
    m->Set("peak_rss_mb", PeakRssMb(), "MB");
    return 0;
  }

  // Traced: the same loop with spans and the programme's telemetry on,
  // continuing the frame sequence where the untraced loop stopped.
  sagdfn::obs::Telemetry::Global().SetCollectionEnabled(true);
  TickRun traced = RunTicks(s, src, first + ticks, ticks, &tracer);
  sagdfn::obs::Telemetry::Global().SetCollectionEnabled(false);
  CountRun(traced, tally);
  m->Set("trace.overhead_share",
         Percentile(traced.tick_ms, 50.0) / Percentile(run.tick_ms, 50.0) -
             1.0,
         "share");
  m->Set("stream.on_tick_ms", Median(traced.tick_ms), "ms");
  m->Set("cache.read_ns.p50", Percentile(traced.read_ns, 50.0), "ns");
  m->Set("cache.read_ns.p99", Percentile(traced.read_ns, 99.0), "ns");
  const serve::ForecastCache::Stats cs = s.cache->stats();
  m->Set("cache.hit_ratio",
         cs.reads > 0 ? static_cast<double>(cs.hits) / cs.reads : 0.0,
         "share");
  tracer.WriteJsonl(args.work_dir + "/spans_stream-10k.jsonl");
  std::printf("trace spans=%lld written to %s/spans_stream-10k.jsonl\n",
              static_cast<long long>(tracer.size()), args.work_dir.c_str());

  ProbeInputs in;
  in.frozen = s.model;
  in.dataset = ds.get();
  in.train_batch = 1;
  in.work_dir = args.work_dir;
  in.seed = args.seed;
  in.measured_tick_ms = p50;
  s.streamer.reset();
  RunLayerProbes(in, m, tally);
  return 0;
}

}  // namespace perfbench
