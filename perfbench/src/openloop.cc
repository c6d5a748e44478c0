#include "openloop.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <mutex>
#include <thread>

#include "common.h"

namespace perfbench {

uint64_t SplitMix::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double SplitMix::Uniform() {
  return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
}

double SplitMix::Exponential(double rate) {
  return -std::log1p(-Uniform()) / rate;
}

int64_t SplitMix::Below(int64_t n) {
  return static_cast<int64_t>(Next() % static_cast<uint64_t>(n));
}

std::vector<Arrival> PoissonSchedule(SplitMix& rng, double rate_per_s,
                                     int64_t count, bool two_tenants,
                                     int64_t windows_per_tenant,
                                     int64_t first_id) {
  std::vector<Arrival> out;
  out.reserve(count);
  double t = 0.0;
  for (int64_t i = 0; i < count; ++i) {
    t += rng.Exponential(rate_per_s);
    Arrival a;
    a.id = first_id + i;
    a.tenant = two_tenants && (a.id % 4 == 3) ? 1 : 0;
    a.window = rng.Below(windows_per_tenant);
    a.offset_ns = static_cast<int64_t>(t * 1e9);
    out.push_back(a);
  }
  return out;
}

std::vector<double> OpenLoopResult::LatenciesMs(int tenant) const {
  std::vector<double> out;
  out.reserve(done.size());
  for (const Completion& c : done) {
    if (tenant < 0 || c.arrival.tenant == tenant) out.push_back(c.latency_ms());
  }
  return out;
}

int64_t OpenLoopResult::Failures() const {
  int64_t n = 0;
  for (const Completion& c : done) n += c.ok ? 0 : 1;
  return n;
}

namespace {

constexpr std::chrono::microseconds kSweepPeriod{20};

struct Pending {
  Completion completion;
  bool keep = false;
  std::future<sagdfn::serve::Forecast> future;
};

void SleepUntilNs(int64_t target_ns) {
  const int64_t now = NowNs();
  if (target_ns > now) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(target_ns - now));
  }
}

}  // namespace

OpenLoopResult RunOpenLoop(const std::vector<Arrival>& schedule,
                           const SubmitFn& submit, const KeepFn& keep) {
  OpenLoopResult result;
  std::mutex mu;
  std::vector<Pending> inbox;  // guarded by mu
  std::atomic<bool> sending_done{false};
  std::vector<Completion> finished;
  finished.reserve(schedule.size());
  std::vector<double> gaps_us;

  std::thread poller([&] {
    std::vector<Pending> inflight;
    int64_t last_sweep = NowNs();
    while (true) {
      const bool done_sending = sending_done.load(std::memory_order_acquire);
      {
        std::lock_guard<std::mutex> lock(mu);
        for (Pending& p : inbox) inflight.push_back(std::move(p));
        inbox.clear();
      }
      const int64_t sweep = NowNs();
      gaps_us.push_back(static_cast<double>(sweep - last_sweep) / 1e3);
      last_sweep = sweep;
      size_t kept = 0;
      for (size_t i = 0; i < inflight.size(); ++i) {
        Pending& p = inflight[i];
        if (p.future.wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready) {
          if (kept != i) inflight[kept] = std::move(p);
          ++kept;
          continue;
        }
        p.completion.ready_ns = NowNs();
        sagdfn::serve::Forecast forecast = p.future.get();
        p.completion.ok = forecast.status.ok();
        if (!p.completion.ok) p.completion.error = forecast.status.ToString();
        p.completion.deadline_exceeded =
            forecast.status.code() ==
            sagdfn::utils::StatusCode::kDeadlineExceeded;
        if (p.keep && p.completion.ok) {
          p.completion.prediction = std::move(forecast.prediction);
        }
        finished.push_back(std::move(p.completion));
      }
      inflight.resize(kept);
      if (done_sending && inflight.empty()) break;
      // A short sleep keeps the stamping error near the sweep period: on
      // virtual machines a longer timed wait lets the vCPU halt, and the
      // wake-up then takes milliseconds.
      std::this_thread::sleep_for(kSweepPeriod);
    }
  });

  const int64_t start = NowNs();
  for (const Arrival& a : schedule) {
    const int64_t sched = start + a.offset_ns;
    SleepUntilNs(sched);
    Pending p;
    p.completion.arrival = a;
    p.completion.sched_ns = sched;
    p.completion.sent_ns = NowNs();
    p.keep = keep != nullptr && keep(a);
    p.future = submit(a);
    p.completion.submit_ns = NowNs() - p.completion.sent_ns;
    std::lock_guard<std::mutex> lock(mu);
    inbox.push_back(std::move(p));
  }
  sending_done.store(true, std::memory_order_release);
  poller.join();
  result.wall_s = static_cast<double>(NowNs() - start) / 1e9;

  std::sort(finished.begin(), finished.end(),
            [](const Completion& a, const Completion& b) {
              return a.arrival.id < b.arrival.id;
            });
  result.done = std::move(finished);
  if (!gaps_us.empty()) {
    result.stamp_gap_max_us = *std::max_element(gaps_us.begin(), gaps_us.end());
    result.stamp_gap_p99_us = Percentile(std::move(gaps_us), 99.0);
  }
  return result;
}

std::vector<double> IndexOrderLatenciesMs(
    const std::vector<Arrival>& schedule, const SubmitFn& submit) {
  std::vector<std::future<sagdfn::serve::Forecast>> futures;
  std::vector<int64_t> sched;
  futures.reserve(schedule.size());
  const int64_t start = NowNs();
  for (const Arrival& a : schedule) {
    sched.push_back(start + a.offset_ns);
    SleepUntilNs(sched.back());
    futures.push_back(submit(a));
  }
  std::vector<double> out;
  for (size_t i = 0; i < futures.size(); ++i) {
    futures[i].wait();
    out.push_back(static_cast<double>(NowNs() - sched[i]) / 1e6);
  }
  return out;
}

}  // namespace perfbench
