// Self-test of the open-loop timing: a cold tenant stalled by the
// slow_batch fault must not show up in the hot tenant's stamped latency,
// while index-order waiting (the flawed method) charges it.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "openloop.h"
#include "serve/tenant_router.h"
#include "utils/fault.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace serve = sagdfn::serve;
using sagdfn::tensor::Shape;
using sagdfn::tensor::Tensor;

constexpr int64_t kNodes = 64;
constexpr int64_t kWindows = 16;
constexpr double kRate = 150.0;
constexpr int64_t kRequests = 600;
constexpr int64_t kStallUs = 20000;

struct Fixture {
  std::vector<std::string> ids = {"hot", "cold"};
  std::vector<std::vector<Tensor>> xs{2}, tods{2};
  std::unique_ptr<serve::TenantRouter> router;

  Fixture() {
    serve::TenantRouterOptions ro;
    ro.worker_budget = 2;
    router = std::make_unique<serve::TenantRouter>(ro);
    for (int t = 0; t < 2; ++t) {
      const sagdfn::core::SagdfnConfig cfg =
          CliDefaultConfig(kNodes, 12, 12, 77 + t);
      auto fm = serve::FrozenModel::Freeze(
          std::make_unique<sagdfn::core::SagdfnModel>(cfg));
      serve::TenantConfig tc;
      tc.engine.num_workers = 1;
      tc.engine.max_batch = 8;
      tc.engine.max_wait_us = 1000;
      for (int64_t b = 1; b <= 8; ++b) fm->PlanFor(b);
      SAGDFN_CHECK(router
                       ->AddTenant(ids[t],
                                   std::shared_ptr<const serve::FrozenModel>(
                                       std::move(fm)),
                                   tc)
                       .ok());
      sagdfn::utils::Rng rng(5 + t);
      for (int64_t w = 0; w < kWindows; ++w) {
        xs[t].push_back(Tensor::Normal(Shape({12, kNodes, 2}), rng));
        tods[t].push_back(Tensor::Uniform(Shape({12}), rng));
      }
    }
  }

  SubmitFn Submit() {
    return [this](const Arrival& a) {
      return router->Submit(ids[a.tenant], xs[a.tenant][a.window],
                            tods[a.tenant][a.window]);
    };
  }
};

bool Expect(bool ok, const char* what) {
  std::printf("selftest %-64s %s\n", what, ok ? "ok" : "FAILED");
  return ok;
}

}  // namespace

int RunSelfTest(const RunArgs&) {
  Fixture fx;
  SplitMix rng(2024);
  const std::vector<Arrival> sched =
      PoissonSchedule(rng, kRate, kRequests, true, kWindows);
  sagdfn::utils::FaultInjector& faults = sagdfn::utils::FaultInjector::Global();
  SAGDFN_CHECK(faults.Configure("").ok());

  RunOpenLoop(sched, fx.Submit(), nullptr);  // warm-up
  const OpenLoopResult base = RunOpenLoop(sched, fx.Submit(), nullptr);
  SAGDFN_CHECK(faults
                   .Configure("slow_batch@us=" + std::to_string(kStallUs) +
                              "@tenant=cold")
                   .ok());
  const OpenLoopResult slow = RunOpenLoop(sched, fx.Submit(), nullptr);
  const std::vector<double> naive = IndexOrderLatenciesMs(sched, fx.Submit());
  SAGDFN_CHECK(faults.Configure("").ok());

  const double hot_base_p50 = Percentile(base.LatenciesMs(0), 50.0);
  const double hot_base_p90 = Percentile(base.LatenciesMs(0), 90.0);
  const double hot_slow_p90 = Percentile(slow.LatenciesMs(0), 90.0);
  const double cold_slow_p50 = Percentile(slow.LatenciesMs(1), 50.0);
  std::vector<double> naive_hot;
  for (size_t i = 0; i < sched.size(); ++i) {
    if (sched[i].tenant == 0) naive_hot.push_back(naive[i]);
  }
  const double naive_hot_p90 = Percentile(naive_hot, 90.0);

  // Hot requests that completed before a stalled cold request sent
  // earlier: their stamps must follow their own completion, so they keep
  // the clean run's latency instead of inheriting the stall.
  std::vector<double> overtakes;
  int64_t latest_cold_ready = 0;
  for (const Completion& c : slow.done) {
    if (c.arrival.tenant == 1) {
      latest_cold_ready = std::max(latest_cold_ready, c.ready_ns);
    } else if (c.ready_ns < latest_cold_ready) {
      overtakes.push_back(c.latency_ms());
    }
  }
  const double overtake_p50 = Median(overtakes);
  std::printf("selftest hot p90 %.2f ms clean, %.2f ms with the cold stall; "
              "cold p50 %.2f ms; index-order hot p90 %.2f ms; "
              "stamp gap p99 %.0f us, max %.0f us; %zu overtakes, p50 "
              "%.2f ms\n",
              hot_base_p90, hot_slow_p90, cold_slow_p50, naive_hot_p90,
              slow.stamp_gap_p99_us, slow.stamp_gap_max_us, overtakes.size(),
              overtake_p50);

  bool ok = true;
  ok &= Expect(base.Failures() == 0 && slow.Failures() == 0,
               "every request succeeds");
  ok &= Expect(cold_slow_p50 >= kStallUs / 1e3,
               "the stall reaches the cold tenant");
  ok &= Expect(hot_slow_p90 <= std::max(1.5 * hot_base_p90,
                                        hot_base_p90 + 5.0),
               "the cold stall does not inflate the hot tenant's p90");
  ok &= Expect(!overtakes.empty() &&
                   overtake_p50 <= std::max(1.5 * hot_base_p50,
                                            hot_base_p50 + 5.0),
               "hot requests finishing before a stalled cold one keep "
               "their own latency");
  ok &= Expect(naive_hot_p90 > hot_slow_p90 + 10.0,
               "index-order waiting would have charged the hot tenant");
  ok &= Expect(slow.stamp_gap_p99_us < 1000.0,
               "completion stamps are at most ~1 ms late (p99 sweep gap)");
  std::printf("selftest %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

}  // namespace perfbench
