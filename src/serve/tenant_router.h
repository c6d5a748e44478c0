#ifndef SAGDFN_SERVE_TENANT_ROUTER_H_
#define SAGDFN_SERVE_TENANT_ROUTER_H_

#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "serve/engine.h"
#include "serve/forecast_cache.h"
#include "serve/frozen_model.h"
#include "serve/registry.h"
#include "tensor/tensor.h"
#include "utils/status.h"

namespace sagdfn::serve {

/// Process-wide knobs of the TenantRouter.
struct TenantRouterOptions {
  /// Total worker-thread budget shared by every tenant engine. AddTenant
  /// clamps each tenant's requested EngineOptions::num_workers to what is
  /// left of the budget (granted = max(1, min(requested, remaining))) so
  /// one greedy tenant cannot monopolize the process — every tenant gets
  /// at least one worker, and workers are returned to the pool on
  /// RemoveTenant. 0 = unlimited (grant exactly what was requested).
  int64_t worker_budget = 0;
};

/// Per-tenant wiring passed to AddTenant. The router force-sets the
/// `tenant` field of both option structs to the tenant id (telemetry
/// namespacing and fault-probe qualification are not opt-in) and applies
/// the worker budget to `engine.num_workers`.
struct TenantConfig {
  EngineOptions engine;
  RegistryOptions registry;
  /// When true the tenant also gets a ForecastCache + TickStreamer bound
  /// to its engine's swap observer (streaming scenario families).
  bool enable_streaming = false;
  TickStreamerOptions streamer;
};

/// Point-in-time view of one tenant (see TenantRouter::Stats).
struct TenantStats {
  std::string id;
  /// Workers actually granted (after the budget clamp).
  int64_t workers = 0;
  EngineStats engine;
  RegistryStats registry;
  ForecastCache::Stats cache;
};

/// Multi-tenant serving front door: one ModelRegistry + InferenceEngine
/// (and optionally ForecastCache + TickStreamer) per scenario family,
/// with per-request routing by tenant id.
///
/// Isolation is structural, not scheduled: each tenant owns its engine —
/// its own submission queue, deadline/shed watermarks, worker threads,
/// live model pointer, and probation state — so an overloaded or faulted
/// tenant can only shed, time out, or roll back ITS OWN requests. The
/// only shared resource is the process worker budget, which is divided
/// at AddTenant time (a static partition; never rebalanced mid-request),
/// and the global tensor-kernel thread pool, whose determinism contract
/// (thread-count-invariant ParallelFor, offset-independent SIMD tails,
/// batch-row-independent kernels) makes each tenant's forecasts
/// byte-identical to a dedicated single-tenant deployment regardless of
/// what its neighbors are doing — tests/tenant_router_test.cc
/// memcmp-verifies exactly that.
///
/// Routing failure semantics: Submit to an unknown (or already removed)
/// tenant fails fast with NotFound — the returned future is ready
/// immediately; nothing is enqueued anywhere. Malformed requests keep
/// the engine's InvalidArgument behavior. RemoveTenant with requests in
/// flight drains them per the tenant engine's drain_on_shutdown policy;
/// every outstanding future is satisfied before RemoveTenant returns.
///
/// Thread safety: all methods may be called from any thread. Submit and
/// the per-tenant accessors pin the tenant via shared_ptr before leaving
/// the router lock, so a concurrent RemoveTenant never yanks an engine
/// out from under a request being submitted — the removed tenant is torn
/// down when its last in-flight reference retires.
class TenantRouter {
 public:
  explicit TenantRouter(TenantRouterOptions options = {});

  /// Removes every tenant (draining each engine).
  ~TenantRouter();

  TenantRouter(const TenantRouter&) = delete;
  TenantRouter& operator=(const TenantRouter&) = delete;

  /// Registers a tenant serving `model`. Fails with InvalidArgument on an
  /// empty id or a duplicate. On success the tenant is immediately
  /// routable and its registry/engine telemetry appears under
  /// serve.<id>.* / registry.<id>.*.
  utils::Status AddTenant(const std::string& id,
                          std::shared_ptr<const FrozenModel> model,
                          TenantConfig config);

  /// Deregisters a tenant: NotFound if unknown. In-flight and queued
  /// requests are drained (or rejected, per the tenant's
  /// drain_on_shutdown) before teardown; no future is left dangling.
  utils::Status RemoveTenant(const std::string& id);

  /// Routes one request to `tenant`'s engine. `x` is [h, N, C],
  /// `future_tod` [f]. Unknown tenant -> ready future with NotFound; all
  /// other failure codes are the tenant engine's own.
  std::future<Forecast> Submit(const std::string& tenant, tensor::Tensor x,
                               tensor::Tensor future_tod);

  /// Same, with an explicit per-request deadline.
  std::future<Forecast> Submit(const std::string& tenant, tensor::Tensor x,
                               tensor::Tensor future_tod,
                               std::chrono::microseconds timeout);

  /// Offers a candidate checkpoint to `tenant`'s registry gate. The
  /// verdict (and any later probation rollback) affects only this
  /// tenant's live pointer.
  utils::Status Publish(const std::string& tenant, const std::string& path);

  /// Feeds one streaming tick to `tenant`'s TickStreamer (requires
  /// enable_streaming). Returns the published forecast, nullptr during
  /// warmup, or nullptr for an unknown/non-streaming tenant.
  std::shared_ptr<const TickForecast> OnTick(const std::string& tenant,
                                             const tensor::Tensor& frame,
                                             const tensor::Tensor& future_tod);

  /// Read of `tenant`'s cached tick forecast (nullptr when
  /// unknown, non-streaming, warming up, or invalidated by a swap).
  std::shared_ptr<const TickForecast> ReadCached(
      const std::string& tenant) const;

  /// The snapshot `tenant`'s next batch would run on (nullptr if
  /// unknown).
  std::shared_ptr<const FrozenModel> live(const std::string& tenant) const;

  /// True while `tenant`'s registry has a swapped-in model on probation.
  bool on_probation(const std::string& tenant) const;

  /// Per-tenant counters, sorted by id.
  std::vector<TenantStats> Stats() const;

  /// Stats for one tenant; NotFound if unknown.
  utils::Status StatsFor(const std::string& tenant, TenantStats* out) const;

  /// Workers granted to `tenant` after the budget clamp (-1 if unknown).
  int64_t WorkersGranted(const std::string& tenant) const;

  const TenantRouterOptions& options() const { return options_; }

 private:
  /// One tenant's serving stack. Declaration order is the destruction
  /// contract reversed: the registry tears down first (stops its watcher
  /// and unhooks the batch observer), then the engine (drains queued
  /// work; satisfies every future), then the streamer and cache, then
  /// the initial model reference.
  struct Tenant {
    std::string id;
    int64_t workers = 0;
    std::unique_ptr<ForecastCache> cache;     // null unless streaming
    std::unique_ptr<TickStreamer> streamer;   // null unless streaming
    std::unique_ptr<InferenceEngine> engine;
    std::unique_ptr<ModelRegistry> registry;
  };

  /// Pins a tenant by id (nullptr when unknown). Holds mu_ only for the
  /// map lookup, never across engine/registry calls.
  std::shared_ptr<Tenant> Find(const std::string& id) const;

  TenantRouterOptions options_;

  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<Tenant>> tenants_;  // guarded by mu_
  int64_t workers_in_use_ = 0;                              // guarded by mu_
};

}  // namespace sagdfn::serve

#endif  // SAGDFN_SERVE_TENANT_ROUTER_H_
