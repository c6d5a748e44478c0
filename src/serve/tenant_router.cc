#include "serve/tenant_router.h"

#include <algorithm>
#include <utility>

namespace sagdfn::serve {

TenantRouter::TenantRouter(TenantRouterOptions options)
    : options_(options) {}

TenantRouter::~TenantRouter() {
  // Drop every tenant reference the router holds. Any requester still
  // inside Submit keeps its pinned tenant alive until the call returns;
  // the stack then tears down in registry -> engine -> streamer order.
  std::map<std::string, std::shared_ptr<Tenant>> doomed;
  {
    std::lock_guard<std::mutex> lock(mu_);
    doomed.swap(tenants_);
  }
}

utils::Status TenantRouter::AddTenant(
    const std::string& id, std::shared_ptr<const FrozenModel> model,
    TenantConfig config) {
  if (id.empty()) {
    return utils::Status::InvalidArgument("tenant id must be non-empty");
  }
  if (model == nullptr) {
    return utils::Status::InvalidArgument("tenant model must be non-null");
  }

  // Reserve the worker grant under the lock, but build the stack (thread
  // spawns, observer hookup) outside it so a slow tenant bring-up never
  // blocks routing for the tenants already serving.
  int64_t granted = std::max<int64_t>(1, config.engine.num_workers);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (tenants_.count(id) > 0) {
      return utils::Status::InvalidArgument("duplicate tenant id: " + id);
    }
    if (options_.worker_budget > 0) {
      const int64_t remaining = options_.worker_budget - workers_in_use_;
      granted = std::max<int64_t>(1, std::min(granted, remaining));
    }
    workers_in_use_ += granted;
    // Placeholder reserves the id so a concurrent duplicate AddTenant
    // fails instead of double-building.
    tenants_[id] = nullptr;
  }

  config.engine.tenant = id;
  config.engine.num_workers = granted;
  config.registry.tenant = id;

  auto tenant = std::make_shared<Tenant>();
  tenant->id = id;
  tenant->workers = granted;
  if (config.enable_streaming) {
    tenant->cache = std::make_unique<ForecastCache>();
    tenant->streamer = std::make_unique<TickStreamer>(
        model, tenant->cache.get(), config.streamer);
  }
  tenant->engine =
      std::make_unique<InferenceEngine>(std::move(model), config.engine);
  if (tenant->streamer != nullptr) {
    tenant->streamer->BindEngine(tenant->engine.get());
  }
  tenant->registry = std::make_unique<ModelRegistry>(tenant->engine.get(),
                                                     config.registry);

  std::lock_guard<std::mutex> lock(mu_);
  tenants_[id] = std::move(tenant);
  return utils::Status::Ok();
}

utils::Status TenantRouter::RemoveTenant(const std::string& id) {
  std::shared_ptr<Tenant> tenant;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = tenants_.find(id);
    if (it == tenants_.end() || it->second == nullptr) {
      return utils::Status::NotFound("unknown tenant: " + id);
    }
    tenant = std::move(it->second);
    tenants_.erase(it);
    workers_in_use_ -= tenant->workers;
  }
  // Drain outside the router lock: in-flight futures complete per the
  // tenant's drain_on_shutdown policy without stalling other tenants'
  // routing. Submitters that pinned this tenant before the erase finish
  // against the shutting-down engine (their futures are satisfied with
  // FailedPrecondition at worst, never left dangling).
  tenant->engine->Shutdown();
  tenant.reset();
  return utils::Status::Ok();
}

std::shared_ptr<TenantRouter::Tenant> TenantRouter::Find(
    const std::string& id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tenants_.find(id);
  if (it == tenants_.end()) return nullptr;
  return it->second;  // nullptr while a concurrent AddTenant is building
}

namespace {

std::future<Forecast> UnknownTenantFuture(const std::string& id) {
  std::promise<Forecast> promise;
  promise.set_value(
      Forecast{utils::Status::NotFound("unknown tenant: " + id), {}});
  return promise.get_future();
}

}  // namespace

std::future<Forecast> TenantRouter::Submit(const std::string& tenant,
                                           tensor::Tensor x,
                                           tensor::Tensor future_tod) {
  std::shared_ptr<Tenant> t = Find(tenant);
  if (t == nullptr) return UnknownTenantFuture(tenant);
  return t->engine->Submit(std::move(x), std::move(future_tod));
}

std::future<Forecast> TenantRouter::Submit(const std::string& tenant,
                                           tensor::Tensor x,
                                           tensor::Tensor future_tod,
                                           std::chrono::microseconds timeout) {
  std::shared_ptr<Tenant> t = Find(tenant);
  if (t == nullptr) return UnknownTenantFuture(tenant);
  return t->engine->Submit(std::move(x), std::move(future_tod), timeout);
}

utils::Status TenantRouter::Publish(const std::string& tenant,
                                    const std::string& path) {
  std::shared_ptr<Tenant> t = Find(tenant);
  if (t == nullptr) {
    return utils::Status::NotFound("unknown tenant: " + tenant);
  }
  return t->registry->Publish(path);
}

std::shared_ptr<const TickForecast> TenantRouter::OnTick(
    const std::string& tenant, const tensor::Tensor& frame,
    const tensor::Tensor& future_tod) {
  std::shared_ptr<Tenant> t = Find(tenant);
  if (t == nullptr || t->streamer == nullptr) return nullptr;
  return t->streamer->OnTick(frame, future_tod);
}

std::shared_ptr<const TickForecast> TenantRouter::ReadCached(
    const std::string& tenant) const {
  std::shared_ptr<Tenant> t = Find(tenant);
  if (t == nullptr || t->cache == nullptr) return nullptr;
  return t->cache->Read();
}

std::shared_ptr<const FrozenModel> TenantRouter::live(
    const std::string& tenant) const {
  std::shared_ptr<Tenant> t = Find(tenant);
  if (t == nullptr) return nullptr;
  return t->engine->model_snapshot();
}

bool TenantRouter::on_probation(const std::string& tenant) const {
  std::shared_ptr<Tenant> t = Find(tenant);
  return t != nullptr && t->registry->on_probation();
}

std::vector<TenantStats> TenantRouter::Stats() const {
  std::vector<std::shared_ptr<Tenant>> pinned;
  {
    std::lock_guard<std::mutex> lock(mu_);
    pinned.reserve(tenants_.size());
    for (const auto& [id, tenant] : tenants_) {
      if (tenant != nullptr) pinned.push_back(tenant);
    }
  }
  std::vector<TenantStats> out;
  out.reserve(pinned.size());
  for (const auto& t : pinned) {
    TenantStats stats;
    stats.id = t->id;
    stats.workers = t->workers;
    stats.engine = t->engine->stats();
    stats.registry = t->registry->stats();
    if (t->cache != nullptr) stats.cache = t->cache->stats();
    out.push_back(std::move(stats));
  }
  return out;
}

utils::Status TenantRouter::StatsFor(const std::string& tenant,
                                     TenantStats* out) const {
  std::shared_ptr<Tenant> t = Find(tenant);
  if (t == nullptr) {
    return utils::Status::NotFound("unknown tenant: " + tenant);
  }
  out->id = t->id;
  out->workers = t->workers;
  out->engine = t->engine->stats();
  out->registry = t->registry->stats();
  if (t->cache != nullptr) out->cache = t->cache->stats();
  return utils::Status::Ok();
}

int64_t TenantRouter::WorkersGranted(const std::string& tenant) const {
  std::shared_ptr<Tenant> t = Find(tenant);
  return t == nullptr ? -1 : t->workers;
}

}  // namespace sagdfn::serve
