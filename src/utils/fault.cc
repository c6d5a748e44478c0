#include "utils/fault.h"

#include <cstdlib>

#include "utils/logging.h"
#include "utils/string_util.h"

namespace sagdfn::utils {
namespace {

const char* SiteName(FaultSite site) {
  switch (site) {
    case FaultSite::kLoss:
      return "nan_loss";
    case FaultSite::kGrad:
      return "nan_grad";
    case FaultSite::kCrash:
      return "crash";
    case FaultSite::kSaveFail:
      return "io_fail@save";
    case FaultSite::kLoadFail:
      return "io_fail@load";
    case FaultSite::kTruncate:
      return "truncate_ckpt";
    case FaultSite::kBadCandidate:
      return "bad_candidate";
    case FaultSite::kNanForecast:
      return "nan_forecast";
    case FaultSite::kSlowBatch:
      return "slow_batch";
    case FaultSite::kSwapRace:
      return "swap_race";
  }
  return "?";
}

}  // namespace

FaultInjector& FaultInjector::Global() {
  static FaultInjector* injector = [] {
    auto* fi = new FaultInjector();
    Status status = fi->ConfigureFromEnv();
    SAGDFN_CHECK(status.ok()) << status.ToString();
    return fi;
  }();
  return *injector;
}

Status FaultInjector::Configure(const std::string& spec) {
  std::vector<Rule> rules;
  uint64_t seed = 42;
  Status parsed = ParseSpec(spec, &rules, &seed);
  std::lock_guard<std::mutex> lock(mu_);
  if (!parsed.ok()) {
    // A mistyped spec must not leave stale rules armed.
    rules_.clear();
    enabled_.store(false, std::memory_order_relaxed);
    return parsed;
  }
  rules_ = std::move(rules);
  seed_ = seed;
  rng_ = Rng(seed_);
  enabled_.store(!rules_.empty(), std::memory_order_relaxed);
  return Status::Ok();
}

Status FaultInjector::ParseSpec(const std::string& spec,
                                std::vector<Rule>* out_rules,
                                uint64_t* out_seed) {
  std::vector<Rule>& rules = *out_rules;
  uint64_t& seed = *out_seed;
  std::string normalized = spec;
  for (char& c : normalized) {
    if (c == ';') c = ',';
  }
  for (const std::string& raw : Split(normalized, ',')) {
    const std::string term = Trim(raw);
    if (term.empty()) continue;

    // Split "kind[@key=value]...": a term is the site kind followed by
    // any number of @key=value qualifiers. At most one non-tenant
    // qualifier is meaningful per site; `tenant=ID` may ride along on
    // any serve-side term.
    const std::vector<std::string> segments = Split(term, '@');
    std::string kind = segments[0];
    std::string key;
    std::string value;
    std::string tenant;
    for (size_t s = 1; s < segments.size(); ++s) {
      const std::string& seg = segments[s];
      const size_t eq = seg.find('=');
      if (eq == std::string::npos) {
        return Status::InvalidArgument("fault term '" + term +
                                       "': expected @key=value");
      }
      const std::string seg_key = seg.substr(0, eq);
      const std::string seg_value = seg.substr(eq + 1);
      if (seg_key == "tenant") {
        if (seg_value.empty()) {
          return Status::InvalidArgument("fault term '" + term +
                                         "': empty tenant id");
        }
        tenant = seg_value;
      } else if (key.empty()) {
        key = seg_key;
        value = seg_value;
      } else {
        return Status::InvalidArgument("fault term '" + term +
                                       "': more than one non-tenant "
                                       "qualifier");
      }
    }
    if (segments.size() == 1) {
      // "seed=K" has no site; handle before site mapping.
      const size_t eq = term.find('=');
      if (eq != std::string::npos) {
        kind = term.substr(0, eq);
        value = term.substr(eq + 1);
        if (kind == "seed") {
          int64_t parsed = 0;
          if (!ParseInt64(value, &parsed) || parsed < 0) {
            return Status::InvalidArgument("fault term '" + term +
                                           "': bad seed");
          }
          seed = static_cast<uint64_t>(parsed);
          continue;
        }
        return Status::InvalidArgument("fault term '" + term +
                                       "': unknown assignment");
      }
    }

    Rule rule;
    rule.term = term;
    rule.tenant = tenant;
    int64_t index = -1;
    double prob = -1.0;
    if (!value.empty() && key != "prob") {
      if (!ParseInt64(value, &index) || index < 0) {
        return Status::InvalidArgument("fault term '" + term +
                                       "': bad index '" + value + "'");
      }
    }
    if (key == "prob") {
      if (!ParseDouble(value, &prob) || prob < 0.0 || prob > 1.0) {
        return Status::InvalidArgument("fault term '" + term +
                                       "': prob must be in [0, 1]");
      }
    }

    if (kind == "nan_loss" || kind == "nan_grad") {
      rule.site = kind == "nan_loss" ? FaultSite::kLoss : FaultSite::kGrad;
      if (key == "iter") {
        rule.index = index;
      } else if (key == "prob") {
        rule.prob = prob;
      } else {
        return Status::InvalidArgument("fault term '" + term +
                                       "': expected @iter=N or @prob=P");
      }
    } else if (kind == "crash") {
      if (key != "epoch") {
        return Status::InvalidArgument("fault term '" + term +
                                       "': expected crash@epoch=N");
      }
      rule.site = FaultSite::kCrash;
      rule.index = index;
    } else if (kind == "io_fail") {
      if (key == "save") {
        rule.site = FaultSite::kSaveFail;
      } else if (key == "load") {
        rule.site = FaultSite::kLoadFail;
      } else {
        return Status::InvalidArgument(
            "fault term '" + term + "': expected io_fail@save=N or @load=N");
      }
      if (index < 1) {
        return Status::InvalidArgument("fault term '" + term +
                                       "': occurrence is 1-based");
      }
      rule.index = index;
    } else if (kind == "truncate_ckpt") {
      rule.site = FaultSite::kTruncate;
      if (key.empty()) {
        rule.index = 1;  // default: the first checkpoint written
      } else if (key == "save" && index >= 1) {
        rule.index = index;
      } else {
        return Status::InvalidArgument("fault term '" + term +
                                       "': expected truncate_ckpt[@save=N]");
      }
    } else if (kind == "bad_candidate") {
      rule.site = FaultSite::kBadCandidate;
      if (key.empty()) {
        rule.index = 1;  // default: the first candidate published
      } else if (key == "publish" && index >= 1) {
        rule.index = index;
      } else {
        return Status::InvalidArgument(
            "fault term '" + term + "': expected bad_candidate[@publish=N]");
      }
    } else if (kind == "nan_forecast") {
      rule.site = FaultSite::kNanForecast;
      if (key == "prob") {
        rule.prob = prob;
      } else if (key == "batch" && index >= 1) {
        rule.index = index;
      } else {
        return Status::InvalidArgument(
            "fault term '" + term + "': expected @batch=N or @prob=P");
      }
    } else if (kind == "slow_batch") {
      rule.site = FaultSite::kSlowBatch;
      if (key != "us" || index < 1) {
        return Status::InvalidArgument("fault term '" + term +
                                       "': expected slow_batch@us=N");
      }
      rule.param = index;
    } else if (kind == "swap_race") {
      rule.site = FaultSite::kSwapRace;
      if (key.empty()) {
        rule.param = 2000;  // default race-window width in microseconds
      } else if (key == "us" && index >= 1) {
        rule.param = index;
      } else {
        return Status::InvalidArgument("fault term '" + term +
                                       "': expected swap_race[@us=N]");
      }
    } else {
      return Status::InvalidArgument("unknown fault kind '" + kind +
                                     "' in term '" + term + "'");
    }
    rules.push_back(rule);
  }
  return Status::Ok();
}

Status FaultInjector::ConfigureFromEnv() {
  const char* spec = std::getenv("SAGDFN_FAULT_SPEC");
  return Configure(spec == nullptr ? "" : spec);
}

void FaultInjector::Reset() {
  Status status = Configure("");
  (void)status;  // "" always parses
}

bool FaultInjector::TenantMatches(const Rule& rule, std::string_view tenant) {
  return rule.tenant.empty() || rule.tenant == tenant;
}

bool FaultInjector::FireLocked(FaultSite site, int64_t index,
                               std::string_view tenant) {
  for (Rule& rule : rules_) {
    if (rule.site != site || !TenantMatches(rule, tenant)) continue;
    if (rule.index >= 0) {
      if (!rule.fired && index == rule.index) {
        rule.fired = true;
        SAGDFN_LOG(Warning) << "FaultInjector: firing '" << rule.term
                            << "' at " << SiteName(site) << " index "
                            << index;
        return true;
      }
    } else if (rng_.Bernoulli(rule.prob)) {
      SAGDFN_LOG(Warning) << "FaultInjector: firing '" << rule.term
                          << "' at " << SiteName(site) << " index " << index;
      return true;
    }
  }
  return false;
}

bool FaultInjector::Fire(FaultSite site, int64_t index) {
  if (!enabled()) return false;
  std::lock_guard<std::mutex> lock(mu_);
  return FireLocked(site, index, std::string_view());
}

bool FaultInjector::FireCounted(FaultSite site) {
  return FireCounted(site, std::string_view());
}

bool FaultInjector::FireCounted(FaultSite site, std::string_view tenant) {
  if (!enabled()) return false;
  std::lock_guard<std::mutex> lock(mu_);
  // Every matching rule advances its own occurrence counter even when an
  // earlier rule fires, so two rules for the same site count the same
  // probe stream.
  bool any_fired = false;
  for (Rule& rule : rules_) {
    if (rule.site != site || !TenantMatches(rule, tenant)) continue;
    const int64_t occurrence = ++rule.seen;
    if (rule.index >= 0) {
      if (!rule.fired && occurrence == rule.index) {
        rule.fired = true;
        SAGDFN_LOG(Warning) << "FaultInjector: firing '" << rule.term
                            << "' at " << SiteName(site) << " occurrence "
                            << occurrence;
        any_fired = true;
      }
    } else if (rng_.Bernoulli(rule.prob)) {
      SAGDFN_LOG(Warning) << "FaultInjector: firing '" << rule.term
                          << "' at " << SiteName(site) << " occurrence "
                          << occurrence;
      any_fired = true;
    }
  }
  return any_fired;
}

bool FaultInjector::FireParam(FaultSite site, int64_t* out_param) {
  return FireParam(site, std::string_view(), out_param);
}

bool FaultInjector::FireParam(FaultSite site, std::string_view tenant,
                              int64_t* out_param) {
  if (!enabled()) return false;
  std::lock_guard<std::mutex> lock(mu_);
  for (const Rule& rule : rules_) {
    if (rule.site != site || !TenantMatches(rule, tenant)) continue;
    *out_param = rule.param;
    return true;
  }
  return false;
}

}  // namespace sagdfn::utils
