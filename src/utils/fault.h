#ifndef SAGDFN_UTILS_FAULT_H_
#define SAGDFN_UTILS_FAULT_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "utils/rng.h"
#include "utils/status.h"

namespace sagdfn::utils {

/// Where a fault can be injected. Each site is probed by exactly one
/// component of the training runtime (core/trainer.cc and
/// nn/serialization.cc) or the serving runtime (src/serve), so a spec
/// term maps to one well-defined failure.
enum class FaultSite {
  kLoss = 0,      // nan_loss:      poison the training loss before the guard
  kGrad,          // nan_grad:      poison parameter gradients after backward
  kCrash,         // crash:         abort the training loop after a checkpoint
  kSaveFail,      // io_fail@save:  checkpoint write reports an I/O error
  kLoadFail,      // io_fail@load:  checkpoint read reports an I/O error
  kTruncate,      // truncate_ckpt: checkpoint bytes cut before publication
  kBadCandidate,  // bad_candidate: registry quality gate fails a candidate
  kNanForecast,   // nan_forecast:  poison a served micro-batch's forecasts
  kSlowBatch,     // slow_batch:    stall a served micro-batch's compute
  kSwapRace,      // swap_race:     widen the snapshot->compute race window
};

/// Number of distinct FaultSite values (for counter arrays).
inline constexpr int kNumFaultSites = 10;

/// Deterministic fault-injection harness for the fault-tolerant training
/// runtime. Configured from a spec string (usually the SAGDFN_FAULT_SPEC
/// environment variable) of comma- or semicolon-separated terms:
///
///   nan_loss@iter=7     poison the loss at global iteration 7 (once)
///   nan_grad@iter=7     poison the gradients at iteration 7 (once)
///   nan_grad@prob=0.25  poison gradients with probability 0.25 per batch
///   crash@epoch=3       abort Train() right after epoch 3's checkpoint
///   io_fail@save=2      the 2nd checkpoint save fails like a full disk
///   io_fail@load=1      the 1st checkpoint load fails like a read error
///   truncate_ckpt       truncate the 1st checkpoint's bytes pre-publish
///   truncate_ckpt@save=2  ... the 2nd checkpoint's bytes
///   bad_candidate       fail the 1st registry publish's quality gate
///   bad_candidate@publish=2  ... the 2nd publish's gate
///   nan_forecast@prob=0.5  poison a micro-batch's forecast with NaN
///   nan_forecast@batch=3   ... exactly the 3rd micro-batch (1-based)
///   slow_batch@us=500   stall every micro-batch's compute by 500 us
///   swap_race           sleep between model-snapshot grab and compute
///   swap_race@us=2000   ... with an explicit window width
///   seed=99             seed for the probabilistic (@prob) terms
///
/// Serve-side terms additionally accept a `@tenant=ID` qualifier so a
/// multi-tenant process can fault exactly one tenant's lane:
///
///   nan_forecast@batch=1@tenant=carpark   only carpark's 1st micro-batch
///   slow_batch@us=500@tenant=london2000   stall only london2000's batches
///   bad_candidate@publish=1@tenant=newyork2000
///
/// A tenant-qualified rule fires only on probes carrying that tenant id;
/// an unqualified rule fires on every probe of its site (including
/// tenant-less single-tenant probes). Occurrence counting (`@save=N`,
/// `@publish=N`, `@batch=N`) is per rule, so `@publish=1@tenant=X`
/// means X's first publish, not the process's first.
///
/// Indexed terms (@iter/@epoch/@save/@load) fire exactly once;
/// probabilistic terms fire on a seeded Bernoulli draw per probe, so a
/// given (spec, seed) always yields the same fault sequence. An empty
/// spec disables every probe at near-zero cost.
class FaultInjector {
 public:
  /// Process-wide injector, shared by the trainer and serialization. On
  /// first access it configures itself from SAGDFN_FAULT_SPEC (a parse
  /// error aborts: a mistyped fault spec should never pass silently).
  static FaultInjector& Global();

  FaultInjector() = default;
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Replaces the active spec (and resets all counters/one-shot latches).
  /// An empty spec disables injection; a spec that fails to parse also
  /// disables injection (stale rules are never left armed) and returns
  /// the parse error.
  Status Configure(const std::string& spec);

  /// Configures from the SAGDFN_FAULT_SPEC environment variable (absent
  /// or empty disables injection).
  Status ConfigureFromEnv();

  /// Disables injection and clears counters, latches, and the rules.
  void Reset();

  /// True if any rule is active.
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Probes an index-triggered site (kLoss/kGrad by iteration, kCrash by
  /// epoch). Returns true if a fault fires now; one-shot rules latch.
  bool Fire(FaultSite site, int64_t index);

  /// Probes an occurrence-counted site (kSaveFail/kLoadFail/kTruncate/
  /// kBadCandidate/kNanForecast@batch): each matching rule advances its
  /// own 1-based counter, and a rule with index N fires on the Nth probe
  /// it matches. The tenant-less overload matches only unqualified rules.
  bool FireCounted(FaultSite site);
  bool FireCounted(FaultSite site, std::string_view tenant);

  /// Probes a parameterized always-on site (kSlowBatch/kSwapRace).
  /// Returns true when a rule for the site matches this probe's tenant
  /// and writes the rule's parameter (microseconds) to `*out_param`.
  bool FireParam(FaultSite site, int64_t* out_param);
  bool FireParam(FaultSite site, std::string_view tenant,
                 int64_t* out_param);

 private:
  struct Rule {
    FaultSite site;
    int64_t index = -1;   // trigger index; -1 for probabilistic rules
    double prob = 0.0;    // used when index < 0
    int64_t param = 0;    // payload for parameterized sites (microseconds)
    bool fired = false;   // one-shot latch for indexed rules
    int64_t seen = 0;     // per-rule probe count for occurrence sites
    std::string tenant;   // empty = matches every probe of the site
    std::string term;     // original spec term, for log lines
  };

  static Status ParseSpec(const std::string& spec,
                          std::vector<Rule>* out_rules, uint64_t* out_seed);
  /// True when `rule` applies to a probe carrying `tenant` (empty for
  /// tenant-less probes): unqualified rules match everything,
  /// tenant-qualified rules only their own tenant's probes.
  static bool TenantMatches(const Rule& rule, std::string_view tenant);
  bool FireLocked(FaultSite site, int64_t index, std::string_view tenant);

  mutable std::mutex mu_;
  std::atomic<bool> enabled_{false};
  std::vector<Rule> rules_;
  uint64_t seed_ = 42;
  Rng rng_{42};
};

}  // namespace sagdfn::utils

#endif  // SAGDFN_UTILS_FAULT_H_
