#ifndef SAGDFN_SERVE_REGISTRY_H_
#define SAGDFN_SERVE_REGISTRY_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "serve/engine.h"
#include "serve/frozen_model.h"
#include "tensor/tensor.h"
#include "utils/status.h"

namespace sagdfn::serve {

/// Quality-gate and health-probe knobs of the ModelRegistry.
struct RegistryOptions {
  // -- Quality gate (pre-swap) ----------------------------------------------

  /// Held-out evaluation windows for the metric gate and the plan
  /// dry-run: `eval_x` [S, h, N, C], `eval_tod` [S, f], `eval_y`
  /// [S, f, N] in the same space as FrozenModel::Predict's output
  /// (callers typically pass scaled targets). Empty tensors disable the
  /// metric gate; the dry-run then uses a zero window.
  tensor::Tensor eval_x;
  tensor::Tensor eval_tod;
  tensor::Tensor eval_y;
  /// A candidate passes the metric gate when its held-out MAE is at most
  /// live_mae * (1 + max_mae_regression). A candidate whose MAE is NaN
  /// (no signal) always fails; a live model without signal disables the
  /// relative comparison for that publish.
  double max_mae_regression = 0.05;

  // -- Health probes (post-swap probation) ----------------------------------

  /// A freshly swapped-in model is on probation until this many requests
  /// have completed on it; any tripped probe inside the window rolls the
  /// engine back to the previous snapshot. 0 disables probation.
  int64_t health_window = 64;
  /// Non-finite forecasts tolerated inside the probation window before
  /// rollback (the engine already fails those requests individually).
  int64_t max_nonfinite = 0;
  /// Relative latency probe: rollback when the probation model's p99
  /// batch-compute time exceeds the pre-swap baseline p99 times this
  /// factor and at least two probation batches do (a lone outlier batch
  /// never trips it). Needs `min_health_batches` probation samples and a
  /// recorded baseline; <= 0 disables.
  double p99_regression_factor = 3.0;
  /// Absolute latency probe: rollback as soon as one probation batch's
  /// compute time exceeds this many microseconds. 0 disables.
  int64_t max_batch_compute_us = 0;
  /// Minimum probation batches before the relative p99 probe can fire
  /// (a single cold-cache batch should not trigger a rollback).
  int64_t min_health_batches = 4;

  // -- Candidate intake -----------------------------------------------------

  /// Directory scanned for candidate checkpoints (*.ckpt). Empty disables
  /// scanning; Publish() still works.
  std::string watch_dir;

  /// Tenant id owning this registry in a multi-tenant process. Empty
  /// keeps the legacy process-global names (registry.*); when set,
  /// counters are namespaced registry.<tenant>.*, every JSONL decision
  /// event carries a "tenant" field, and the bad_candidate fault probe
  /// carries the tenant id so a `@tenant=ID`-qualified spec fails only
  /// this registry's publishes. Without this, two registries watching
  /// different directories would interleave indistinguishable
  /// registry.publish/reject records into one sink.
  std::string tenant;
};

/// Counters of one registry's lifetime (all monotonic).
struct RegistryStats {
  /// Candidates that passed the gate and were swapped into the engine.
  int64_t published = 0;
  /// Candidates rejected by the quality gate (load failure, non-finite
  /// weights, dry-run failure, metric regression, injected bad_candidate).
  int64_t rejected = 0;
  /// Health-probe rollbacks to the previous snapshot.
  int64_t rollbacks = 0;
  /// Probation windows completed without a tripped probe.
  int64_t health_passes = 0;
  /// ScanOnce() passes (manual or from the watcher thread).
  int64_t scans = 0;
};

/// Hot-swap model registry: the glue between verify-before-publish v2
/// checkpoints and the serving engine.
///
/// Lifecycle of a candidate (Publish or watched-directory pickup):
///   1. gate: load through the hardened checkpoint loader (any corrupt /
///      truncated / mismatched file is rejected here),
///   2. gate: finite-weights audit over every parameter and buffer,
///   3. gate: plan dry-run — compile the rollout plan and run one window,
///      rejecting a candidate whose forecast is non-finite,
///   4. gate: held-out metric threshold vs the live model (when eval
///      windows are configured),
///   5. swap: InferenceEngine::SwapModel — atomic, in-flight batches
///      finish on the old snapshot,
///   6. probation: for the next health_window requests the registry
///      watches batch reports (installed as the engine's BatchObserver);
///      a tripped probe (non-finite forecasts, absolute or relative
///      latency regression) swaps the previous snapshot back in.
///
/// A rejected candidate never changes the engine's live pointer — the
/// swap is the last step, after every gate has passed.
///
/// Telemetry: counters registry.{published,rejected,rollbacks,
/// health_passes} (registry.<tenant>.* when RegistryOptions::tenant is
/// set), plus one "registry.publish" / "registry.reject" /
/// "registry.rollback" event per decision when a JSONL sink is open;
/// multi-tenant decisions carry a "tenant" field.
///
/// Thread safety: Publish/ScanOnce may be called from any thread
/// (publishes are serialized); the health probe runs on engine worker
/// threads via the batch observer. The registry must outlive nothing —
/// it unhooks its observer from the engine on destruction, and the
/// engine must outlive the registry.
class ModelRegistry {
 public:
  /// `engine` must outlive the registry. Installs the registry as the
  /// engine's batch observer.
  ModelRegistry(InferenceEngine* engine, RegistryOptions options);

  /// Stops the watcher thread and unhooks the batch observer.
  ~ModelRegistry();

  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  /// Runs the full quality gate on the checkpoint at `path` and, on
  /// success, swaps it into the engine and arms the probation window.
  /// On failure the live model is untouched and the status says which
  /// gate tripped.
  utils::Status Publish(const std::string& path);

  /// Scans watch_dir once for new or modified *.ckpt files (processed in
  /// name order; a file is retried when its size or mtime changes) and
  /// publishes each. Returns the number of accepted candidates.
  int64_t ScanOnce();

  /// Starts a background thread calling ScanOnce() every `interval_ms`.
  /// No-op when watch_dir is empty or a watcher is already running.
  void StartWatching(int64_t interval_ms);

  /// Stops and joins the watcher thread (idempotent).
  void StopWatching();

  RegistryStats stats() const;

  /// True while a swapped-in model is still inside its probation window.
  bool on_probation() const;

 private:
  /// Loads + gates a candidate; fills `out` only when every gate passes.
  utils::Status ValidateCandidate(const std::string& path,
                                  std::shared_ptr<const FrozenModel>* out);

  /// Held-out MAE of `model` over the configured eval windows (NaN when
  /// no eval windows are configured).
  double HeldOutMae(const FrozenModel& model) const;

  /// The engine's per-batch callback (runs on worker threads).
  void OnBatch(const BatchReport& report);

  /// Emits one tenant-tagged JSONL decision record (no-op without a
  /// sink).
  void EmitDecision(const char* event, const std::string& path,
                    const std::string& detail) const;

  /// Rolls the engine back to previous_ (caller holds state_mu_).
  void RollbackLocked(const std::string& reason);

  static double P99Us(const std::deque<double>& samples_us);

  /// Identity of one candidate file version for watch-dir dedup.
  /// (size, mtime) alone misses a candidate rewritten with identical
  /// size within the filesystem's mtime granularity — exactly what a
  /// fixed-architecture re-publish produces — so the content
  /// fingerprint (FNV-1a over the size plus the first and last 4 KiB
  /// of payload) is part of the key.
  struct CandidateVersion {
    uint64_t size = 0;
    int64_t mtime = 0;
    uint64_t fingerprint = 0;
    bool operator==(const CandidateVersion&) const = default;
    bool operator<(const CandidateVersion& o) const {
      return std::tie(size, mtime, fingerprint) <
             std::tie(o.size, o.mtime, o.fingerprint);
    }
  };

  /// The content fingerprint of `path` (0 on read failure — treated as
  /// a distinct version so an unreadable-then-fixed file is retried).
  static uint64_t Fingerprint(const std::string& path);

  InferenceEngine* engine_;
  RegistryOptions options_;

  /// Counter names, prefixed with the tenant id once at construction.
  struct TelemetryNames {
    std::string published;
    std::string rejected;
    std::string rollbacks;
    std::string health_passes;
  };
  TelemetryNames names_;

  /// Serializes Publish() callers.
  std::mutex publish_mu_;

  /// Serializes ScanOnce() callers; guards processed_.
  std::mutex scan_mu_;

  /// Guards live_/previous_/probation state, stats_, and the compute-time
  /// rings. Taken by OnBatch on every micro-batch — keep hold times short.
  mutable std::mutex state_mu_;
  std::shared_ptr<const FrozenModel> live_;
  std::shared_ptr<const FrozenModel> previous_;
  RegistryStats stats_;

  // Probation window state (valid while probation_model_ != nullptr).
  const FrozenModel* probation_model_ = nullptr;
  int64_t probation_requests_ = 0;
  int64_t probation_nonfinite_ = 0;
  std::deque<double> probation_compute_us_;
  double baseline_p99_us_ = 0.0;

  /// Recent batch-compute times of the live (non-probation) model, the
  /// baseline for the relative p99 probe. Bounded ring.
  std::deque<double> live_compute_us_;

  /// Watched-directory bookkeeping: path -> (size, mtime ticks, content
  /// fingerprint) of the last version processed (accepted or rejected).
  std::map<std::string, CandidateVersion> processed_;

  // Watcher thread machinery.
  std::mutex watch_mu_;
  std::condition_variable watch_cv_;
  bool watch_stop_ = false;
  std::thread watcher_;
};

}  // namespace sagdfn::serve

#endif  // SAGDFN_SERVE_REGISTRY_H_
