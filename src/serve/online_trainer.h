#ifndef SAGDFN_SERVE_ONLINE_TRAINER_H_
#define SAGDFN_SERVE_ONLINE_TRAINER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/trainer.h"
#include "data/scaler.h"
#include "data/window_dataset.h"
#include "serve/tenant_router.h"
#include "tensor/tensor.h"
#include "utils/status.h"

namespace sagdfn::serve {

/// Knobs of the online continual-learning loop.
struct OnlineTrainerOptions {
  /// Fine-tune schedule for each round (short by construction: a round
  /// trains on the tenant's tick buffer, not a full dataset). The seed is
  /// advanced per (tenant, round) so repeated rounds do not replay one
  /// shuffle order.
  core::TrainOptions train;
  /// Directory where candidate checkpoints are written (one file per
  /// round, "<tenant>-online-<round>.ckpt"). Must be writable.
  std::string candidate_dir;
  /// Background cadence of the fine-tune thread started by Start().
  int64_t interval_ms = 200;
};

/// Per-tenant counters of the continual-learning loop (all monotonic).
struct OnlineTenantStats {
  /// Fine-tune rounds attempted (enough frames were buffered).
  int64_t rounds = 0;
  /// Candidates that passed the tenant registry's gate and went live.
  int64_t published = 0;
  /// Candidates the gate rejected (live pointer untouched).
  int64_t rejected = 0;
  /// Rounds that failed before reaching the gate (training fault,
  /// candidate save I/O error). The buffer is kept; the next round
  /// retries.
  int64_t errors = 0;
};

/// Closes the continual-learning loop over a TenantRouter: per tenant it
/// buffers freshly observed frames, periodically fine-tunes a clone of
/// the tenant's LIVE serving snapshot on that buffer (in the
/// deployment's pinned scaled space), writes the result as a candidate
/// checkpoint, and offers it to the tenant's registry gate.
///
/// The trainer never touches serving state directly: the only way its
/// output can reach an engine is through ModelRegistry::Publish, so a
/// candidate that fails any gate — corrupt file, non-finite weights,
/// dry-run failure, held-out MAE regression, injected bad_candidate —
/// leaves every tenant's live pointer exactly where it was. Candidate
/// files are written with the atomic verify-before-publish checkpoint
/// writer, so a fine-tune round killed mid-save (io_fail@save /
/// truncate_ckpt) either leaves no candidate or a torn temp file the
/// registry loader gate rejects; the round reports an error and the
/// frame buffer survives for the retry.
///
/// Buffer sizing follows from the tenant's window spec. A round needs
/// 10 * (history + horizon) + 10 buffered frames: the buffer becomes a
/// chronological 70/10/20 ForecastDataset, and the 10% validation slice
/// must still hold one full window. Each tenant's buffer is a ring of
/// that floor rounded up to whole days; oldest frames are dropped a whole
/// day at a time, so the buffer's time origin stays day-aligned
/// (time-of-day covariates are derived from frame position).
///
/// Threading: Observe() may be called from any thread (e.g. the tick
/// ingest path); FineTuneOnce serializes per trainer. Start() spawns one
/// background thread that sweeps all tracked tenants every interval_ms.
class OnlineTrainer {
 public:
  /// `router` must outlive the trainer.
  OnlineTrainer(TenantRouter* router, OnlineTrainerOptions options);

  /// Stop()s the background thread.
  ~OnlineTrainer();

  OnlineTrainer(const OnlineTrainer&) = delete;
  OnlineTrainer& operator=(const OnlineTrainer&) = delete;

  /// Registers a tenant for continual learning. `scaler` is the
  /// deployment's fitted scaler (serving I/O lives in its scaled space —
  /// fine-tune datasets are built on it, never refit). `window` is the
  /// tenant's history/horizon spec; `steps_per_day` the tick resolution.
  /// Frames are assumed to start at a day boundary (tick 0 = midnight),
  /// matching the simulator replays. InvalidArgument on duplicates or an
  /// unfitted scaler.
  utils::Status Track(const std::string& tenant,
                      const data::StandardScaler& scaler,
                      data::WindowSpec window, int64_t steps_per_day);

  /// Deregisters a tenant and drops its buffer. NotFound if untracked.
  utils::Status Untrack(const std::string& tenant);

  /// Feeds one freshly observed frame (`frame` [N], raw units) into the
  /// tenant's buffer. Ignored (NotFound) for untracked tenants.
  utils::Status Observe(const std::string& tenant,
                        const tensor::Tensor& frame);

  /// Frames currently buffered for `tenant` (-1 if untracked).
  int64_t BufferedFrames(const std::string& tenant) const;

  /// Runs one fine-tune round for `tenant` right now:
  ///   FailedPrecondition — fewer frames than the round floor;
  ///   NotFound           — tenant untracked, or no live model to clone;
  ///   other non-OK       — training/save error, or the gate's rejection
  ///                        status (stats tell the two apart).
  /// OK means the candidate passed the gate and is live for this tenant.
  utils::Status FineTuneOnce(const std::string& tenant);

  /// Starts the background sweep thread (idempotent).
  void Start();

  /// Stops and joins it (idempotent; called by the destructor).
  void Stop();

  /// Counters for one tenant (zeros if untracked).
  OnlineTenantStats stats(const std::string& tenant) const;

 private:
  struct TenantState {
    data::StandardScaler scaler;
    data::WindowSpec window;
    int64_t steps_per_day = 0;
    std::deque<std::vector<float>> frames;  // each [N], raw units
    int64_t num_nodes = -1;                 // fixed by the first frame
    int64_t round = 0;
    OnlineTenantStats stats;
    /// Serializes FineTuneOnce per tenant (training runs outside mu_).
    std::mutex tune_mu;
  };

  std::shared_ptr<TenantState> FindState(const std::string& tenant) const;
  int64_t RoundFloor(const TenantState& state) const;
  int64_t RingCap(const TenantState& state) const;
  void SweepLoop();

  TenantRouter* router_;
  OnlineTrainerOptions options_;

  mutable std::mutex mu_;  // guards tenants_ and each state's data fields
  std::map<std::string, std::shared_ptr<TenantState>> tenants_;

  std::mutex thread_mu_;
  std::condition_variable stop_cv_;
  bool stop_ = false;
  std::thread sweeper_;
};

}  // namespace sagdfn::serve

#endif  // SAGDFN_SERVE_ONLINE_TRAINER_H_
