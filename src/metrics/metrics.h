#ifndef SAGDFN_METRICS_METRICS_H_
#define SAGDFN_METRICS_METRICS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace sagdfn::metrics {

/// Readings with 0 < |truth| below this floor are excluded from MAPE (but
/// still score MAE/RMSE): dividing by a near-zero truth would report
/// million-percent errors that say nothing about forecast quality. The
/// value is far below any physical reading in the paper's datasets
/// (speeds in km/h, occupancy counts) yet far above float noise.
inline constexpr double kMapeTruthFloor = 1e-3;

/// The paper's three evaluation metrics at one horizon.
///
/// NaN contract: when every entry of a window is masked (truth == 0, the
/// METR-LA missing-reading convention) there is no signal to score, and
/// each affected metric is NaN — never 0.0, which would read as a perfect
/// forecast. MAPE is additionally NaN when every unmasked truth is below
/// kMapeTruthFloor. Consumers (Trainer early stopping, benches) must
/// treat NaN as "no signal", not as an improvement.
struct Scores {
  double mae = 0.0;
  double rmse = 0.0;
  /// Fraction (not percent); multiply by 100 for the paper's format.
  double mape = 0.0;

  /// True when MAE/RMSE carry signal (at least one unmasked entry).
  bool IsSignal() const;

  /// "MAE RMSE MAPE%" with the paper's typical precision.
  std::string ToString() const;
};

/// The three metrics in a single parallel pass over the tensors
/// (deterministic fixed-block reduction; see utils/parallel.h). MAE is
/// the mean |pred - truth| over entries where truth != 0 (the METR-LA
/// convention treating 0 as a missing reading), RMSE the root mean
/// squared error over the same entries, and MAPE (a fraction) skips
/// |truth| < kMapeTruthFloor; see Scores for the NaN contract.
Scores Evaluate(const tensor::Tensor& pred, const tensor::Tensor& truth);

/// Per-horizon evaluation. `pred` and `truth` are [S, f, N] (S evaluation
/// windows); `horizons` lists 1-based horizon steps (e.g. {3, 6, 12}).
/// Each returned entry aggregates that single horizon step, matching the
/// paper's "Horizon 3 / 6 / 12" columns.
std::vector<Scores> EvaluateHorizons(const tensor::Tensor& pred,
                                     const tensor::Tensor& truth,
                                     const std::vector<int64_t>& horizons);

}  // namespace sagdfn::metrics

#endif  // SAGDFN_METRICS_METRICS_H_
