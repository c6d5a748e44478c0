#ifndef SAGDFN_DATA_WINDOW_DATASET_H_
#define SAGDFN_DATA_WINDOW_DATASET_H_

#include <cstdint>
#include <vector>

#include "data/scaler.h"
#include "data/time_series.h"
#include "utils/rng.h"

namespace sagdfn::data {

/// Which chronological partition a window belongs to.
enum class Split { kTrain, kValidation, kTest };

/// Input channels of every window: the z-scored reading and its
/// time-of-day fraction (the paper's inputs).
inline constexpr int64_t kInputChannels = 2;

/// History/horizon lengths (h and f in the paper).
struct WindowSpec {
  int64_t history = 12;
  int64_t horizon = 12;
};

/// One minibatch of forecasting samples.
struct Batch {
  /// Scaled inputs: [B, h, N, kInputChannels] where channel 0 is the
  /// z-scored reading and channel 1 the time-of-day fraction.
  tensor::Tensor x;
  /// Targets in the original (unscaled) units: [B, f, N].
  tensor::Tensor y;
  /// Scaled targets: [B, f, N] (training loss is computed in scaled space).
  tensor::Tensor y_scaled;
  /// Time-of-day fraction of each target step: [B, f]. A known future
  /// covariate fed to autoregressive decoders.
  tensor::Tensor future_tod;

  int64_t batch_size() const { return x.dim(0); }
};

/// Sliding-window forecasting dataset over a TimeSeries with chronological
/// 70/10/20 train/val/test splits (the paper's protocol). The scaler is
/// fitted on the training portion only. Windows never cross split
/// boundaries.
class ForecastDataset {
 public:
  /// `train_frac` + `val_frac` must be < 1; the remainder is test.
  ForecastDataset(TimeSeries series, WindowSpec spec,
                  double train_frac = 0.7, double val_frac = 0.1);

  /// Same splits, but normalizes with `pinned_scaler` instead of fitting
  /// one on the training slice. The online fine-tuner pins the original
  /// deployment's scaler here: serving requests and forecasts live in
  /// that scaled space, so a buffer of freshly arrived ticks must be
  /// scaled with the same mean/std or the fine-tuned weights would learn
  /// a shifted input distribution.
  ForecastDataset(TimeSeries series, WindowSpec spec,
                  const StandardScaler& pinned_scaler,
                  double train_frac = 0.7, double val_frac = 0.1);

  /// Number of complete windows in a split.
  int64_t NumSamples(Split split) const;

  /// Number of batches of `batch_size` (last partial batch included).
  int64_t NumBatches(Split split, int64_t batch_size) const;

  /// Assembles the `batch_index`-th batch in sequence order.
  Batch GetBatch(Split split, int64_t batch_index, int64_t batch_size) const;

  /// Assembles a batch from explicit window offsets within the split.
  Batch GetBatchAt(Split split, const std::vector<int64_t>& offsets) const;

  /// Shuffled window offsets for one training epoch.
  std::vector<int64_t> ShuffledTrainOrder(utils::Rng& rng) const;

  const StandardScaler& scaler() const { return scaler_; }
  const TimeSeries& series() const { return series_; }
  const WindowSpec& spec() const { return spec_; }
  int64_t num_nodes() const { return series_.num_nodes(); }

  /// First time step after the training region (classical baselines fit
  /// directly on raw training steps [0, TrainEndStep())).
  int64_t TrainEndStep() const { return val_.begin; }

  /// Scaled (z-scored) full series [T, N].
  const tensor::Tensor& scaled_values() const { return scaled_values_; }

 private:
  /// First time index of split windows and count of windows in the split.
  struct Range {
    int64_t begin = 0;
    int64_t count = 0;
  };
  Range RangeOf(Split split) const;

  TimeSeries series_;
  WindowSpec spec_;
  StandardScaler scaler_;
  tensor::Tensor scaled_values_;  // [T, N]
  Range train_;
  Range val_;
  Range test_;
};

}  // namespace sagdfn::data

#endif  // SAGDFN_DATA_WINDOW_DATASET_H_
