#include "data/window_dataset.h"

#include <algorithm>
#include <numeric>

#include "tensor/tensor_ops.h"
#include "utils/check.h"

namespace sagdfn::data {

ForecastDataset::ForecastDataset(TimeSeries series, WindowSpec spec,
                                 double train_frac, double val_frac)
    : series_(std::move(series)), spec_(spec) {
  SAGDFN_CHECK_GT(spec_.history, 0);
  SAGDFN_CHECK_GT(spec_.horizon, 0);
  SAGDFN_CHECK_GT(train_frac, 0.0);
  SAGDFN_CHECK_GT(val_frac, 0.0);
  SAGDFN_CHECK_LT(train_frac + val_frac, 1.0);

  const int64_t total = series_.num_steps();
  const int64_t window = spec_.history + spec_.horizon;
  SAGDFN_CHECK_GE(total, 3 * window)
      << "series too short for split: " << total << " steps";

  const int64_t train_end = static_cast<int64_t>(total * train_frac);
  const int64_t val_end =
      static_cast<int64_t>(total * (train_frac + val_frac));

  train_ = {0, train_end - window + 1};
  val_ = {train_end, val_end - train_end - window + 1};
  test_ = {val_end, total - val_end - window + 1};
  SAGDFN_CHECK_GT(train_.count, 0);
  SAGDFN_CHECK_GT(val_.count, 0);
  SAGDFN_CHECK_GT(test_.count, 0);

  scaler_.Fit(tensor::Slice(series_.values, 0, 0, train_end));
  scaled_values_ = scaler_.Transform(series_.values);
}

ForecastDataset::ForecastDataset(TimeSeries series, WindowSpec spec,
                                 const StandardScaler& pinned_scaler,
                                 double train_frac, double val_frac)
    : ForecastDataset(std::move(series), spec, train_frac, val_frac) {
  SAGDFN_CHECK(pinned_scaler.fitted())
      << "pinned scaler must be fitted before constructing a dataset on it";
  scaler_ = pinned_scaler;
  scaled_values_ = scaler_.Transform(series_.values);
}

ForecastDataset::Range ForecastDataset::RangeOf(Split split) const {
  switch (split) {
    case Split::kTrain:
      return train_;
    case Split::kValidation:
      return val_;
    case Split::kTest:
      return test_;
  }
  SAGDFN_CHECK(false);
  return {};
}

int64_t ForecastDataset::NumSamples(Split split) const {
  return RangeOf(split).count;
}

int64_t ForecastDataset::NumBatches(Split split, int64_t batch_size) const {
  SAGDFN_CHECK_GT(batch_size, 0);
  return (NumSamples(split) + batch_size - 1) / batch_size;
}

Batch ForecastDataset::GetBatch(Split split, int64_t batch_index,
                                int64_t batch_size) const {
  const int64_t n = NumSamples(split);
  const int64_t start = batch_index * batch_size;
  SAGDFN_CHECK_LT(start, n);
  const int64_t end = std::min(start + batch_size, n);
  std::vector<int64_t> offsets(end - start);
  std::iota(offsets.begin(), offsets.end(), start);
  return GetBatchAt(split, offsets);
}

Batch ForecastDataset::GetBatchAt(Split split,
                                  const std::vector<int64_t>& offsets) const {
  const Range range = RangeOf(split);
  const int64_t b = static_cast<int64_t>(offsets.size());
  SAGDFN_CHECK_GT(b, 0);
  const int64_t h = spec_.history;
  const int64_t f = spec_.horizon;
  const int64_t n = series_.num_nodes();

  const int64_t c = kInputChannels;
  Batch batch;
  batch.x = tensor::Tensor::Zeros(tensor::Shape({b, h, n, c}));
  batch.y = tensor::Tensor::Zeros(tensor::Shape({b, f, n}));
  batch.y_scaled = tensor::Tensor::Zeros(tensor::Shape({b, f, n}));
  batch.future_tod = tensor::Tensor::Zeros(tensor::Shape({b, f}));

  const float* raw = series_.values.data();
  const float* scaled = scaled_values_.data();
  float* px = batch.x.data();
  float* py = batch.y.data();
  float* pys = batch.y_scaled.data();

  for (int64_t bi = 0; bi < b; ++bi) {
    SAGDFN_CHECK_GE(offsets[bi], 0);
    SAGDFN_CHECK_LT(offsets[bi], range.count);
    const int64_t t0 = range.begin + offsets[bi];
    for (int64_t t = 0; t < h; ++t) {
      const int64_t ts = t0 + t;
      const float tod = static_cast<float>(series_.TimeOfDay(ts));
      for (int64_t i = 0; i < n; ++i) {
        const int64_t base = ((bi * h + t) * n + i) * c;
        px[base] = scaled[ts * n + i];
        px[base + 1] = tod;
      }
    }
    for (int64_t t = 0; t < f; ++t) {
      const int64_t ts = t0 + h + t;
      batch.future_tod.data()[bi * f + t] =
          static_cast<float>(series_.TimeOfDay(ts));
      for (int64_t i = 0; i < n; ++i) {
        py[(bi * f + t) * n + i] = raw[ts * n + i];
        pys[(bi * f + t) * n + i] = scaled[ts * n + i];
      }
    }
  }
  return batch;
}

std::vector<int64_t> ForecastDataset::ShuffledTrainOrder(
    utils::Rng& rng) const {
  return rng.Permutation(train_.count);
}

}  // namespace sagdfn::data
