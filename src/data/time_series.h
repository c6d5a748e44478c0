#ifndef SAGDFN_DATA_TIME_SERIES_H_
#define SAGDFN_DATA_TIME_SERIES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace sagdfn::data {

/// A multivariate time series: T time steps of N scalar sensor readings at
/// a fixed interval (Definition 1 of the paper with C = 1; covariates such
/// as time-of-day are derived from `steps_per_day` at batching time).
struct TimeSeries {
  std::string name;
  /// [T, N] observations.
  tensor::Tensor values;
  /// Steps per 24 hours (288 for 5-minute data, 24 for hourly).
  int64_t steps_per_day = 288;

  int64_t num_steps() const { return values.dim(0); }
  int64_t num_nodes() const { return values.dim(1); }

  /// Fraction of day in [0, 1) for time step `t`.
  double TimeOfDay(int64_t t) const {
    return static_cast<double>(t % steps_per_day) / steps_per_day;
  }
};

/// Restricts a series to its first `num_nodes` sensors (used for the
/// graph-size study, e.g. London200 from London2000).
TimeSeries SliceNodes(const TimeSeries& series, int64_t num_nodes);

/// Restricts a series to an explicit sensor index set.
TimeSeries SelectNodes(const TimeSeries& series,
                       const std::vector<int64_t>& indices);

}  // namespace sagdfn::data

#endif  // SAGDFN_DATA_TIME_SERIES_H_
