#include "data/time_series.h"

#include <numeric>

#include "tensor/tensor_ops.h"
#include "utils/check.h"

namespace sagdfn::data {

TimeSeries SliceNodes(const TimeSeries& series, int64_t num_nodes) {
  SAGDFN_CHECK_GT(num_nodes, 0);
  SAGDFN_CHECK_LE(num_nodes, series.num_nodes());
  std::vector<int64_t> indices(num_nodes);
  std::iota(indices.begin(), indices.end(), 0);
  return SelectNodes(series, indices);
}

TimeSeries SelectNodes(const TimeSeries& series,
                       const std::vector<int64_t>& indices) {
  TimeSeries out;
  out.name = series.name;
  out.steps_per_day = series.steps_per_day;
  out.values = tensor::IndexSelect(series.values, 1, indices);
  return out;
}

}  // namespace sagdfn::data
