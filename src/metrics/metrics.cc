#include "metrics/metrics.h"

#include <cmath>
#include <limits>
#include <vector>

#include "tensor/simd.h"
#include "tensor/tensor_ops.h"
#include "utils/block_reduce.h"
#include "utils/check.h"
#include "utils/parallel.h"
#include "utils/string_util.h"

namespace sagdfn::metrics {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

/// Per-block partials for |err|, err^2, |err|/|truth| over non-missing
/// entries. MAPE keeps its own count: entries with 0 < |truth| <
/// kMapeTruthFloor still score MAE/RMSE but are excluded from the
/// percentage error, so a near-zero reading cannot blow the ratio up by
/// orders of magnitude. The per-element semantics live in the dispatched
/// masked_err kernel (tensor/simd.h); the block structure is the shared
/// DeterministicBlockReduce contract, so the result is bit-identical for
/// any pool size at a fixed SIMD level.
using Accumulator = tensor::simd::MaskedErrAcc;

Accumulator Accumulate(const tensor::Tensor& pred,
                       const tensor::Tensor& truth) {
  SAGDFN_CHECK(pred.shape() == truth.shape())
      << pred.shape().ToString() << " vs " << truth.shape().ToString();
  const float* pp = pred.data();
  const float* pt = truth.data();
  const auto masked_err = tensor::simd::K().masked_err;

  return utils::DeterministicBlockReduce<Accumulator>(
      pred.size(), Accumulator{},
      [&](int64_t lo, int64_t hi) {
        return masked_err(pp + lo, pt + lo, hi - lo, kMapeTruthFloor);
      },
      [](Accumulator& total, const Accumulator& acc) {
        total.abs += acc.abs;
        total.sq += acc.sq;
        total.ape += acc.ape;
        total.count += acc.count;
        total.ape_count += acc.ape_count;
      });
}

Scores ScoresOf(const Accumulator& acc) {
  Scores s;
  s.mae = acc.count > 0 ? acc.abs / acc.count : kNan;
  s.rmse = acc.count > 0 ? std::sqrt(acc.sq / acc.count) : kNan;
  s.mape = acc.ape_count > 0 ? acc.ape / acc.ape_count : kNan;
  return s;
}

}  // namespace

bool Scores::IsSignal() const {
  return std::isfinite(mae) && std::isfinite(rmse);
}

std::string Scores::ToString() const {
  return utils::FormatDouble(mae, 2) + " " + utils::FormatDouble(rmse, 2) +
         " " + utils::FormatDouble(mape * 100.0, 1) + "%";
}

Scores Evaluate(const tensor::Tensor& pred, const tensor::Tensor& truth) {
  return ScoresOf(Accumulate(pred, truth));
}

std::vector<Scores> EvaluateHorizons(const tensor::Tensor& pred,
                                     const tensor::Tensor& truth,
                                     const std::vector<int64_t>& horizons) {
  SAGDFN_CHECK_EQ(pred.ndim(), 3);
  SAGDFN_CHECK(pred.shape() == truth.shape());
  const int64_t f = pred.dim(1);
  std::vector<Scores> result;
  result.reserve(horizons.size());
  for (int64_t h : horizons) {
    SAGDFN_CHECK_GE(h, 1);
    SAGDFN_CHECK_LE(h, f);
    tensor::Tensor ph = tensor::Slice(pred, 1, h - 1, h);
    tensor::Tensor th = tensor::Slice(truth, 1, h - 1, h);
    result.push_back(Evaluate(ph, th));
  }
  return result;
}

}  // namespace sagdfn::metrics
