#include "baselines/classical.h"

#include <algorithm>
#include <cmath>

#include "baselines/linalg.h"
#include "utils/check.h"
#include "utils/rng.h"
#include "utils/stopwatch.h"

namespace sagdfn::baselines {
namespace {

/// Runs `predict_window` over every evaluated window of `split` and
/// assembles [S, f, N] unscaled predictions. `predict_window` receives the
/// batch and the window index within the batch and writes f * N floats.
template <typename Fn>
tensor::Tensor PredictWindows(const data::ForecastDataset& dataset,
                              data::Split split, int64_t max_windows,
                              Fn&& predict_window) {
  int64_t windows = dataset.NumSamples(split);
  if (max_windows > 0) windows = std::min(windows, max_windows);
  const int64_t f = dataset.spec().horizon;
  const int64_t n = dataset.num_nodes();
  tensor::Tensor all =
      tensor::Tensor::Zeros(tensor::Shape({windows, f, n}));
  constexpr int64_t kChunk = 64;
  int64_t written = 0;
  while (written < windows) {
    const int64_t take = std::min(kChunk, windows - written);
    std::vector<int64_t> offsets(take);
    for (int64_t i = 0; i < take; ++i) offsets[i] = written + i;
    data::Batch batch = dataset.GetBatchAt(split, offsets);
    for (int64_t bi = 0; bi < take; ++bi) {
      predict_window(batch, bi, all.data() + (written + bi) * f * n);
    }
    written += take;
  }
  return all;
}

}  // namespace

// ---------------------------------------------------------------------------
// HistoricalAverage

void HistoricalAverage::Fit(const data::ForecastDataset& dataset,
                            const FitOptions& options) {
  (void)options;
  utils::Stopwatch watch;
  const data::TimeSeries& series = dataset.series();
  steps_per_day_ = series.steps_per_day;
  const int64_t n = series.num_nodes();
  const int64_t train_end = dataset.TrainEndStep();

  means_ = tensor::Tensor::Zeros(tensor::Shape({steps_per_day_, n}));
  std::vector<int64_t> counts(steps_per_day_, 0);
  const float* v = series.values.data();
  float* m = means_.data();
  for (int64_t t = 0; t < train_end; ++t) {
    const int64_t slot = t % steps_per_day_;
    ++counts[slot];
    for (int64_t i = 0; i < n; ++i) m[slot * n + i] += v[t * n + i];
  }
  for (int64_t slot = 0; slot < steps_per_day_; ++slot) {
    if (counts[slot] == 0) continue;
    const float inv = 1.0f / counts[slot];
    for (int64_t i = 0; i < n; ++i) m[slot * n + i] *= inv;
  }
  fit_seconds_ = watch.ElapsedSeconds();
}

tensor::Tensor HistoricalAverage::Predict(
    const data::ForecastDataset& dataset, data::Split split,
    int64_t max_windows) {
  SAGDFN_CHECK_GT(steps_per_day_, 0) << "Fit() before Predict()";
  const int64_t f = dataset.spec().horizon;
  const int64_t n = dataset.num_nodes();
  const float* m = means_.data();
  return PredictWindows(
      dataset, split, max_windows,
      [&](const data::Batch& batch, int64_t bi, float* out) {
        const float* tod = batch.future_tod.data();
        for (int64_t t = 0; t < f; ++t) {
          int64_t slot = static_cast<int64_t>(
              std::lround(tod[bi * f + t] * steps_per_day_));
          slot = ((slot % steps_per_day_) + steps_per_day_) % steps_per_day_;
          for (int64_t i = 0; i < n; ++i) {
            out[t * n + i] = m[slot * n + i];
          }
        }
      });
}

// ---------------------------------------------------------------------------
// ArForecaster

ArForecaster::ArForecaster(int64_t order, double ridge)
    : order_(order), ridge_(ridge) {
  SAGDFN_CHECK_GT(order, 0);
}

void ArForecaster::Fit(const data::ForecastDataset& dataset,
                       const FitOptions& options) {
  (void)options;
  utils::Stopwatch watch;
  const tensor::Tensor& scaled = dataset.scaled_values();
  const int64_t train_end = dataset.TrainEndStep();
  const int64_t n = dataset.num_nodes();
  const int64_t p = std::min(order_, dataset.spec().history);
  order_ = p;
  num_nodes_ = n;
  const int64_t dim = p + 1;  // lags + intercept
  coef_.assign(n * dim, 0.0);

  const float* v = scaled.data();
  std::vector<double> gram(dim * dim);
  std::vector<double> rhs(dim);
  std::vector<double> x(dim);
  for (int64_t node = 0; node < n; ++node) {
    std::fill(gram.begin(), gram.end(), 0.0);
    std::fill(rhs.begin(), rhs.end(), 0.0);
    for (int64_t t = p; t < train_end; ++t) {
      for (int64_t l = 0; l < p; ++l) x[l] = v[(t - 1 - l) * n + node];
      x[p] = 1.0;
      const double y = v[t * n + node];
      for (int64_t a = 0; a < dim; ++a) {
        rhs[a] += x[a] * y;
        for (int64_t b = 0; b < dim; ++b) gram[a * dim + b] += x[a] * x[b];
      }
    }
    std::vector<double> w = RidgeSolve(gram, dim, rhs, 1, ridge_);
    std::copy(w.begin(), w.end(), coef_.begin() + node * dim);
  }
  fit_seconds_ = watch.ElapsedSeconds();
}

tensor::Tensor ArForecaster::Predict(const data::ForecastDataset& dataset,
                                     data::Split split,
                                     int64_t max_windows) {
  SAGDFN_CHECK_EQ(num_nodes_, dataset.num_nodes()) << "Fit() first";
  const int64_t f = dataset.spec().horizon;
  const int64_t h = dataset.spec().history;
  const int64_t n = dataset.num_nodes();
  const int64_t p = order_;
  const int64_t dim = p + 1;
  const int64_t c = data::kInputChannels;
  const data::StandardScaler& scaler = dataset.scaler();

  return PredictWindows(
      dataset, split, max_windows,
      [&](const data::Batch& batch, int64_t bi, float* out) {
        const float* x = batch.x.data();
        std::vector<double> lags(p);
        for (int64_t node = 0; node < n; ++node) {
          // lags[0] = most recent scaled observation.
          for (int64_t l = 0; l < p; ++l) {
            lags[l] = x[((bi * h + (h - 1 - l)) * n + node) * c];
          }
          const double* w = coef_.data() + node * dim;
          for (int64_t t = 0; t < f; ++t) {
            double pred = w[p];
            for (int64_t l = 0; l < p; ++l) pred += w[l] * lags[l];
            for (int64_t l = p - 1; l > 0; --l) lags[l] = lags[l - 1];
            lags[0] = pred;
            out[t * n + node] = scaler.mean() +
                                scaler.stddev() * static_cast<float>(pred);
          }
        }
      });
}

int64_t ArForecaster::ParameterCount() const {
  return static_cast<int64_t>(coef_.size());
}

// ---------------------------------------------------------------------------
// VarForecaster

VarForecaster::VarForecaster(int64_t order, double ridge)
    : order_(order), ridge_(ridge) {
  SAGDFN_CHECK_GT(order, 0);
}

void VarForecaster::Fit(const data::ForecastDataset& dataset,
                        const FitOptions& options) {
  (void)options;
  utils::Stopwatch watch;
  const tensor::Tensor& scaled = dataset.scaled_values();
  const int64_t train_end = dataset.TrainEndStep();
  const int64_t n = dataset.num_nodes();
  const int64_t p = std::min(order_, dataset.spec().history);
  order_ = p;
  num_nodes_ = n;
  const int64_t dim = n * p + 1;

  const float* v = scaled.data();
  std::vector<double> gram(dim * dim, 0.0);
  std::vector<double> rhs(dim * n, 0.0);
  std::vector<double> x(dim);
  for (int64_t t = p; t < train_end; ++t) {
    for (int64_t l = 0; l < p; ++l) {
      for (int64_t i = 0; i < n; ++i) {
        x[l * n + i] = v[(t - 1 - l) * n + i];
      }
    }
    x[dim - 1] = 1.0;
    for (int64_t a = 0; a < dim; ++a) {
      const double xa = x[a];
      if (xa == 0.0) continue;
      double* gram_row = gram.data() + a * dim;
      for (int64_t b = 0; b < dim; ++b) gram_row[b] += xa * x[b];
      double* rhs_row = rhs.data() + a * n;
      const float* y = v + t * n;
      for (int64_t j = 0; j < n; ++j) rhs_row[j] += xa * y[j];
    }
  }
  coef_ = RidgeSolve(std::move(gram), dim, rhs, n, ridge_);
  fit_seconds_ = watch.ElapsedSeconds();
}

tensor::Tensor VarForecaster::Predict(const data::ForecastDataset& dataset,
                                      data::Split split,
                                      int64_t max_windows) {
  SAGDFN_CHECK_EQ(num_nodes_, dataset.num_nodes()) << "Fit() first";
  const int64_t f = dataset.spec().horizon;
  const int64_t h = dataset.spec().history;
  const int64_t n = dataset.num_nodes();
  const int64_t p = order_;
  const int64_t dim = n * p + 1;
  const int64_t c = data::kInputChannels;
  const data::StandardScaler& scaler = dataset.scaler();

  return PredictWindows(
      dataset, split, max_windows,
      [&](const data::Batch& batch, int64_t bi, float* out) {
        const float* x = batch.x.data();
        // lag_state[l * n + i]: lag-l value of node i (l = 0 newest).
        std::vector<double> lag_state(p * n);
        for (int64_t l = 0; l < p; ++l) {
          for (int64_t i = 0; i < n; ++i) {
            lag_state[l * n + i] =
                x[((bi * h + (h - 1 - l)) * n + i) * c];
          }
        }
        std::vector<double> pred(n);
        for (int64_t t = 0; t < f; ++t) {
          for (int64_t j = 0; j < n; ++j) {
            pred[j] = coef_[(dim - 1) * n + j];  // intercept row
          }
          for (int64_t a = 0; a < p * n; ++a) {
            const double xa = lag_state[a];
            if (xa == 0.0) continue;
            const double* w_row = coef_.data() + a * n;
            for (int64_t j = 0; j < n; ++j) pred[j] += xa * w_row[j];
          }
          for (int64_t l = p - 1; l > 0; --l) {
            std::copy(lag_state.begin() + (l - 1) * n,
                      lag_state.begin() + l * n,
                      lag_state.begin() + l * n);
          }
          std::copy(pred.begin(), pred.end(), lag_state.begin());
          for (int64_t j = 0; j < n; ++j) {
            out[t * n + j] = scaler.mean() +
                             scaler.stddev() * static_cast<float>(pred[j]);
          }
        }
      });
}

int64_t VarForecaster::ParameterCount() const {
  return static_cast<int64_t>(coef_.size());
}

// ---------------------------------------------------------------------------
// SvrForecaster

SvrForecaster::SvrForecaster(double epsilon, double l2)
    : epsilon_(epsilon), l2_(l2) {
  SAGDFN_CHECK_GE(epsilon, 0.0);
  SAGDFN_CHECK_GE(l2, 0.0);
}

void SvrForecaster::Fit(const data::ForecastDataset& dataset,
                        const FitOptions& options) {
  utils::Stopwatch watch;
  const tensor::Tensor& scaled = dataset.scaled_values();
  const int64_t train_end = dataset.TrainEndStep();
  const int64_t n = dataset.num_nodes();
  history_ = dataset.spec().history;
  horizon_ = dataset.spec().horizon;
  const int64_t dim = history_ + 1;
  weights_.assign(horizon_ * dim, 0.0);

  utils::Rng rng(options.seed);
  const float* v = scaled.data();
  const int64_t max_start = train_end - history_ - horizon_;
  SAGDFN_CHECK_GT(max_start, 0);
  const int64_t sgd_steps =
      std::max<int64_t>(options.epochs, 1) * 2000;
  double lr = options.learning_rate > 0 ? options.learning_rate : 0.01;

  std::vector<double> x(dim);
  for (int64_t step = 0; step < sgd_steps; ++step) {
    const int64_t t0 = rng.UniformInt(max_start);
    const int64_t node = rng.UniformInt(n);
    for (int64_t l = 0; l < history_; ++l) {
      x[l] = v[(t0 + l) * n + node];
    }
    x[history_] = 1.0;
    const double step_lr = lr / (1.0 + step * 1e-3);
    for (int64_t hstep = 0; hstep < horizon_; ++hstep) {
      double* w = weights_.data() + hstep * dim;
      double pred = 0.0;
      for (int64_t a = 0; a < dim; ++a) pred += w[a] * x[a];
      const double y = v[(t0 + history_ + hstep) * n + node];
      const double err = pred - y;
      // Epsilon-insensitive subgradient + L2 shrinkage.
      double g = 0.0;
      if (err > epsilon_) g = 1.0;
      if (err < -epsilon_) g = -1.0;
      for (int64_t a = 0; a < dim; ++a) {
        w[a] -= step_lr * (g * x[a] + l2_ * w[a]);
      }
    }
  }
  fit_seconds_ = watch.ElapsedSeconds();
}

tensor::Tensor SvrForecaster::Predict(const data::ForecastDataset& dataset,
                                      data::Split split,
                                      int64_t max_windows) {
  SAGDFN_CHECK_GT(history_, 0) << "Fit() first";
  const int64_t f = dataset.spec().horizon;
  const int64_t h = dataset.spec().history;
  const int64_t n = dataset.num_nodes();
  const int64_t dim = h + 1;
  const int64_t c = data::kInputChannels;
  const data::StandardScaler& scaler = dataset.scaler();

  return PredictWindows(
      dataset, split, max_windows,
      [&](const data::Batch& batch, int64_t bi, float* out) {
        const float* x = batch.x.data();
        std::vector<double> window(dim);
        for (int64_t node = 0; node < n; ++node) {
          for (int64_t l = 0; l < h; ++l) {
            window[l] = x[((bi * h + l) * n + node) * c];
          }
          window[h] = 1.0;
          for (int64_t t = 0; t < f; ++t) {
            const double* w = weights_.data() + t * dim;
            double pred = 0.0;
            for (int64_t a = 0; a < dim; ++a) pred += w[a] * window[a];
            out[t * n + node] = scaler.mean() +
                                scaler.stddev() * static_cast<float>(pred);
          }
        }
      });
}

int64_t SvrForecaster::ParameterCount() const {
  return static_cast<int64_t>(weights_.size());
}

}  // namespace sagdfn::baselines
