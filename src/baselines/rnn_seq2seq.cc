#include "baselines/rnn_seq2seq.h"

#include "autograd/ops.h"
#include "data/window_dataset.h"
#include "tensor/tensor_ops.h"
#include "utils/check.h"
#include "utils/rng.h"

namespace sagdfn::baselines {

namespace ag = ::sagdfn::autograd;

RnnSeq2Seq::RnnSeq2Seq(CellType cell_type, int64_t hidden_dim,
                       int64_t history, int64_t horizon, uint64_t seed)
    : cell_type_(cell_type),
      hidden_dim_(hidden_dim),
      history_(history),
      horizon_(horizon),
      teacher_rng_(seed + 1) {
  utils::Rng rng(seed);
  if (cell_type_ == CellType::kLstm) {
    lstm_ = std::make_unique<nn::LstmCell>(data::kInputChannels, hidden_dim,
                                           rng);
    RegisterModule("cell", lstm_.get());
  } else {
    gru_ = std::make_unique<nn::GruCell>(data::kInputChannels, hidden_dim,
                                         rng);
    RegisterModule("cell", gru_.get());
  }
  output_proj_ = std::make_unique<nn::Linear>(hidden_dim, 1, rng);
  RegisterModule("output_proj", output_proj_.get());
}

ag::Variable RnnSeq2Seq::Forward(const tensor::Tensor& x,
                                 const tensor::Tensor& future_tod,
                                 int64_t iteration,
                                 const tensor::Tensor* teacher,
                                 double teacher_prob) {
  (void)iteration;
  SAGDFN_CHECK_EQ(x.ndim(), 4);
  const int64_t b = x.dim(0);
  const int64_t h = x.dim(1);
  const int64_t n = x.dim(2);
  const int64_t c = x.dim(3);
  SAGDFN_CHECK_EQ(h, history_);
  SAGDFN_CHECK_EQ(c, data::kInputChannels);
  const int64_t f = horizon_;
  const int64_t flat = b * n;

  // Fold nodes into the batch: [B, h, N, C] -> per-step [B*N, C].
  ag::Variable x_var{x};
  ag::Variable hidden;
  ag::Variable cell_state;
  if (cell_type_ == CellType::kLstm) {
    auto [h0, c0] = lstm_->InitialState(flat);
    hidden = h0;
    cell_state = c0;
  } else {
    hidden = gru_->InitialState(flat);
  }

  ag::Variable step;
  for (int64_t t = 0; t < h; ++t) {
    step = ag::Reshape(ag::Slice(x_var, 1, t, t + 1), {flat, c});
    if (cell_type_ == CellType::kLstm) {
      auto [hn, cn] = lstm_->Forward(step, hidden, cell_state);
      hidden = hn;
      cell_state = cn;
    } else {
      hidden = gru_->Forward(step, hidden);
    }
  }

  ag::Variable dec_input = step;
  std::vector<ag::Variable> predictions;
  predictions.reserve(f);
  const float* ft = future_tod.data();
  for (int64_t t = 0; t < f; ++t) {
    if (cell_type_ == CellType::kLstm) {
      auto [hn, cn] = lstm_->Forward(dec_input, hidden, cell_state);
      hidden = hn;
      cell_state = cn;
    } else {
      hidden = gru_->Forward(dec_input, hidden);
    }
    ag::Variable pred = output_proj_->Forward(hidden);  // [B*N, 1]
    predictions.push_back(ag::Reshape(pred, {b, n}));
    if (t + 1 < f) {
      tensor::Tensor tod(tensor::Shape({flat, 1}));
      float* pt = tod.data();
      for (int64_t bi = 0; bi < b; ++bi) {
        const float v = ft[bi * f + t];
        for (int64_t i = 0; i < n; ++i) pt[bi * n + i] = v;
      }
      ag::Variable value = pred;
      if (teacher != nullptr && training() &&
          teacher_rng_.Bernoulli(teacher_prob)) {
        value = ag::Variable(
            tensor::Slice(*teacher, 1, t, t + 1).Reshape({flat, 1}));
      }
      dec_input = ag::Concat({value, ag::Variable(tod)}, 1);
    }
  }
  return ag::Stack(predictions, 1);  // [B, f, N]
}

}  // namespace sagdfn::baselines
