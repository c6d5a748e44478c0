#include "baselines/dense_stgnn.h"

#include <cmath>

#include "autograd/ops.h"
#include "tensor/tensor_ops.h"
#include "graph/adjacency.h"
#include "nn/init.h"
#include "utils/check.h"
#include "utils/rng.h"

namespace sagdfn::baselines {

namespace ag = ::sagdfn::autograd;

DenseStgnn::DenseStgnn(const DenseStgnnConfig& config,
                       tensor::Tensor predefined)
    : config_(config) {
  SAGDFN_CHECK_GT(config_.num_nodes, 0);
  utils::Rng rng(config_.seed);
  const int64_t n = config_.num_nodes;
  const int64_t d = config_.embedding_dim;

  const bool needs_predefined = config_.source == GraphSource::kPredefined ||
                                config_.source == GraphSource::kBoth;
  if (needs_predefined) {
    SAGDFN_CHECK_EQ(predefined.ndim(), 2) << "predefined adjacency required";
    SAGDFN_CHECK_EQ(predefined.dim(0), n);
    SAGDFN_CHECK_EQ(predefined.dim(1), n);
    predefined_ = graph::RowNormalize(predefined);
  }

  const bool needs_embeddings = config_.source != GraphSource::kPredefined;
  if (needs_embeddings) {
    embeddings_ = RegisterParameter(
        "embeddings", ag::Variable(tensor::Tensor::Normal(
                          tensor::Shape({n, d}), rng, 0.0f, 1.0f)));
    if (config_.directional) {
      embeddings_dst_ = RegisterParameter(
          "embeddings_dst", ag::Variable(tensor::Tensor::Normal(
                                tensor::Shape({n, d}), rng, 0.0f, 1.0f)));
    }
  }
  if (config_.source == GraphSource::kAttention) {
    attn_query_ = std::make_unique<nn::Linear>(d, d, rng, false);
    attn_key_ = std::make_unique<nn::Linear>(d, d, rng, false);
    RegisterModule("attn_query", attn_query_.get());
    RegisterModule("attn_key", attn_key_.get());
  }
  if (config_.source == GraphSource::kPairwiseFfn) {
    pair_ffn_ = std::make_unique<nn::Mlp>(
        std::vector<int64_t>{2 * d, 2 * d, 1}, nn::Activation::kRelu, rng);
    RegisterModule("pair_ffn", pair_ffn_.get());
  }

  const int64_t in = config_.input_dim + config_.hidden_dim;
  for (int64_t j = 0; j < config_.diffusion_steps; ++j) {
    gate_w_.push_back(RegisterParameter(
        "gate_w" + std::to_string(j),
        ag::Variable(nn::XavierUniform(
            tensor::Shape({in, 2 * config_.hidden_dim}), rng))));
    cand_w_.push_back(RegisterParameter(
        "cand_w" + std::to_string(j),
        ag::Variable(nn::XavierUniform(
            tensor::Shape({in, config_.hidden_dim}), rng))));
  }
  gate_b_ = RegisterParameter(
      "gate_b", ag::Variable(tensor::Tensor::Zeros(
                    tensor::Shape({2 * config_.hidden_dim}))));
  cand_b_ = RegisterParameter(
      "cand_b", ag::Variable(tensor::Tensor::Zeros(
                    tensor::Shape({config_.hidden_dim}))));
  output_proj_ = std::make_unique<nn::Linear>(config_.hidden_dim, 1, rng);
  RegisterModule("output_proj", output_proj_.get());
}

ag::Variable DenseStgnn::Adjacency() const {
  const int64_t n = config_.num_nodes;
  const int64_t d = config_.embedding_dim;
  switch (config_.source) {
    case GraphSource::kPredefined:
      return ag::Variable(predefined_);
    case GraphSource::kAdaptive: {
      const ag::Variable& dst =
          config_.directional ? embeddings_dst_ : embeddings_;
      ag::Variable scores =
          ag::Relu(ag::MatMul(embeddings_, ag::Transpose(dst, 0, 1)));
      return ag::Softmax(scores, 1);
    }
    case GraphSource::kBoth: {
      const ag::Variable& dst =
          config_.directional ? embeddings_dst_ : embeddings_;
      ag::Variable scores =
          ag::Relu(ag::MatMul(embeddings_, ag::Transpose(dst, 0, 1)));
      ag::Variable adaptive = ag::Softmax(scores, 1);
      return ag::MulScalar(
          ag::Add(adaptive, ag::Variable(predefined_)), 0.5f);
    }
    case GraphSource::kPairwiseFfn: {
      // [N, N, 2d] pairwise concat -> MLP -> sigmoid weights. This is the
      // deliberately O(N^2 d) construction of the GTS/STEP class.
      ag::Variable rows = ag::Expand(ag::Reshape(embeddings_, {n, 1, d}),
                                     tensor::Shape({n, n, d}));
      ag::Variable cols = ag::Expand(ag::Reshape(embeddings_, {1, n, d}),
                                     tensor::Shape({n, n, d}));
      ag::Variable pair = ag::Concat({rows, cols}, 2);
      ag::Variable scores = pair_ffn_->Forward(pair);  // [N, N, 1]
      return ag::Sigmoid(ag::Reshape(scores, {n, n}));
    }
    case GraphSource::kAttention: {
      ag::Variable q = attn_query_->Forward(embeddings_);
      ag::Variable k = attn_key_->Forward(embeddings_);
      ag::Variable scores = ag::MulScalar(
          ag::MatMul(q, ag::Transpose(k, 0, 1)),
          1.0f / std::sqrt(static_cast<float>(d)));
      return ag::Softmax(scores, 1);
    }
  }
  SAGDFN_CHECK(false);
  return ag::Variable();
}

ag::Variable DenseStgnn::GraphConv(
    const ag::Variable& a, const ag::Variable& x,
    const std::vector<ag::Variable>& w, const ag::Variable& bias) const {
  const int64_t n = config_.num_nodes;
  ag::Variable inv_deg = ag::Div(
      ag::Variable(tensor::Tensor::Ones(tensor::Shape({n, 1}))),
      ag::AddScalar(ag::Sum(ag::Abs(a), 1, /*keepdim=*/true), 1.0f));
  ag::Variable term = x;
  ag::Variable out = ag::BatchedMatMul(term, w[0]);
  for (size_t j = 1; j < w.size(); ++j) {
    ag::Variable mixed = ag::Add(ag::BatchedMatMul(a, term), term);
    term = ag::Mul(mixed, inv_deg);
    out = ag::Add(out, ag::BatchedMatMul(term, w[j]));
  }
  return ag::Add(out, bias);
}

ag::Variable DenseStgnn::CellStep(const ag::Variable& a,
                                  const ag::Variable& x,
                                  const ag::Variable& h) const {
  const int64_t hd = config_.hidden_dim;
  ag::Variable xh = ag::Concat({x, h}, 2);
  ag::Variable gates = GraphConv(a, xh, gate_w_, gate_b_);
  ag::Variable r = ag::Sigmoid(ag::Slice(gates, 2, 0, hd));
  ag::Variable z = ag::Sigmoid(ag::Slice(gates, 2, hd, 2 * hd));
  ag::Variable x_rh = ag::Concat({x, ag::Mul(r, h)}, 2);
  ag::Variable cand = ag::Tanh(GraphConv(a, x_rh, cand_w_, cand_b_));
  ag::Variable one_minus_z =
      ag::Sub(ag::Variable(tensor::Tensor::Ones(z.shape())), z);
  return ag::Add(ag::Mul(z, h), ag::Mul(one_minus_z, cand));
}

ag::Variable DenseStgnn::Forward(const tensor::Tensor& x,
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
  SAGDFN_CHECK_EQ(h, config_.history);
  SAGDFN_CHECK_EQ(n, config_.num_nodes);
  SAGDFN_CHECK_EQ(c, config_.input_dim);
  const int64_t f = config_.horizon;

  ag::Variable a = Adjacency();

  ag::Variable x_var{x};
  ag::Variable hidden{tensor::Tensor::Zeros(
      tensor::Shape({b, n, config_.hidden_dim}))};
  ag::Variable step;
  for (int64_t t = 0; t < h; ++t) {
    step = ag::Reshape(ag::Slice(x_var, 1, t, t + 1), {b, n, c});
    hidden = CellStep(a, step, hidden);
  }

  ag::Variable dec_input = step;
  std::vector<ag::Variable> predictions;
  predictions.reserve(f);
  const float* ft = future_tod.data();
  for (int64_t t = 0; t < f; ++t) {
    hidden = CellStep(a, dec_input, hidden);
    ag::Variable pred = output_proj_->Forward(
        ag::Reshape(hidden, {b * n, config_.hidden_dim}));
    predictions.push_back(ag::Reshape(pred, {b, n}));
    if (t + 1 < f) {
      tensor::Tensor tod(tensor::Shape({b, n, 1}));
      float* pt = tod.data();
      for (int64_t bi = 0; bi < b; ++bi) {
        const float v = ft[bi * f + t];
        for (int64_t i = 0; i < n; ++i) pt[bi * n + i] = v;
      }
      ag::Variable value = ag::Reshape(pred, {b, n, 1});
      if (teacher != nullptr && training() &&
          teacher_rng_.Bernoulli(teacher_prob)) {
        value = ag::Variable(
            tensor::Slice(*teacher, 1, t, t + 1).Reshape({b, n, 1}));
      }
      dec_input = ag::Concat({value, ag::Variable(tod)}, 2);
    }
  }
  return ag::Stack(predictions, 1);
}

tensor::Tensor DenseStgnn::ComputeAdjacency() {
  ag::NoGradGuard guard;
  return Adjacency().value();
}

}  // namespace sagdfn::baselines
