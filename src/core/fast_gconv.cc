#include "core/fast_gconv.h"

#include "core/fused_ops.h"
#include "nn/init.h"
#include "obs/telemetry.h"
#include "utils/check.h"

namespace sagdfn::core {

namespace ag = ::sagdfn::autograd;

FastGraphConv::FastGraphConv(int64_t in_dim, int64_t out_dim,
                             int64_t diffusion_steps, utils::Rng& rng)
    : in_dim_(in_dim), out_dim_(out_dim), diffusion_steps_(diffusion_steps) {
  SAGDFN_CHECK_GT(in_dim, 0);
  SAGDFN_CHECK_GT(out_dim, 0);
  SAGDFN_CHECK_GE(diffusion_steps, 1);
  for (int64_t j = 0; j < diffusion_steps_; ++j) {
    weights_.push_back(RegisterParameter(
        "w" + std::to_string(j),
        ag::Variable(nn::XavierUniform(tensor::Shape({in_dim, out_dim}),
                                       rng))));
  }
  bias_ = RegisterParameter(
      "bias", ag::Variable(tensor::Tensor::Zeros(tensor::Shape({out_dim}))));
}

ag::Variable FastGraphConv::InverseDegree(const ag::Variable& a_s) {
  return ag::Div(
      ag::Variable(tensor::Tensor::Ones(tensor::Shape({a_s.dim(0), 1}))),
      ag::AddScalar(ag::Sum(ag::Abs(a_s), 1, /*keepdim=*/true), 1.0f));
}

ag::Variable FastGraphConv::Forward(
    const ag::Variable& a_s, const std::vector<int64_t>& index_set,
    const ag::Variable& x, const ag::Variable* inv_deg) const {
  SAGDFN_SCOPED_TIMER("gconv.forward");
  SAGDFN_CHECK_EQ(x.shape().ndim(), 3);
  SAGDFN_CHECK_EQ(x.dim(2), in_dim_);
  const int64_t n = x.dim(1);
  SAGDFN_CHECK_EQ(a_s.dim(0), n);
  SAGDFN_CHECK_EQ(a_s.dim(1), static_cast<int64_t>(index_set.size()));

  ag::Variable local_inv_deg;
  if (inv_deg == nullptr) {
    local_inv_deg = InverseDegree(a_s);
    inv_deg = &local_inv_deg;
  } else {
    SAGDFN_CHECK_EQ(inv_deg->dim(0), n);
  }

  // Diffusion series: term_0 = X; term_{j+1} = (D+I)^{-1}(A_s term_j[I] +
  // term_j). Each term contributes through its own W_j. One tape node for
  // the whole sum; see core/fused_ops.h.
  return GraphConv(a_s, index_set, *inv_deg, x, weights_, bias_);
}

GConvGruCell::GConvGruCell(int64_t in_dim, int64_t hidden_dim,
                           int64_t diffusion_steps, utils::Rng& rng)
    : in_dim_(in_dim), hidden_dim_(hidden_dim) {
  gate_conv_ = std::make_unique<FastGraphConv>(
      in_dim + hidden_dim, 2 * hidden_dim, diffusion_steps, rng);
  candidate_conv_ = std::make_unique<FastGraphConv>(
      in_dim + hidden_dim, hidden_dim, diffusion_steps, rng);
  RegisterModule("gates", gate_conv_.get());
  RegisterModule("candidate", candidate_conv_.get());
}

ag::Variable GConvGruCell::Forward(
    const ag::Variable& a_s, const std::vector<int64_t>& index_set,
    const ag::Variable& x, const ag::Variable& h,
    const ag::Variable* inv_deg) const {
  SAGDFN_CHECK_EQ(x.dim(2), in_dim_);
  SAGDFN_CHECK_EQ(h.dim(2), hidden_dim_);

  // inv_deg depends only on a_s: compute it once and share it between the
  // gate and candidate convolutions (callers looping over timesteps pass
  // it in, amortizing the reduction across the whole sequence).
  ag::Variable local_inv_deg;
  if (inv_deg == nullptr) {
    local_inv_deg = FastGraphConv::InverseDegree(a_s);
    inv_deg = &local_inv_deg;
  }

  ag::Variable xh = ag::Concat({x, h}, 2);
  ag::Variable gates = gate_conv_->Forward(a_s, index_set, xh, inv_deg);
  // Fused tail (core/fused_ops.h): r is applied inside the candidate-input
  // build, z/tanh/blend collapse into one pass. Bit-identical to the
  // Sigmoid(Slice) -> Mul -> Concat -> Tanh -> gru_blend chain it replaces.
  ag::Variable x_rh = GruCandidateInput(gates, x, h);
  ag::Variable candidate_pre =
      candidate_conv_->Forward(a_s, index_set, x_rh, inv_deg);
  return GruTailBlend(gates, h, candidate_pre);
}

ag::Variable GConvGruCell::InitialState(int64_t batch,
                                        int64_t num_nodes) const {
  return ag::Variable(tensor::Tensor::Zeros(
      tensor::Shape({batch, num_nodes, hidden_dim_})));
}

}  // namespace sagdfn::core
