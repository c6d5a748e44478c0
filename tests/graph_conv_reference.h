#ifndef SAGDFN_TESTS_GRAPH_CONV_REFERENCE_H_
#define SAGDFN_TESTS_GRAPH_CONV_REFERENCE_H_

// The graph convolution as a chain of composed autograd ops: the
// reference that core::GraphConv, its one-node replacement, must match
// byte for byte. Header-only, because each test binary is built from its
// one .cc file.

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "autograd/ops.h"
#include "core/fused_ops.h"
#include "tensor/tensor.h"
#include "utils/check.h"

namespace sagdfn::test_support {

/// One diffusion step (core::OneStepFastGConvInto) as its own tape node,
/// with gradients to a_s [N, K], term [B, N, C] and inv_deg [N, 1].
inline autograd::Variable OneStepFastGConv(
    const autograd::Variable& a_s, const autograd::Variable& term,
    const std::vector<int64_t>& index_set, const autograd::Variable& inv_deg) {
  SAGDFN_CHECK_EQ(term.shape().ndim(), 3);
  const int64_t batch = term.dim(0);
  const int64_t n = term.dim(1);
  const int64_t c = term.dim(2);
  SAGDFN_CHECK_EQ(a_s.dim(0), n);
  SAGDFN_CHECK_EQ(a_s.dim(1), static_cast<int64_t>(index_set.size()));
  SAGDFN_CHECK_EQ(inv_deg.size(), n);
  tensor::Tensor out{tensor::Shape({batch, n, c})};
  core::OneStepFastGConvInto(a_s.value().data(), term.value().data(),
                             inv_deg.value().data(), index_set, batch, n, c,
                             out.data());
  auto na = a_s.node();
  auto nt = term.node();
  auto ninv = inv_deg.node();
  return autograd::internal::MakeOp(
      "OneStepFastGConv", out, {a_s, term, inv_deg},
      [na, nt, ninv, index_set, out](const tensor::Tensor& g) {
        tensor::Tensor d_a, d_inv;
        if (na->requires_grad) d_a = tensor::Tensor(na->value.shape());
        if (ninv->requires_grad) d_inv = tensor::Tensor(ninv->value.shape());
        tensor::Tensor d_term(nt->value.shape());
        core::OneStepFastGConvBackwardInto(
            na->value.data(), nt->value.data(), ninv->value.data(),
            out.data(), index_set, g.data(), out.dim(0), out.dim(1),
            out.dim(2), na->requires_grad ? d_a.data() : nullptr,
            ninv->requires_grad ? d_inv.data() : nullptr, d_term.data(),
            nt->requires_grad);
        if (na->requires_grad) na->AccumulateGrad(std::move(d_a));
        if (ninv->requires_grad) ninv->AccumulateGrad(std::move(d_inv));
        if (nt->requires_grad) nt->AccumulateGrad(std::move(d_term));
      });
}

/// The graph convolution as the composed chain: J BatchedMatMuls, J - 1
/// diffusion steps and J Adds (the last one adds the bias), 3J - 1 tape
/// nodes.
inline autograd::Variable ComposedGraphConv(
    const autograd::Variable& a_s, const std::vector<int64_t>& index_set,
    const autograd::Variable& inv_deg, const autograd::Variable& x,
    const std::vector<autograd::Variable>& weights,
    const autograd::Variable& bias) {
  autograd::Variable term = x;
  autograd::Variable out = autograd::BatchedMatMul(term, weights[0]);
  for (size_t j = 1; j < weights.size(); ++j) {
    term = OneStepFastGConv(a_s, term, index_set, inv_deg);
    out = autograd::Add(out, autograd::BatchedMatMul(term, weights[j]));
  }
  return autograd::Add(out, bias);
}

}  // namespace sagdfn::test_support

#endif  // SAGDFN_TESTS_GRAPH_CONV_REFERENCE_H_
