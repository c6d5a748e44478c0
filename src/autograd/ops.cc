#include "autograd/ops.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "tensor/simd.h"
#include "utils/check.h"
#include "utils/parallel.h"

namespace sagdfn::autograd {

using tensor::Shape;
using tensor::Tensor;

namespace internal {

Variable MakeOp(const char* name, Tensor value,
                const std::vector<Variable>& inputs,
                std::function<void(const Tensor&)> backward) {
  bool track = GradEnabled();
  if (track) {
    track = false;
    for (const Variable& v : inputs) {
      if (v.requires_grad()) {
        track = true;
        break;
      }
    }
  }
  auto node = std::make_shared<Node>();
  node->value = std::move(value);
  if (track) {
    node->requires_grad = true;
    node->op_name = name;
    node->parents.reserve(inputs.size());
    for (const Variable& v : inputs) node->parents.push_back(v.node());
    node->backward_fn = std::move(backward);
  }
  return Variable::FromNode(std::move(node));
}

namespace {

/// Accumulates `g` into `node` after reducing over broadcast dims. Takes
/// `g` by value, as Accumulate below does.
void AccumulateReduced(const std::shared_ptr<Node>& node, Tensor g) {
  if (!node->requires_grad) return;
  g = tensor::ReduceTo(g, node->value.shape());
  node->AccumulateGrad(std::move(g));
}

/// Takes `g` by value: a temporary moves its storage into the node's
/// gradient, while an lvalue (e.g. the incoming gradient passed on
/// unchanged) arrives as a second handle and is cloned.
void Accumulate(const std::shared_ptr<Node>& node, Tensor g) {
  if (!node->requires_grad) return;
  node->AccumulateGrad(std::move(g));
}

}  // namespace
}  // namespace internal

using internal::Accumulate;
using internal::AccumulateReduced;
using internal::MakeOp;

namespace {

/// Runs a fused two-input elementwise backward kernel (g, aux) -> out in
/// parallel chunks. Tape replay is sequential; only the elementwise work
/// inside one node is parallel (disjoint writes, thread-count
/// independent).
Tensor FusedBackward(const Tensor& g, const Tensor& aux,
                     void (*kernel)(const float*, const float*, float*,
                                    int64_t)) {
  Tensor out(g.shape());
  const float* pg = g.data();
  const float* pa = aux.data();
  float* po = out.data();
  utils::ParallelFor(0, g.size(), utils::kElementwiseGrain,
                     [&](int64_t i0, int64_t i1) {
                       kernel(pg + i0, pa + i0, po + i0, i1 - i0);
                     });
  return out;
}

}  // namespace

Variable Add(const Variable& a, const Variable& b) {
  auto na = a.node();
  auto nb = b.node();
  return MakeOp("Add", tensor::Add(a.value(), b.value()), {a, b},
                [na, nb](const Tensor& g) {
                  AccumulateReduced(na, g);
                  AccumulateReduced(nb, g);
                });
}

Variable Sub(const Variable& a, const Variable& b) {
  auto na = a.node();
  auto nb = b.node();
  return MakeOp("Sub", tensor::Sub(a.value(), b.value()), {a, b},
                [na, nb](const Tensor& g) {
                  AccumulateReduced(na, g);
                  AccumulateReduced(nb, tensor::Neg(g));
                });
}

Variable Mul(const Variable& a, const Variable& b) {
  auto na = a.node();
  auto nb = b.node();
  return MakeOp("Mul", tensor::Mul(a.value(), b.value()), {a, b},
                [na, nb](const Tensor& g) {
                  AccumulateReduced(na, tensor::Mul(g, nb->value));
                  AccumulateReduced(nb, tensor::Mul(g, na->value));
                });
}

Variable Div(const Variable& a, const Variable& b) {
  auto na = a.node();
  auto nb = b.node();
  return MakeOp("Div", tensor::Div(a.value(), b.value()), {a, b},
                [na, nb](const Tensor& g) {
                  AccumulateReduced(na, tensor::Div(g, nb->value));
                  // d/db (a/b) = -a / b^2
                  Tensor gb = tensor::Neg(tensor::Div(
                      tensor::Mul(g, na->value),
                      tensor::Mul(nb->value, nb->value)));
                  AccumulateReduced(nb, std::move(gb));
                });
}

Variable AddScalar(const Variable& a, float s) {
  auto na = a.node();
  return MakeOp("AddScalar", tensor::AddScalar(a.value(), s), {a},
                [na](const Tensor& g) { Accumulate(na, g); });
}

Variable MulScalar(const Variable& a, float s) {
  auto na = a.node();
  return MakeOp("MulScalar", tensor::MulScalar(a.value(), s), {a},
                [na, s](const Tensor& g) {
                  Accumulate(na, tensor::MulScalar(g, s));
                });
}

Variable RSubScalar(const Variable& a, float s) {
  auto na = a.node();
  return MakeOp("RSubScalar", tensor::RSubScalar(a.value(), s), {a},
                [na](const Tensor& g) { Accumulate(na, tensor::Neg(g)); });
}

Variable MatMul(const Variable& a, const Variable& b) {
  auto na = a.node();
  auto nb = b.node();
  return MakeOp(
      "MatMul", tensor::MatMul(a.value(), b.value()), {a, b},
      [na, nb](const Tensor& g) {
        // A batch of one through the batched backward products: the same
        // row chains from zero as MatMul(g, b^T) and MatMul(a^T, g),
        // without materializing either transpose.
        const Tensor g3 = g.Reshape({1, g.dim(0), g.dim(1)});
        if (na->requires_grad) {
          Tensor ga = tensor::BatchedMatMulNT(g3, nb->value, false)
                          .Reshape(na->value.shape().dims());
          Accumulate(na, std::move(ga));
        }
        if (nb->requires_grad) {
          Tensor gb = tensor::BatchedMatMulTN(na->value, g3, false)
                          .Reshape(nb->value.shape().dims());
          Accumulate(nb, std::move(gb));
        }
      });
}

Variable BatchedMatMul(const Variable& a, const Variable& b) {
  auto na = a.node();
  auto nb = b.node();
  return MakeOp(
      "BatchedMatMul", tensor::BatchedMatMul(a.value(), b.value()), {a, b},
      [na, nb](const Tensor& g) {
        // g: [B, m, n]. ga[b] = g[b] @ b[b]^T and gb[b] = a[b]^T @ g[b],
        // each summed over the batch when its operand is the shared 2-D
        // one.
        if (na->requires_grad) {
          Accumulate(na, tensor::BatchedMatMulNT(
                             g, nb->value, /*sum_batch=*/na->value.ndim() == 2));
        }
        if (nb->requires_grad) {
          Accumulate(nb, tensor::BatchedMatMulTN(
                             na->value, g, /*sum_batch=*/nb->value.ndim() == 2));
        }
      });
}

Variable Exp(const Variable& a) {
  auto na = a.node();
  Tensor out = tensor::Exp(a.value());
  return MakeOp("Exp", out, {a}, [na, out](const Tensor& g) {
    Accumulate(na, tensor::Mul(g, out));
  });
}

Variable Tanh(const Variable& a) {
  auto na = a.node();
  Tensor out = tensor::Tanh(a.value());
  return MakeOp("Tanh", out, {a}, [na, out](const Tensor& g) {
    // g * (1 - out^2), one fused pass
    Accumulate(na, FusedBackward(g, out, tensor::simd::K().tanh_grad));
  });
}

Variable Sigmoid(const Variable& a) {
  auto na = a.node();
  Tensor out = tensor::Sigmoid(a.value());
  return MakeOp("Sigmoid", out, {a}, [na, out](const Tensor& g) {
    // g * out * (1 - out), one fused pass
    Accumulate(na, FusedBackward(g, out, tensor::simd::K().sigmoid_grad));
  });
}

Variable Relu(const Variable& a) {
  auto na = a.node();
  return MakeOp("Relu", tensor::Relu(a.value()), {a}, [na](const Tensor& g) {
    // x > 0 ? g : 0, one fused pass over the forward input
    Accumulate(na, FusedBackward(g, na->value, tensor::simd::K().relu_grad));
  });
}

Variable Abs(const Variable& a) {
  auto na = a.node();
  return MakeOp("Abs", tensor::Abs(a.value()), {a}, [na](const Tensor& g) {
    Accumulate(na, tensor::Mul(g, tensor::Sign(na->value)));
  });
}

Variable Sum(const Variable& a, int64_t axis, bool keepdim) {
  auto na = a.node();
  const Shape in_shape = a.shape();
  const int64_t canon = in_shape.CanonicalAxis(axis);
  return MakeOp(
      "Sum", tensor::Sum(a.value(), axis, keepdim), {a},
      [na, in_shape, canon, keepdim](const Tensor& g) {
        Tensor gk = g;
        if (!keepdim) {
          std::vector<int64_t> dims = in_shape.dims();
          dims[canon] = 1;
          gk = g.Reshape(dims);
        }
        // Broadcast the kept-dim gradient back to the input shape.
        Accumulate(na,
                   tensor::Add(gk, tensor::Tensor::Zeros(in_shape)));
      });
}

Variable Mean(const Variable& a, int64_t axis, bool keepdim) {
  const int64_t n = a.shape().dim(axis);
  SAGDFN_CHECK_GT(n, 0);
  return MulScalar(Sum(a, axis, keepdim), 1.0f / n);
}

Variable SumAll(const Variable& a) {
  auto na = a.node();
  const Shape in_shape = a.shape();
  return MakeOp("SumAll", tensor::SumAll(a.value()), {a},
                [na, in_shape](const Tensor& g) {
                  Accumulate(na, tensor::Tensor::Full(in_shape, g.Item()));
                });
}

Variable MeanAll(const Variable& a) {
  SAGDFN_CHECK_GT(a.size(), 0);
  return MulScalar(SumAll(a), 1.0f / a.size());
}

Variable Reshape(const Variable& a, std::vector<int64_t> dims) {
  auto na = a.node();
  const Shape in_shape = a.shape();
  return MakeOp("Reshape", a.value().Reshape(std::move(dims)), {a},
                [na, in_shape](const Tensor& g) {
                  Accumulate(na, g.Reshape(in_shape.dims()));
                });
}

Variable Transpose(const Variable& a, int64_t axis0, int64_t axis1) {
  auto na = a.node();
  return MakeOp("Transpose", tensor::Transpose(a.value(), axis0, axis1),
                {a}, [na, axis0, axis1](const Tensor& g) {
                  Accumulate(na, tensor::Transpose(g, axis0, axis1));
                });
}

Variable Concat(const std::vector<Variable>& parts, int64_t axis) {
  SAGDFN_CHECK(!parts.empty());
  std::vector<Tensor> values;
  values.reserve(parts.size());
  for (const Variable& p : parts) values.push_back(p.value());
  Tensor out = tensor::Concat(values, axis);
  const int64_t canon = parts[0].shape().CanonicalAxis(axis);
  std::vector<std::shared_ptr<internal::Node>> nodes;
  std::vector<int64_t> sizes;
  for (const Variable& p : parts) {
    nodes.push_back(p.node());
    sizes.push_back(p.dim(canon));
  }
  return MakeOp("Concat", out, parts,
                [nodes, sizes, canon](const Tensor& g) {
                  int64_t offset = 0;
                  for (size_t i = 0; i < nodes.size(); ++i) {
                    if (nodes[i]->requires_grad) {
                      Accumulate(nodes[i], tensor::Slice(g, canon, offset,
                                                         offset + sizes[i]));
                    }
                    offset += sizes[i];
                  }
                });
}

Variable Stack(const std::vector<Variable>& parts, int64_t axis) {
  SAGDFN_CHECK(!parts.empty());
  const int64_t rank = parts[0].shape().ndim();
  int64_t canon = axis < 0 ? axis + rank + 1 : axis;
  SAGDFN_CHECK_GE(canon, 0);
  SAGDFN_CHECK_LE(canon, rank);
  std::vector<Variable> expanded;
  expanded.reserve(parts.size());
  for (const Variable& p : parts) {
    std::vector<int64_t> dims = p.shape().dims();
    dims.insert(dims.begin() + canon, 1);
    expanded.push_back(Reshape(p, std::move(dims)));
  }
  return Concat(expanded, canon);
}

Variable Slice(const Variable& a, int64_t axis, int64_t start, int64_t end) {
  auto na = a.node();
  const Shape in_shape = a.shape();
  const int64_t canon = in_shape.CanonicalAxis(axis);
  return MakeOp(
      "Slice", tensor::Slice(a.value(), axis, start, end), {a},
      [na, in_shape, canon, start, end](const Tensor& g) {
        Tensor grad_in = tensor::Tensor::Zeros(in_shape);
        std::vector<int64_t> indices(end - start);
        for (int64_t i = start; i < end; ++i) indices[i - start] = i;
        tensor::IndexAddInto(grad_in, canon, indices, g);
        Accumulate(na, std::move(grad_in));
      });
}

Variable IndexSelect(const Variable& a, int64_t axis,
                     std::vector<int64_t> indices) {
  auto na = a.node();
  const Shape in_shape = a.shape();
  const int64_t canon = in_shape.CanonicalAxis(axis);
  Tensor out = tensor::IndexSelect(a.value(), axis, indices);
  return MakeOp("IndexSelect", out, {a},
                [na, in_shape, canon,
                 indices = std::move(indices)](const Tensor& g) {
                  Tensor grad_in = tensor::Tensor::Zeros(in_shape);
                  tensor::IndexAddInto(grad_in, canon, indices, g);
                  Accumulate(na, std::move(grad_in));
                });
}

Variable Expand(const Variable& a, const Shape& shape) {
  Variable zeros(Tensor::Zeros(shape), /*requires_grad=*/false);
  return Add(a, zeros);
}

Variable Softmax(const Variable& a, int64_t axis) {
  // Shift by a detached max: softmax is shift-invariant, so the gradient
  // is unaffected and the exp stays bounded.
  Tensor max_const = tensor::Max(a.value(), axis, /*keepdim=*/true);
  Variable shifted = Sub(a, Variable(max_const));
  Variable e = Exp(shifted);
  return Div(e, Sum(e, axis, /*keepdim=*/true));
}

Variable GruStep(const Variable& xi, const Variable& hh, const Variable& h) {
  const int64_t hd = h.shape().dim(-1);
  SAGDFN_CHECK_GT(hd, 0);
  SAGDFN_CHECK_EQ(xi.shape().dim(-1), 3 * hd);
  SAGDFN_CHECK_EQ(hh.shape().dim(-1), 3 * hd);
  SAGDFN_CHECK_EQ(xi.size(), 3 * h.size());
  SAGDFN_CHECK_EQ(hh.size(), 3 * h.size());
  const int64_t rows = h.size() / hd;
  const int64_t row_grain =
      std::max<int64_t>(1, utils::kElementwiseGrain /
                               std::max<int64_t>(1, hd));

  // Decide up front whether backward will run: only then are the r/z/n
  // gate tensors worth materializing.
  const bool track =
      GradEnabled() &&
      (xi.requires_grad() || hh.requires_grad() || h.requires_grad());

  Tensor out(h.shape());
  Tensor r, z, nc;
  float* pr = nullptr;
  float* pz = nullptr;
  float* pn = nullptr;
  if (track) {
    r = Tensor(h.shape());
    z = Tensor(h.shape());
    nc = Tensor(h.shape());
    pr = r.data();
    pz = z.data();
    pn = nc.data();
  }
  const float* pxi = xi.value().data();
  const float* phh = hh.value().data();
  const float* ph = h.value().data();
  float* po = out.data();
  utils::ParallelFor(0, rows, row_grain, [&](int64_t r0, int64_t r1) {
    const tensor::simd::Kernels& kern = tensor::simd::K();
    for (int64_t row = r0; row < r1; ++row) {
      kern.gru_step(pxi + row * 3 * hd, phh + row * 3 * hd, ph + row * hd,
                    po + row * hd, pr == nullptr ? nullptr : pr + row * hd,
                    pz == nullptr ? nullptr : pz + row * hd,
                    pn == nullptr ? nullptr : pn + row * hd, hd);
    }
  });

  auto nxi = xi.node();
  auto nhh = hh.node();
  auto nh = h.node();
  return MakeOp(
      "GruStep", out, {xi, hh, h},
      [nxi, nhh, nh, r, z, nc, hd, rows, row_grain](const Tensor& g) {
        Tensor dxi(nxi->value.shape());
        Tensor dhh(nhh->value.shape());
        Tensor dh(nh->value.shape());
        const float* pg = g.data();
        const float* pr = r.data();
        const float* pz = z.data();
        const float* pn = nc.data();
        const float* ph = nh->value.data();
        const float* phh = nhh->value.data();
        float* pdxi = dxi.data();
        float* pdhh = dhh.data();
        float* pdh = dh.data();
        utils::ParallelFor(0, rows, row_grain, [&](int64_t r0, int64_t r1) {
          const tensor::simd::Kernels& kern = tensor::simd::K();
          for (int64_t row = r0; row < r1; ++row) {
            kern.gru_step_grad(pg + row * hd, pr + row * hd, pz + row * hd,
                               pn + row * hd, ph + row * hd,
                               phh + row * 3 * hd + 2 * hd,
                               pdxi + row * 3 * hd, pdhh + row * 3 * hd,
                               pdh + row * hd, hd);
          }
        });
        Accumulate(nxi, std::move(dxi));
        Accumulate(nhh, std::move(dhh));
        Accumulate(nh, std::move(dh));
      });
}

Variable L1Loss(const Variable& pred, const Variable& target) {
  return MeanAll(Abs(Sub(pred, target)));
}

Variable MseLoss(const Variable& pred, const Variable& target) {
  Variable diff = Sub(pred, target);
  return MeanAll(Mul(diff, diff));
}

}  // namespace sagdfn::autograd
