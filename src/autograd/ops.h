#ifndef SAGDFN_AUTOGRAD_OPS_H_
#define SAGDFN_AUTOGRAD_OPS_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "autograd/variable.h"
#include "tensor/tensor_ops.h"

namespace sagdfn::autograd {

// Differentiable operations. Each mirrors its tensor:: counterpart on the
// forward path and records the tape when gradients are enabled and at
// least one input requires them. Broadcasting follows numpy semantics;
// broadcast gradients are reduced back to the input shapes.

Variable Add(const Variable& a, const Variable& b);
Variable Sub(const Variable& a, const Variable& b);
Variable Mul(const Variable& a, const Variable& b);
Variable Div(const Variable& a, const Variable& b);
Variable AddScalar(const Variable& a, float s);
Variable MulScalar(const Variable& a, float s);
/// s - a per element (no constant tensor materialized).
Variable RSubScalar(const Variable& a, float s);

/// 2-D matrix product.
Variable MatMul(const Variable& a, const Variable& b);
/// Batched matrix product; either operand may be 2-D (shared across the
/// batch), matching tensor::BatchedMatMul.
Variable BatchedMatMul(const Variable& a, const Variable& b);

Variable Exp(const Variable& a);
Variable Tanh(const Variable& a);
Variable Sigmoid(const Variable& a);
Variable Relu(const Variable& a);
Variable Abs(const Variable& a);

Variable Sum(const Variable& a, int64_t axis, bool keepdim = false);
Variable Mean(const Variable& a, int64_t axis, bool keepdim = false);
Variable Max(const Variable& a, int64_t axis, bool keepdim = false);
Variable SumAll(const Variable& a);
Variable MeanAll(const Variable& a);

Variable Reshape(const Variable& a, std::vector<int64_t> dims);
Variable Transpose(const Variable& a, int64_t axis0, int64_t axis1);
Variable Concat(const std::vector<Variable>& parts, int64_t axis);
Variable Stack(const std::vector<Variable>& parts, int64_t axis);
Variable Slice(const Variable& a, int64_t axis, int64_t start, int64_t end);
Variable IndexSelect(const Variable& a, int64_t axis,
                     std::vector<int64_t> indices);

/// Broadcasts `a` up to `shape` (backward reduces back down).
Variable Expand(const Variable& a, const tensor::Shape& shape);

/// Numerically stable softmax along `axis` (shift by a detached max).
Variable Softmax(const Variable& a, int64_t axis);

/// Fused GRU cell step (nn::GruCell). `xi` and `hh` are the input and
/// hidden affine projections, [..., 3H] in [r|z|n] layout; `h` is the
/// previous state [..., H]. Computes, per row,
///   r = sigmoid(xi_r + hh_r), z = sigmoid(xi_z + hh_z),
///   n = tanh(xi_n + r * hh_n), h' = z*h + (1-z)*n
/// in a single pass through the dispatched gru_step kernel (one output
/// tensor instead of the ~10 temporaries of the unfused chain), with a
/// fused single-pass backward (gru_step_grad) for all three inputs.
/// Training stores r/z/n for backward; under NoGrad nothing but the
/// output is materialized.
Variable GruStep(const Variable& xi, const Variable& hh, const Variable& h);

/// mean(|pred - target|); the paper's training loss (Eq. 11).
Variable L1Loss(const Variable& pred, const Variable& target);

/// mean((pred - target)^2).
Variable MseLoss(const Variable& pred, const Variable& target);

/// Masked mean(|pred - target| * mask) / mean(mask): ignores entries with
/// mask 0 (the standard treatment of missing sensor readings).
Variable MaskedL1Loss(const Variable& pred, const Variable& target,
                      const tensor::Tensor& mask);

namespace internal {

/// Builds an op node. `backward` receives the output gradient and must
/// accumulate into the parent nodes (checking their requires_grad). When
/// recording is off (or no parent needs gradients), the node is a plain
/// constant and `backward` is dropped.
Variable MakeOp(const char* name, tensor::Tensor value,
                const std::vector<Variable>& inputs,
                std::function<void(const tensor::Tensor&)> backward);

}  // namespace internal

}  // namespace sagdfn::autograd

#endif  // SAGDFN_AUTOGRAD_OPS_H_
