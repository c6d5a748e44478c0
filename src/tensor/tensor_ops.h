#ifndef SAGDFN_TENSOR_TENSOR_OPS_H_
#define SAGDFN_TENSOR_TENSOR_OPS_H_

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace sagdfn::tensor {

// Elementwise binary operations with numpy-style broadcasting. All return
// new tensors; inputs are never mutated.

Tensor Add(const Tensor& a, const Tensor& b);
Tensor Sub(const Tensor& a, const Tensor& b);
Tensor Mul(const Tensor& a, const Tensor& b);
Tensor Div(const Tensor& a, const Tensor& b);

// Scalar-broadcast conveniences.
Tensor AddScalar(const Tensor& a, float s);
Tensor MulScalar(const Tensor& a, float s);
/// s - a per element (reverse subtraction), without materializing a
/// constant tensor of s.
Tensor RSubScalar(const Tensor& a, float s);

// Elementwise unary operations.
Tensor Neg(const Tensor& a);
Tensor Exp(const Tensor& a);
Tensor Abs(const Tensor& a);
/// -1, 0 or +1 per element.
Tensor Sign(const Tensor& a);
Tensor Tanh(const Tensor& a);
Tensor Sigmoid(const Tensor& a);
Tensor Relu(const Tensor& a);

/// 2-D matrix product: [m, k] x [k, n] -> [m, n].
Tensor MatMul(const Tensor& a, const Tensor& b);

/// Batched matrix product with broadcasting of a 2-D operand:
///   [B, m, k] x [B, k, n] -> [B, m, n]
///   [B, m, k] x [k, n]    -> [B, m, n]  (rhs shared across batch)
///   [m, k]    x [B, k, n] -> [B, m, n]  (lhs shared across batch)
Tensor BatchedMatMul(const Tensor& a, const Tensor& b);

/// The two products of BatchedMatMul's backward, each without a
/// transposed copy of its big operand:
///   BatchedMatMulNT: g [B, m, n] x b^T, b [k, n] (shared) or [B, k, n]
///                    -> [B, m, k];
///   BatchedMatMulTN: a^T x g [B, m, n], a [m, k] (shared) or [B, m, k]
///                    -> [B, k, n], reading a's columns in place.
/// With `sum_batch` the result is the sum over the batch ([m, k] or
/// [k, n]) in ascending batch order. The bits equal
/// BatchedMatMul(g, Transpose(b)) and BatchedMatMul(Transpose(a), g),
/// followed by Sum(., 0) with `sum_batch`: each output row runs the
/// same fma chain from zero. NT stages b^T ([n, k] per b matrix) in the
/// calling thread's ScratchArena.
Tensor BatchedMatMulNT(const Tensor& g, const Tensor& b, bool sum_batch);
Tensor BatchedMatMulTN(const Tensor& a, const Tensor& g, bool sum_batch);

/// Raw-pointer matmul into a caller-owned buffer for callers that fuse the
/// matmul into a larger per-row-range parallel region (one ParallelFor
/// dispatch covering several row-local stages): zeroes rows [i0, i1) of
/// `o` (o[rows, n] = a[rows, k] x b[k, n]) and accumulates a[i0:i1] x b
/// into them with the same per-row accumulation order as MatMul /
/// BatchedMatMul. Per-row results are independent of how the caller
/// partitions the row range, so any partition is bit-identical to the
/// full-matrix ops; this is what lets the eval-mode rollout plan
/// (core/rollout_plan) replay matmuls into arena scratch while staying
/// memcmp-equal to the eager path. `o` must not alias `a` or `b`.
void MatMulRowsInto(const float* a, const float* b, float* o, int64_t i0,
                    int64_t i1, int64_t k, int64_t n);

// Reductions. `axis` may be negative. With keepdim the reduced axis stays
// as size 1; otherwise it is removed.

Tensor Sum(const Tensor& a, int64_t axis, bool keepdim = false);
Tensor Mean(const Tensor& a, int64_t axis, bool keepdim = false);
Tensor Max(const Tensor& a, int64_t axis, bool keepdim = false);

/// Full reduction to a rank-0 scalar tensor.
Tensor SumAll(const Tensor& a);
float MaxAll(const Tensor& a);
float MinAll(const Tensor& a);

/// Sums `a` down to `target` (which must be broadcast-compatible with and
/// no larger than a.shape()). This is the adjoint of broadcasting.
Tensor ReduceTo(const Tensor& a, const Shape& target);

/// Swaps two axes, materializing a contiguous result.
Tensor Transpose(const Tensor& a, int64_t axis0, int64_t axis1);

/// Concatenates tensors along `axis`; all other dims must match.
Tensor Concat(const std::vector<Tensor>& parts, int64_t axis);

/// Returns a[..., start:end, ...] along `axis` (copy).
Tensor Slice(const Tensor& a, int64_t axis, int64_t start, int64_t end);

/// Selects rows along `axis` by index (gather). Indices may repeat.
Tensor IndexSelect(const Tensor& a, int64_t axis,
                   const std::vector<int64_t>& indices);

/// Scatter-add: dst[..., indices[i], ...] += src[..., i, ...] along `axis`.
/// This is the adjoint of IndexSelect.
void IndexAddInto(Tensor& dst, int64_t axis,
                  const std::vector<int64_t>& indices, const Tensor& src);

/// Numerically stable softmax along `axis`.
Tensor Softmax(const Tensor& a, int64_t axis);

/// True when all elements satisfy |a - b| <= atol + rtol * |b|.
bool AllClose(const Tensor& a, const Tensor& b, float atol = 1e-5f,
              float rtol = 1e-4f);

/// True if any element is NaN or infinite.
bool HasNonFinite(const Tensor& a);

}  // namespace sagdfn::tensor

#endif  // SAGDFN_TENSOR_TENSOR_OPS_H_
