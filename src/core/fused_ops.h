#ifndef SAGDFN_CORE_FUSED_OPS_H_
#define SAGDFN_CORE_FUSED_OPS_H_

#include <cstdint>
#include <vector>

#include "autograd/ops.h"
#include "graph/csr.h"

namespace sagdfn::core {

/// One diffusion step of the slim graph convolution, fused:
///
///   next[b, i, :] = (sum_j a_s[i, j] * term[b, idx[j], :] + term[b, i, :])
///                   * inv_deg[i]
///
/// replacing the IndexSelect -> BatchedMatMul -> Add -> Mul chain in
/// FastGraphConv::Forward. No gathered [B, K, C] tensor is ever built:
/// each output row streams the indexed term rows through the dispatched
/// axpy kernel (zero entries of a_s skipped, mirroring MatMul's slim
/// sparsity), so an encoder rollout allocates one tensor per step instead
/// of four. Backward recomputes the small intermediates into the calling
/// thread's ScratchArena.
///
/// Shapes: a_s [N, K], term [B, N, C], inv_deg [N, 1]; index_set holds K
/// indices into [0, N). Gradients flow to all three tensor inputs.
autograd::Variable OneStepFastGConv(const autograd::Variable& a_s,
                                    const autograd::Variable& term,
                                    const std::vector<int64_t>& index_set,
                                    const autograd::Variable& inv_deg);

/// Fused candidate-input build for GConvGruCell: given the gate-conv
/// pre-activations `gates` [B, N, 2H] in [r|z] layout, writes
///   out[b, i, :] = [ x[b, i, :] | sigmoid(gates_r[b, i, :]) * h[b, i, :] ]
/// with out [B, N, C+H]. Replaces the Sigmoid(Slice) -> Mul -> Concat
/// chain; the reset gate r is only materialized when gradients are being
/// recorded.
autograd::Variable GruCandidateInput(const autograd::Variable& gates,
                                     const autograd::Variable& x,
                                     const autograd::Variable& h);

/// Fused GRU tail for GConvGruCell: given the gate-conv pre-activations
/// `gates` [B, N, 2H] ([r|z]), the previous state `h` [B, N, H] and the
/// candidate-conv pre-activation `c_pre` [B, N, H], computes per element
///   z = sigmoid(gates_z), t = tanh(c_pre), out = z*h + (1-z)*t
/// in one pass (the Sigmoid(Slice) -> Tanh -> gru_blend chain collapsed).
/// z and t are only materialized when gradients are being recorded. The
/// blend is the gru_blend kernel's exact instruction sequence, so results
/// are bit-identical to that chain.
autograd::Variable GruTailBlend(const autograd::Variable& gates,
                                const autograd::Variable& h,
                                const autograd::Variable& c_pre);

// Raw-pointer forward cores, shared between the autograd ops above and
// the eval-mode rollout plan (core/rollout_plan). Replaying through these
// keeps plan output bit-identical to eager Predict: same kernels, same
// per-row accumulation order.

/// One diffusion step into `out` [batch, n, c]: exactly the forward pass
/// of OneStepFastGConv. `out` must not alias `term` (rows gather from
/// other rows).
void OneStepFastGConvInto(const float* a_s, const float* term,
                          const float* inv_deg,
                          const std::vector<int64_t>& index_set,
                          int64_t batch, int64_t n, int64_t c, float* out);

/// CSR variant of OneStepFastGConvInto: one diffusion step into `out`
/// [batch, n, c] walking only the nonzeros of `csr` = CsrFromDense(a_s),
/// parallelized over (batch x node-shard) tasks. Each task owns a
/// contiguous block of output rows, so writes are disjoint and the
/// result is bit-identical to OneStepFastGConvInto for any thread count
/// or shard partition. `out` must not alias `term`. No model path calls
/// it (every rollout diffuses dense); it stays for the diffusion probes
/// in perfbench and bench_table4_graphsize, and for csr_test.
void OneStepFastGConvCsrInto(const graph::CsrMatrix& csr, const float* term,
                             const float* inv_deg,
                             const std::vector<int64_t>& index_set,
                             const graph::NodeShards& shards, int64_t batch,
                             int64_t n, int64_t c, float* out);

/// Row-loop core of GruCandidateInput over `rows` = B*N rows. `gates`
/// rows have stride 2*hd ([r|z]); `out` rows have stride c + hd. When
/// `copy_x` is false the x head of each out row is assumed to already be
/// in place and only the r*h tail is written (the rollout plan reuses its
/// [x|h] staging buffer this way). `r_out` (rows x hd) may be null.
void GruCandidateInputInto(const float* gates, const float* x, const float* h,
                           float* out, float* r_out, int64_t rows, int64_t c,
                           int64_t hd, bool copy_x);

/// Row-loop core of GruTailBlend over `rows` = B*N rows. `gates` rows
/// have stride 2*hd; the z half is read. `out` may alias `h` (the plan
/// updates hidden state in place); `z_out` / `t_out` (rows x hd) may be
/// null.
void GruTailBlendInto(const float* gates, const float* h, const float* c_pre,
                      float* out, float* z_out, float* t_out, int64_t rows,
                      int64_t hd);

}  // namespace sagdfn::core

#endif  // SAGDFN_CORE_FUSED_OPS_H_
