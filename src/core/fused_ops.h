#ifndef SAGDFN_CORE_FUSED_OPS_H_
#define SAGDFN_CORE_FUSED_OPS_H_

#include <cstdint>
#include <vector>

#include "autograd/ops.h"
#include "graph/csr.h"

namespace sagdfn::core {

/// The fast graph convolution of FastGraphConv (paper Eq. 9) as one
/// autograd node, J = weights.size():
///
///   out = ((term_0 W_0 + term_1 W_1) + ... + term_{J-1} W_{J-1}) + bias
///
/// with term_0 = x and term_j = OneStepFastGConvInto(term_{j-1}), one
/// slim diffusion step:
///
///   term_j[b, i, :] = (sum_m a_s[i, m] * term_{j-1}[b, idx[m], :]
///                      + term_{j-1}[b, i, :]) * inv_deg[i]
///
/// The tape holds this one node instead of the 3J - 1 nodes of the
/// composed chain (J BatchedMatMuls, J - 1 diffusion steps, J Adds). The
/// node keeps term_1 .. term_{J-1} for its backward; no product or
/// partial sum outlives the forward.
///
/// Bits: the forward runs the same per-row matmul chain as
/// tensor::BatchedMatMul and adds the products in ascending j, then the
/// bias. The backward gives the bias ReduceTo(g), then for j = J-1 down
/// to 0 gives W_j the batch-summed BatchedMatMulTN(term_j, g) and term_j
/// the sum of BatchedMatMulNT(g, W_j) and the diffusion gradient from
/// step j+1 (OneStepFastGConvBackwardInto), which also sends step j's
/// contributions to a_s and inv_deg. Each term has exactly two consumers
/// and float addition commutes, so every gradient equals the composed
/// chain's byte for byte (FusedOpsTest.GraphConv*); a_s, inv_deg, W_j and
/// the bias receive their contributions in the order the composed tape
/// gave them.
///
/// Shapes: a_s [N, K], inv_deg [N, 1], x [B, N, C], weights J x [C, O],
/// bias [O]; index_set holds K indices into [0, N). a_s and inv_deg are
/// read only when J > 1. Gradients flow to every tensor input.
autograd::Variable GraphConv(const autograd::Variable& a_s,
                             const std::vector<int64_t>& index_set,
                             const autograd::Variable& inv_deg,
                             const autograd::Variable& x,
                             const std::vector<autograd::Variable>& weights,
                             const autograd::Variable& bias);

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

// Raw-pointer cores, shared between the autograd ops above and the
// eval-mode rollout plan (core/rollout_plan). Replaying through these
// keeps plan output bit-identical to eager Predict: same kernels, same
// per-row accumulation order.

/// One diffusion step of the slim graph convolution into `out`
/// [batch, n, c]:
///
///   out[b, i, :] = (sum_j a_s[i, j] * term[b, idx[j], :] + term[b, i, :])
///                  * inv_deg[i]
///
/// No gathered [B, K, C] tensor is ever built: each output row streams
/// the indexed term rows through the dispatched axpy kernel (zero entries
/// of a_s skipped, mirroring MatMul's slim sparsity). `out` must not
/// alias `term` (rows gather from other rows).
void OneStepFastGConvInto(const float* a_s, const float* term,
                          const float* inv_deg,
                          const std::vector<int64_t>& index_set,
                          int64_t batch, int64_t n, int64_t c, float* out);

/// Backward of OneStepFastGConvInto, given `g` = dL/d(out) and the step's
/// `out`. `d_term` [batch, n, c] is always written: dL/d(term) when
/// `term_grad`, otherwise only g * inv_deg (the scratch the a_s pass
/// reads). `d_a` [n, k] and `d_inv` [n] are written when non-null.
///
/// Row kernels, not one short kernel per (row, neighbour, batch): the a_s
/// gradient is one dot_gather call per (b, i) for all K neighbours,
/// adding the batches' dots in ascending order; the gather gradient
/// dG_b = a_s^T gm_b is one MatMulRowsInto call per batch over an a_s^T
/// built once in the calling thread's ScratchArena, then scattered into
/// d_term in ascending j. Each output element keeps the fma chain of the
/// per-(i, j, b) dot and per-(b, i, j) axpy loops it replaced
/// (FusedOpsTest.OneStepFastGConvBackwardMatchesReferenceBits). `g`,
/// `out` and `term` must not alias `d_term`.
void OneStepFastGConvBackwardInto(const float* a_s, const float* term,
                                  const float* inv_deg, const float* out,
                                  const std::vector<int64_t>& index_set,
                                  const float* g, int64_t batch, int64_t n,
                                  int64_t c, float* d_a, float* d_inv,
                                  float* d_term, bool term_grad);

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
