#include "core/fused_ops.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "tensor/simd.h"
#include "tensor/tensor_ops.h"
#include "utils/arena.h"
#include "utils/check.h"
#include "utils/parallel.h"

namespace sagdfn::core {

namespace ag = ::sagdfn::autograd;
namespace simd = ::sagdfn::tensor::simd;

using ag::internal::MakeOp;
using ag::internal::Node;
using tensor::Shape;
using tensor::Tensor;
using utils::kElementwiseGrain;
using utils::ParallelFor;
using utils::ScratchArena;

namespace {

/// Takes `g` by value so a gradient built here moves into the node
/// (Node::AccumulateGrad takes over sole-owned storage).
void Accumulate(const std::shared_ptr<Node>& node, Tensor g) {
  if (node->requires_grad) node->AccumulateGrad(std::move(g));
}

/// Multiply-adds per task of a row-parallel matmul, as in
/// tensor::BatchedMatMul (the partition never changes a row's bits).
constexpr int64_t kMatMulGrainFlops = int64_t{1} << 16;

/// Row grain so each task carries roughly kElementwiseGrain elements.
int64_t RowGrain(int64_t row_len) {
  return std::max<int64_t>(
      1, kElementwiseGrain / std::max<int64_t>(1, row_len));
}

}  // namespace

void OneStepFastGConvInto(const float* a_s, const float* term,
                          const float* inv_deg,
                          const std::vector<int64_t>& index_set,
                          int64_t batch, int64_t n, int64_t c, float* out) {
  const int64_t k = static_cast<int64_t>(index_set.size());
  const int64_t* idx = index_set.data();
  // Each (b, i) output row is owned by exactly one task; the j scan runs
  // in ascending order inside a row, so accumulation order (and the
  // result) is independent of the partition. A task's range is split at
  // batch boundaries, so one diffuse_rows call never straddles two
  // batches' term slabs.
  ParallelFor(0, batch * n, RowGrain(c), [&](int64_t r0, int64_t r1) {
    const simd::Kernels& kern = simd::K();
    for (int64_t r = r0; r < r1;) {
      const int64_t b = r / n;
      const int64_t i = r - b * n;
      const int64_t rows = std::min(r1 - r, n - i);
      const float* t_base = term + b * n * c;
      kern.diffuse_rows(t_base + i * c, a_s + i * k, idx, k, t_base,
                        inv_deg + i, out + r * c, rows, c);
      r += rows;
    }
  });
}

void OneStepFastGConvCsrInto(const graph::CsrMatrix& csr, const float* term,
                             const float* inv_deg,
                             const std::vector<int64_t>& index_set,
                             const graph::NodeShards& shards, int64_t batch,
                             int64_t n, int64_t c, float* out) {
  const int64_t* idx = index_set.data();
  const int64_t* row_ptr = csr.row_ptr.data();
  const int32_t* col = csr.col.data();
  const float* val = csr.val.data();
  const int64_t num_shards = shards.count();
  // One task per (batch, shard): a contiguous block of output rows sized
  // to stay cache-resident. Within a row the nonzero scan is ascending —
  // the same axpy sequence the dense kernel issues after its zero-skip —
  // so the output is byte-identical to OneStepFastGConvInto.
  ParallelFor(0, batch * num_shards, 1, [&](int64_t t0, int64_t t1) {
    const simd::Kernels& kern = simd::K();
    for (int64_t t = t0; t < t1; ++t) {
      const int64_t b = t / num_shards;
      const int64_t s = t - b * num_shards;
      const float* t_base = term + b * n * c;
      float* out_base = out + b * n * c;
      for (int64_t i = shards.begin(s); i < shards.end(s); ++i) {
        float* out_row = out_base + i * c;
        std::memcpy(out_row, t_base + i * c, sizeof(float) * c);
        for (int64_t e = row_ptr[i]; e < row_ptr[i + 1]; ++e) {
          kern.axpy(val[e], t_base + idx[col[e]] * c, out_row, c);
        }
        kern.scale(out_row, inv_deg[i], c);
      }
    }
  });
}

void GruCandidateInputInto(const float* gates, const float* x, const float* h,
                           float* out, float* r_out, int64_t rows, int64_t c,
                           int64_t hd, bool copy_x) {
  const int64_t out_stride = c + hd;
  ParallelFor(0, rows, RowGrain(out_stride), [&](int64_t r0, int64_t r1) {
    const simd::Kernels& kern = simd::K();
    for (int64_t r = r0; r < r1; ++r) {
      float* out_row = out + r * out_stride;
      if (copy_x) {
        std::memcpy(out_row, x + r * c, sizeof(float) * c);
      }
      kern.sigmoid_mul(gates + r * 2 * hd, h + r * hd, out_row + c,
                       r_out == nullptr ? nullptr : r_out + r * hd, hd);
    }
  });
}

void GruTailBlendInto(const float* gates, const float* h, const float* c_pre,
                      float* out, float* z_out, float* t_out, int64_t rows,
                      int64_t hd) {
  ParallelFor(0, rows, RowGrain(hd), [&](int64_t r0, int64_t r1) {
    const simd::Kernels& kern = simd::K();
    for (int64_t r = r0; r < r1; ++r) {
      kern.gru_tail(gates + r * 2 * hd + hd, h + r * hd, c_pre + r * hd,
                    out + r * hd, z_out == nullptr ? nullptr : z_out + r * hd,
                    t_out == nullptr ? nullptr : t_out + r * hd, hd);
    }
  });
}

void OneStepFastGConvBackwardInto(const float* a_s, const float* term,
                                  const float* inv_deg, const float* out,
                                  const std::vector<int64_t>& index_set,
                                  const float* g, int64_t batch, int64_t n,
                                  int64_t c, float* d_a, float* d_inv,
                                  float* d_term, bool term_grad) {
  const int64_t kk = static_cast<int64_t>(index_set.size());
  const int64_t* idx = index_set.data();

  // gm = g * inv_deg (the gradient at `mixed`, before normalization)
  // doubles as the direct d_term contribution; it is materialized into
  // the d_term buffer and read back by the a_s / gather passes BEFORE the
  // scatter pass overwrites anything.
  ParallelFor(0, batch * n, RowGrain(c), [&](int64_t r0, int64_t r1) {
    const simd::Kernels& kern = simd::K();
    for (int64_t r = r0; r < r1; ++r) {
      const int64_t i = r % n;
      kern.mul_s(g + r * c, inv_deg[i], d_term + r * c, c);
    }
  });

  if (d_a != nullptr) {
    // d_a[i, j] = sum_b dot(gm[b, i, :], term[b, idx[j], :]): one
    // dot_gather call per (i, b) covers every j, adding the batches' dots
    // in ascending order. Disjoint a_s rows per task.
    ParallelFor(0, n, RowGrain(kk * c * batch), [&](int64_t i0, int64_t i1) {
      const simd::Kernels& kern = simd::K();
      ScratchArena& arena = ScratchArena::ThreadLocal();
      ScratchArena::Scope scope(arena);
      double* acc = arena.AllocArray<double>(kk);
      for (int64_t i = i0; i < i1; ++i) {
        std::fill_n(acc, kk, 0.0);
        for (int64_t b = 0; b < batch; ++b) {
          kern.dot_gather(d_term + (b * n + i) * c, term + b * n * c, idx, kk,
                          c, acc);
        }
        float* da_row = d_a + i * kk;
        for (int64_t j = 0; j < kk; ++j) {
          da_row[j] = static_cast<float>(acc[j]);
        }
      }
    });
  }

  if (d_inv != nullptr) {
    // d_inv[i] = sum_{b,c} g * mixed, with mixed recomputed as out / inv
    // (inv = 1/(deg+1) is never zero).
    ParallelFor(0, n, RowGrain(batch * c), [&](int64_t i0, int64_t i1) {
      const simd::Kernels& kern = simd::K();
      for (int64_t i = i0; i < i1; ++i) {
        double acc = 0.0;
        for (int64_t b = 0; b < batch; ++b) {
          acc += kern.dot(g + (b * n + i) * c, out + (b * n + i) * c, c);
        }
        d_inv[i] = static_cast<float>(acc / inv_deg[i]);
      }
    });
  }

  if (!term_grad) return;
  // Gather backward: dG_b = a_s^T gm_b ([K, C]), then d_term[b, idx[j], :]
  // += dG_b[j, :]. a_s^T is built once in the calling thread's arena;
  // each dG_b row is one MatMulRowsInto row, the fma chain over ascending
  // i with zero weights skipped that an axpy per (i, j) would run. dG_b
  // lives in the worker's arena and is fully computed (reads of gm done)
  // before the scatter writes into the same batch slab — idx[j] may alias
  // any row, including i itself. Batches are disjoint per task; the j
  // scatter runs in ascending order, so repeated indices accumulate
  // deterministically.
  ScratchArena& arena = ScratchArena::ThreadLocal();
  ScratchArena::Scope scope(arena);
  float* a_t = arena.AllocArray<float>(kk * n);
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < kk; ++j) a_t[j * n + i] = a_s[i * kk + j];
  }
  ParallelFor(0, batch, 1, [&](int64_t b0, int64_t b1) {
    const simd::Kernels& kern = simd::K();
    ScratchArena& task_arena = ScratchArena::ThreadLocal();
    ScratchArena::Scope task_scope(task_arena);
    float* dg = task_arena.AllocArray<float>(kk * c);
    for (int64_t b = b0; b < b1; ++b) {
      float* dt_base = d_term + b * n * c;
      tensor::MatMulRowsInto(a_t, dt_base, dg, 0, kk, n, c);
      for (int64_t j = 0; j < kk; ++j) {
        kern.acc_add(dt_base + idx[j] * c, dg + j * c, c);
      }
    }
  });
}

ag::Variable GraphConv(const ag::Variable& a_s,
                       const std::vector<int64_t>& index_set,
                       const ag::Variable& inv_deg, const ag::Variable& x,
                       const std::vector<ag::Variable>& weights,
                       const ag::Variable& bias) {
  SAGDFN_CHECK_EQ(x.shape().ndim(), 3);
  SAGDFN_CHECK_EQ(a_s.shape().ndim(), 2);
  const int64_t batch = x.dim(0);
  const int64_t n = x.dim(1);
  const int64_t c = x.dim(2);
  const int64_t k = static_cast<int64_t>(index_set.size());
  const int64_t steps = static_cast<int64_t>(weights.size());
  SAGDFN_CHECK_GE(steps, 1);
  const int64_t o = bias.size();
  SAGDFN_CHECK_EQ(bias.shape().ndim(), 1);
  for (const ag::Variable& w : weights) {
    SAGDFN_CHECK_EQ(w.shape().ndim(), 2);
    SAGDFN_CHECK_EQ(w.dim(0), c);
    SAGDFN_CHECK_EQ(w.dim(1), o);
  }
  if (steps > 1) {
    SAGDFN_CHECK_EQ(a_s.dim(0), n);
    SAGDFN_CHECK_EQ(a_s.dim(1), k);
    SAGDFN_CHECK_EQ(inv_deg.dim(0), n);
    SAGDFN_CHECK_EQ(inv_deg.size(), n);
    for (int64_t j = 0; j < k; ++j) {
      SAGDFN_CHECK_GE(index_set[j], 0);
      SAGDFN_CHECK_LT(index_set[j], n);
    }
  }

  // The diffusion series term_1 .. term_{J-1}; term_0 is x itself. The
  // backward reads them all, so they live as long as the node.
  std::vector<Tensor> terms;
  terms.reserve(steps - 1);
  const float* prev = x.value().data();
  for (int64_t j = 1; j < steps; ++j) {
    Tensor t{Shape({batch, n, c})};
    OneStepFastGConvInto(a_s.value().data(), prev, inv_deg.value().data(),
                         index_set, batch, n, c, t.data());
    prev = t.data();
    terms.push_back(std::move(t));
  }

  // out = ((p_0 + p_1) + ...) + bias row by row, p_j = term_j W_j by the
  // per-row matmul chain of tensor::BatchedMatMul, each p_j (j >= 1)
  // staged in the task's arena and added in ascending j: the elementwise
  // Add chain the composed ops ran, without taping any p_j or partial
  // sum.
  Tensor out{Shape({batch, n, o})};
  float* po = out.data();
  const float* pb = bias.value().data();
  const int64_t rows = batch * n;
  const int64_t grain = std::max<int64_t>(
      1, kMatMulGrainFlops / std::max<int64_t>(1, steps * c * o));
  ParallelFor(0, rows, grain, [&](int64_t r0, int64_t r1) {
    const simd::Kernels& kern = simd::K();
    tensor::MatMulRowsInto(x.value().data(), weights[0].value().data(), po,
                           r0, r1, c, o);
    ScratchArena& arena = ScratchArena::ThreadLocal();
    ScratchArena::Scope scope(arena);
    float* part =
        steps > 1 ? arena.AllocArray<float>((r1 - r0) * o) : nullptr;
    for (int64_t j = 1; j < steps; ++j) {
      tensor::MatMulRowsInto(terms[j - 1].data() + r0 * c,
                             weights[j].value().data(), part, 0, r1 - r0, c,
                             o);
      kern.acc_add(po + r0 * o, part, (r1 - r0) * o);
    }
    for (int64_t r = r0; r < r1; ++r) {
      kern.add(po + r * o, pb, po + r * o, o);
    }
  });

  // Parents in the order the composed chain's tape first reached them:
  // x (through the W_0 product), then a_s and inv_deg (through the first
  // diffusion step, so not at all when J = 1), then the leaves.
  std::vector<ag::Variable> inputs = {x};
  if (steps > 1) {
    inputs.push_back(a_s);
    inputs.push_back(inv_deg);
  }
  inputs.insert(inputs.end(), weights.begin(), weights.end());
  inputs.push_back(bias);
  auto nx = x.node();
  auto na = a_s.node();
  auto ninv = inv_deg.node();
  std::vector<std::shared_ptr<Node>> nw;
  nw.reserve(steps);
  for (const ag::Variable& w : weights) nw.push_back(w.node());
  auto nb = bias.node();
  std::vector<int64_t> idx = index_set;
  return MakeOp(
      "GraphConv", std::move(out), inputs,
      [nx, na, ninv, nw, nb, idx, terms = std::move(terms), batch, n, c,
       steps](const Tensor& g) {
        if (nb->requires_grad) {
          Accumulate(nb, tensor::ReduceTo(g, nb->value.shape()));
        }
        // Gradient reaching term_j for j >= 1 exists whenever anything
        // upstream of the diffusion needs one.
        const bool diffusion_grad =
            nx->requires_grad || na->requires_grad || ninv->requires_grad;
        // The diffusion step j+1's gradient into term_j, added to the W_j
        // product's: the two consumers of term_j.
        Tensor carry;
        for (int64_t j = steps - 1; j >= 0; --j) {
          const Tensor& term_j = j == 0 ? nx->value : terms[j - 1];
          if (nw[j]->requires_grad) {
            Accumulate(nw[j], tensor::BatchedMatMulTN(term_j, g, true));
          }
          if (!(j == 0 ? nx->requires_grad : diffusion_grad)) continue;
          Tensor d_term = tensor::BatchedMatMulNT(g, nw[j]->value, false);
          if (j + 1 < steps) {
            simd::K().acc_add(d_term.data(), carry.data(), d_term.size());
          }
          if (j == 0) {
            Accumulate(nx, std::move(d_term));
            break;
          }
          const Tensor& term_prev = j == 1 ? nx->value : terms[j - 2];
          Tensor d_a, d_inv;
          if (na->requires_grad) d_a = Tensor(na->value.shape());
          if (ninv->requires_grad) d_inv = Tensor(ninv->value.shape());
          carry = Tensor(term_prev.shape());
          OneStepFastGConvBackwardInto(
              na->value.data(), term_prev.data(), ninv->value.data(),
              term_j.data(), idx, d_term.data(), batch, n, c,
              na->requires_grad ? d_a.data() : nullptr,
              ninv->requires_grad ? d_inv.data() : nullptr, carry.data(),
              /*term_grad=*/j > 1 || nx->requires_grad);
          Accumulate(na, std::move(d_a));
          Accumulate(ninv, std::move(d_inv));
        }
      });
}

ag::Variable GruCandidateInput(const ag::Variable& gates,
                               const ag::Variable& x, const ag::Variable& h) {
  SAGDFN_CHECK_EQ(gates.shape().ndim(), 3);
  SAGDFN_CHECK_EQ(x.shape().ndim(), 3);
  SAGDFN_CHECK_EQ(h.shape().ndim(), 3);
  const int64_t batch = h.dim(0);
  const int64_t n = h.dim(1);
  const int64_t hd = h.dim(2);
  const int64_t c = x.dim(2);
  SAGDFN_CHECK_EQ(x.dim(0), batch);
  SAGDFN_CHECK_EQ(x.dim(1), n);
  SAGDFN_CHECK_EQ(gates.dim(0), batch);
  SAGDFN_CHECK_EQ(gates.dim(1), n);
  SAGDFN_CHECK_EQ(gates.dim(2), 2 * hd);
  const int64_t rows = batch * n;

  const bool track =
      ag::GradEnabled() &&
      (gates.requires_grad() || x.requires_grad() || h.requires_grad());
  Tensor out{Shape({batch, n, c + hd})};
  Tensor r;
  if (track) r = Tensor(h.shape());
  GruCandidateInputInto(gates.value().data(), x.value().data(),
                        h.value().data(), out.data(),
                        track ? r.data() : nullptr, rows, c, hd,
                        /*copy_x=*/true);

  auto ng = gates.node();
  auto nx = x.node();
  auto nh = h.node();
  return MakeOp(
      "GruCandidateInput", out, {gates, x, h},
      [ng, nx, nh, r, batch, n, c, hd](const Tensor& g) {
        const int64_t rows = batch * n;
        const int64_t out_stride = c + hd;
        const float* pg = g.data();
        if (nx->requires_grad) {
          // dx is the head slice of g.
          Tensor dx{Shape({batch, n, c})};
          float* pdx = dx.data();
          ParallelFor(0, rows, RowGrain(c), [&](int64_t r0, int64_t r1) {
            for (int64_t row = r0; row < r1; ++row) {
              std::memcpy(pdx + row * c, pg + row * out_stride,
                          sizeof(float) * c);
            }
          });
          Accumulate(nx, std::move(dx));
        }
        if (ng->requires_grad || nh->requires_grad) {
          const float* ph = nh->value.data();
          const float* pr = r.data();
          // Only the r half of the gate pre-activations is touched here;
          // the z half belongs to GruTailBlend's backward and both
          // accumulate into the same gates node.
          Tensor dgates{Shape({batch, n, 2 * hd})};
          Tensor dh(nh->value.shape());
          float* pdg = dgates.data();
          float* pdh = dh.data();
          ParallelFor(0, rows, RowGrain(hd), [&](int64_t r0, int64_t r1) {
            const simd::Kernels& kern = simd::K();
            for (int64_t row = r0; row < r1; ++row) {
              kern.sigmoid_mul_grad(pg + row * out_stride + c, pr + row * hd,
                                    ph + row * hd, pdg + row * 2 * hd,
                                    pdh + row * hd, hd);
            }
          });
          if (ng->requires_grad) Accumulate(ng, std::move(dgates));
          if (nh->requires_grad) Accumulate(nh, std::move(dh));
        }
      });
}

ag::Variable GruTailBlend(const ag::Variable& gates, const ag::Variable& h,
                          const ag::Variable& c_pre) {
  SAGDFN_CHECK_EQ(gates.shape().ndim(), 3);
  SAGDFN_CHECK(h.shape() == c_pre.shape());
  const int64_t batch = h.dim(0);
  const int64_t n = h.dim(1);
  const int64_t hd = h.dim(2);
  SAGDFN_CHECK_EQ(gates.dim(0), batch);
  SAGDFN_CHECK_EQ(gates.dim(1), n);
  SAGDFN_CHECK_EQ(gates.dim(2), 2 * hd);
  const int64_t rows = batch * n;

  const bool track =
      ag::GradEnabled() &&
      (gates.requires_grad() || h.requires_grad() || c_pre.requires_grad());
  Tensor out(h.shape());
  Tensor z, t;
  if (track) {
    z = Tensor(h.shape());
    t = Tensor(h.shape());
  }
  GruTailBlendInto(gates.value().data(), h.value().data(),
                   c_pre.value().data(), out.data(),
                   track ? z.data() : nullptr, track ? t.data() : nullptr,
                   rows, hd);

  auto ng = gates.node();
  auto nh = h.node();
  auto nc = c_pre.node();
  return MakeOp(
      "GruTailBlend", out, {gates, h, c_pre},
      [ng, nh, nc, z, t, batch, n, hd](const Tensor& g) {
        const int64_t rows = batch * n;
        const float* pg = g.data();
        const float* pz = z.data();
        const float* pt = t.data();
        const float* ph = nh->value.data();
        Tensor dgates{Shape({batch, n, 2 * hd})};
        Tensor dh(nh->value.shape());
        Tensor dc(nc->value.shape());
        float* pdg = dgates.data();
        float* pdh = dh.data();
        float* pdc = dc.data();
        ParallelFor(0, rows, RowGrain(hd), [&](int64_t r0, int64_t r1) {
          const simd::Kernels& kern = simd::K();
          for (int64_t row = r0; row < r1; ++row) {
            kern.gru_tail_grad(pg + row * hd, pz + row * hd, pt + row * hd,
                               ph + row * hd, pdg + row * 2 * hd + hd,
                               pdh + row * hd, pdc + row * hd, hd);
          }
        });
        Accumulate(ng, std::move(dgates));
        Accumulate(nh, std::move(dh));
        Accumulate(nc, std::move(dc));
      });
}

}  // namespace sagdfn::core
