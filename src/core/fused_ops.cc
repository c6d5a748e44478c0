#include "core/fused_ops.h"

#include <algorithm>
#include <cstring>

#include "tensor/simd.h"
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

void Accumulate(const std::shared_ptr<Node>& node, const Tensor& g) {
  if (node->requires_grad) node->AccumulateGrad(g);
}

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

ag::Variable OneStepFastGConv(const ag::Variable& a_s,
                              const ag::Variable& term,
                              const std::vector<int64_t>& index_set,
                              const ag::Variable& inv_deg) {
  SAGDFN_CHECK_EQ(term.shape().ndim(), 3);
  SAGDFN_CHECK_EQ(a_s.shape().ndim(), 2);
  const int64_t batch = term.dim(0);
  const int64_t n = term.dim(1);
  const int64_t c = term.dim(2);
  const int64_t k = static_cast<int64_t>(index_set.size());
  SAGDFN_CHECK_EQ(a_s.dim(0), n);
  SAGDFN_CHECK_EQ(a_s.dim(1), k);
  SAGDFN_CHECK_EQ(inv_deg.dim(0), n);
  SAGDFN_CHECK_EQ(inv_deg.size(), n);
  for (int64_t j = 0; j < k; ++j) {
    SAGDFN_CHECK_GE(index_set[j], 0);
    SAGDFN_CHECK_LT(index_set[j], n);
  }

  Tensor out{Shape({batch, n, c})};
  OneStepFastGConvInto(a_s.value().data(), term.value().data(),
                       inv_deg.value().data(), index_set, batch, n, c,
                       out.data());

  auto na = a_s.node();
  auto nt = term.node();
  auto ninv = inv_deg.node();
  std::vector<int64_t> idx = index_set;
  return MakeOp(
      "OneStepFastGConv", out, {a_s, term, inv_deg},
      [na, nt, ninv, idx, out, batch, n, c, k](const Tensor& g) {
        const int64_t kk = k;
        const float* pg = g.data();
        const float* pa = na->value.data();
        const float* pt = nt->value.data();
        const float* pinv = ninv->value.data();
        const float* pout = out.data();

        // gm = g * inv_deg (the gradient at `mixed`, before normalization)
        // doubles as the direct d_term contribution; it is materialized
        // into the d_term buffer and read back by the a_s / gather passes
        // BEFORE the scatter pass overwrites anything.
        Tensor d_term{Shape({batch, n, c})};
        float* pdt = d_term.data();
        ParallelFor(0, batch * n, RowGrain(c), [&](int64_t r0, int64_t r1) {
          const simd::Kernels& kern = simd::K();
          for (int64_t r = r0; r < r1; ++r) {
            const int64_t i = r % n;
            kern.mul_s(pg + r * c, pinv[i], pdt + r * c, c);
          }
        });

        if (na->requires_grad) {
          // d_a[i, j] = sum_b dot(gm[b, i, :], term[b, idx[j], :]);
          // disjoint a_s rows per task, batch loop in ascending order.
          Tensor d_a{Shape({n, kk})};
          float* pda = d_a.data();
          ParallelFor(0, n, RowGrain(kk * c * batch),
                      [&](int64_t i0, int64_t i1) {
                        const simd::Kernels& kern = simd::K();
                        for (int64_t i = i0; i < i1; ++i) {
                          float* da_row = pda + i * kk;
                          for (int64_t j = 0; j < kk; ++j) {
                            double acc = 0.0;
                            for (int64_t b = 0; b < batch; ++b) {
                              acc += kern.dot(pdt + (b * n + i) * c,
                                              pt + (b * n + idx[j]) * c, c);
                            }
                            da_row[j] = static_cast<float>(acc);
                          }
                        }
                      });
          Accumulate(na, d_a);
        }

        if (ninv->requires_grad) {
          // d_inv[i] = sum_{b,c} g * mixed, with mixed recomputed as
          // out / inv (inv = 1/(deg+1) is never zero).
          Tensor d_inv{Shape({n, 1})};
          float* pdi = d_inv.data();
          ParallelFor(0, n, RowGrain(batch * c), [&](int64_t i0, int64_t i1) {
            const simd::Kernels& kern = simd::K();
            for (int64_t i = i0; i < i1; ++i) {
              double acc = 0.0;
              for (int64_t b = 0; b < batch; ++b) {
                acc += kern.dot(pg + (b * n + i) * c,
                                pout + (b * n + i) * c, c);
              }
              pdi[i] = static_cast<float>(acc / pinv[i]);
            }
          });
          Accumulate(ninv, d_inv);
        }

        if (nt->requires_grad) {
          // Gather backward: dG[b, j, :] = sum_i a_s[i, j] * gm[b, i, :]
          // scattered into d_term[b, idx[j], :]. dG lives in the worker's
          // ScratchArena and is fully computed (reads of gm done) before
          // the scatter writes into the same batch slab — idx[j] may
          // alias any row, including i itself. Batches are disjoint per
          // task; the j scatter runs in ascending order, so repeated
          // indices accumulate deterministically.
          ParallelFor(0, batch, 1, [&](int64_t b0, int64_t b1) {
            const simd::Kernels& kern = simd::K();
            ScratchArena& arena = ScratchArena::ThreadLocal();
            for (int64_t b = b0; b < b1; ++b) {
              ScratchArena::Scope scope(arena);
              float* dg = arena.AllocArray<float>(kk * c);
              std::memset(dg, 0, sizeof(float) * kk * c);
              const float* gm_base = pdt + b * n * c;
              for (int64_t i = 0; i < n; ++i) {
                const float* a_row = pa + i * kk;
                const float* gm_row = gm_base + i * c;
                for (int64_t j = 0; j < kk; ++j) {
                  const float av = a_row[j];
                  if (av == 0.0f) continue;
                  kern.axpy(av, gm_row, dg + j * c, c);
                }
              }
              float* dt_base = pdt + b * n * c;
              for (int64_t j = 0; j < kk; ++j) {
                kern.acc_add(dt_base + idx[j] * c, dg + j * c, c);
              }
            }
          });
          Accumulate(nt, d_term);
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
          Accumulate(nx, dx);
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
          if (ng->requires_grad) Accumulate(ng, dgates);
          if (nh->requires_grad) Accumulate(nh, dh);
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
        Accumulate(ng, dgates);
        Accumulate(nh, dh);
        Accumulate(nc, dc);
      });
}

}  // namespace sagdfn::core
