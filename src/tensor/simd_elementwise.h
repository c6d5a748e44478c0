#ifndef SAGDFN_TENSOR_SIMD_ELEMENTWISE_H_
#define SAGDFN_TENSOR_SIMD_ELEMENTWISE_H_

// The one definition of every SIMD kernel. simd_scalar.cc binds all of
// them at the portable ISA. simd_avx2.cc compiles them again under
// -mavx2 -mfma, where GCC auto-vectorises each loop with 32-byte
// vectors, and binds each one that has no faster hand-written body
// there. A hand body must give these functions' bits at every length
// and offset, for NaN, signed zeros, infinities and denormals too
// (tests/simd_test.cc memcmps them; DESIGN.md §5f).
//
// Both kernel TUs build with -ffp-contract=off, so an expression fuses
// into an fma only where it is written std::fma. The polynomial
// exp/sigmoid/tanh are the AVX2 lane code (ExpPs/SigmoidPs/TanhPs)
// element by element, and the reductions replay the AVX2 lane layout.
//
// A kernel may lose its hand body only when its loop here auto-vectorises
// to 32-byte vectors in the AVX2 TU (check with -fopt-info-vec) and
// keeps pace with the hand body at the widths the model calls it with.
//
// Definitions that the AVX2 TU neither binds nor calls, because a hand
// body replaces them whole, are marked [[maybe_unused]].
//
// The functions sit in an unnamed namespace so each TU keeps its own
// copy. With external inline linkage the linker could keep the AVX2 body
// for the scalar table too, which would then fault on a CPU without AVX2.
//
// Include only from the kernel-table translation units.

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "tensor/simd.h"

namespace sagdfn::tensor::simd::internal {
namespace {

// ---------------------------------------------------------------------------
// Per-element definitions
// ---------------------------------------------------------------------------

/// Cephes-style exp (the avx_mathfun constants), ~2 ulp over the clamped
/// range: +inf above it, 0 below it, a NaN input returned as is. Each
/// line is one instruction of ExpPs.
inline float ExpOne(float x) {
  constexpr float kHi = 88.3762626647950f;
  constexpr float kLo = -88.3762626647949f;
  // vmaxps(x, lo) then vminps(., hi): a NaN x clamps to lo.
  float xc = x > kLo ? x : kLo;
  xc = xc < kHi ? xc : kHi;
  // n = round(x * log2(e)); r = x - n*ln2 (split-constant Cody-Waite).
  const float fx = std::nearbyint(xc * 1.44269504088896341f);
  float r = std::fma(-fx, 0.693359375f, xc);
  r = std::fma(-fx, -2.12194440e-4f, r);
  const float r2 = r * r;
  float y = 1.9875691500e-4f;
  y = std::fma(y, r, 1.3981999507e-3f);
  y = std::fma(y, r, 8.3334519073e-3f);
  y = std::fma(y, r, 4.1665795894e-2f);
  y = std::fma(y, r, 1.6666665459e-1f);
  y = std::fma(y, r, 5.0000001201e-1f);
  y = std::fma(y, r2, r + 1.0f);
  // Scale by 2^n through the exponent bits.
  const uint32_t pow2n = static_cast<uint32_t>(static_cast<int32_t>(fx) + 127)
                         << 23;
  y *= std::bit_cast<float>(pow2n);
  if (x > kHi) y = std::numeric_limits<float>::infinity();
  if (x < kLo) y = 0.0f;
  if (x != x) y = x;
  return y;
}

/// Stable two-branch sigmoid: z = e^{-|x|} <= 1, then x >= 0 -> 1/(1+z),
/// x < 0 -> z/(1+z). A NaN input is returned as is.
inline float SigmoidOne(float x) {
  const float z = ExpOne(-std::fabs(x));
  const float y = (x >= 0.0f ? 1.0f : z) / (1.0f + z);
  return x != x ? x : y;
}

/// tanh(|x|) = (1 - e^{-2|x|}) / (1 + e^{-2|x|}) with the sign of x;
/// e^{-2|x|} <= 1, so nothing overflows. A NaN input is returned as is.
inline float TanhOne(float x) {
  const float t = ExpOne(std::fabs(x) * -2.0f);
  const float y = (1.0f - t) / (1.0f + t);
  return x != x ? x : std::copysign(y, x);
}

/// The GRU state blend z*h + (1-z)*c with the first product fused.
inline float GruBlendOne(float z, float h, float c) {
  return std::fma(z, h, (1.0f - z) * c);
}

/// Adds one element to the masked error sums: skipped when truth is 0
/// (the missing-reading convention), out of MAPE when |truth| is below
/// the floor or NaN.
inline void MaskedErrOne(float pred, float truth, double mape_floor,
                         MaskedErrAcc& acc) {
  if (truth == 0.0f) return;
  const double t = truth;
  const double err = static_cast<double>(pred) - t;
  acc.abs += std::fabs(err);
  acc.sq = std::fma(err, err, acc.sq);
  if (std::fabs(t) >= mape_floor) {
    acc.ape += std::fabs(err) / std::fabs(t);
    ++acc.ape_count;
  }
  ++acc.count;
}

/// Folds four double lanes in the fixed order of the AVX2 HSum4.
inline double FoldLanes(const double* l) {
  return ((l[0] + l[1]) + l[2]) + l[3];
}

// ---------------------------------------------------------------------------
// Elementwise kernels
// ---------------------------------------------------------------------------

void Add(const float* a, const float* b, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = a[i] + b[i];
}
void Sub(const float* a, const float* b, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = a[i] - b[i];
}
void Mul(const float* a, const float* b, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = a[i] * b[i];
}
void Div(const float* a, const float* b, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = a[i] / b[i];
}

void AddS(const float* a, float s, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = a[i] + s;
}
void SubS(const float* a, float s, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = a[i] - s;
}
void RSubS(const float* a, float s, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = s - a[i];
}
void MulS(const float* a, float s, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = a[i] * s;
}
void DivS(const float* a, float s, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = a[i] / s;
}
void RDivS(const float* a, float s, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = s / a[i];
}

void AccAdd(float* dst, const float* src, int64_t n) {
  for (int64_t i = 0; i < n; ++i) dst[i] += src[i];
}
// Stores every element, the old value where src does not win: a
// conditional store would vectorise only to a masked store, which is
// slower, and not at all at the portable ISA.
void MaxInto(float* dst, const float* src, int64_t n) {
  for (int64_t i = 0; i < n; ++i) dst[i] = src[i] > dst[i] ? src[i] : dst[i];
}

void Neg(const float* a, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = -a[i];
}
void VAbs(const float* a, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = std::fabs(a[i]);
}
void Relu(const float* a, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = a[i] > 0.0f ? a[i] : 0.0f;
}
void VExp(const float* a, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = ExpOne(a[i]);
}
void Sigmoid(const float* a, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = SigmoidOne(a[i]);
}
void VTanh(const float* a, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = TanhOne(a[i]);
}

void SigmoidGrad(const float* g, const float* out, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = g[i] * (out[i] * (1.0f - out[i]));
}
void TanhGrad(const float* g, const float* out, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = g[i] * std::fma(-out[i], out[i], 1.0f);
}
void ReluGrad(const float* g, const float* x, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = x[i] > 0.0f ? g[i] : 0.0f;
}

void Axpy(float a, const float* x, float* dst, int64_t n) {
  for (int64_t i = 0; i < n; ++i) dst[i] = std::fma(a, x[i], dst[i]);
}
void Scale(float* dst, float s, int64_t n) {
  for (int64_t i = 0; i < n; ++i) dst[i] *= s;
}

// ---------------------------------------------------------------------------
// Reductions: the AVX2 lane layout, replayed. Element i + k of each full
// 8-element block feeds double lane k (lanes 0-3 and 4-7 are the two
// AVX2 accumulators, which add lane by lane before FoldLanes); the tail
// then adds on in order. masked_err runs four lanes, and a masked-off
// lane adds +0.0 as the AVX2 and-mask does.
// ---------------------------------------------------------------------------

[[maybe_unused]] double Dot(const float* a, const float* b, int64_t n) {
  double lane[8] = {};
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    for (int k = 0; k < 8; ++k) {
      lane[k] = std::fma(static_cast<double>(a[i + k]),
                         static_cast<double>(b[i + k]), lane[k]);
    }
  }
  for (int k = 0; k < 4; ++k) lane[k] += lane[k + 4];
  double acc = FoldLanes(lane);
  for (; i < n; ++i) {
    acc = std::fma(static_cast<double>(a[i]), static_cast<double>(b[i]), acc);
  }
  return acc;
}
[[maybe_unused]] double Sum(const float* a, int64_t n) {
  double lane[8] = {};
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    for (int k = 0; k < 8; ++k) lane[k] += a[i + k];
  }
  for (int k = 0; k < 4; ++k) lane[k] += lane[k + 4];
  double acc = FoldLanes(lane);
  for (; i < n; ++i) acc += a[i];
  return acc;
}
[[maybe_unused]] MaskedErrAcc MaskedErr(const float* pred, const float* truth,
                                        int64_t n, double mape_floor) {
  double abs[4] = {}, sq[4] = {}, ape[4] = {};
  MaskedErrAcc acc;
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    for (int k = 0; k < 4; ++k) {
      const double t = truth[i + k];
      const double err = static_cast<double>(pred[i + k]) - t;
      const bool nz = !(t == 0.0);  // NaN truth counts
      const double err_nz = nz ? err : 0.0;
      abs[k] += nz ? std::fabs(err) : 0.0;
      sq[k] = std::fma(err_nz, err_nz, sq[k]);
      acc.count += nz;
      const bool in_ape = std::fabs(t) >= mape_floor;  // NaN truth does not
      ape[k] += in_ape ? std::fabs(err) / std::fabs(t) : 0.0;
      acc.ape_count += in_ape;
    }
  }
  acc.abs = FoldLanes(abs);
  acc.sq = FoldLanes(sq);
  acc.ape = FoldLanes(ape);
  for (; i < n; ++i) MaskedErrOne(pred[i], truth[i], mape_floor, acc);
  return acc;
}

// ---------------------------------------------------------------------------
// Register-resident row kernels: one <= 32-float block of the output row
// accumulates in a local array across the whole term loop; per element
// that is Axpy's fma per nonzero weight, then Scale's multiply.
// ---------------------------------------------------------------------------

constexpr int64_t kRowBlock = 32;

[[maybe_unused]] void DiffuseRows(const float* self, const float* a,
                                  const int64_t* idx, int64_t m,
                                  const float* src, const float* inv_deg,
                                  float* out, int64_t rows, int64_t c) {
  for (int64_t r = 0; r < rows; ++r) {
    const float* self_row = self + r * c;
    const float* a_row = a + r * m;
    float* out_row = out + r * c;
    for (int64_t b0 = 0; b0 < c; b0 += kRowBlock) {
      const int64_t w = c - b0 < kRowBlock ? c - b0 : kRowBlock;
      float acc[kRowBlock];
      for (int64_t i = 0; i < w; ++i) acc[i] = self_row[b0 + i];
      for (int64_t j = 0; j < m; ++j) {
        const float av = a_row[j];
        if (av == 0.0f) continue;
        const float* row = src + idx[j] * c + b0;
        for (int64_t i = 0; i < w; ++i) acc[i] = std::fma(av, row[i], acc[i]);
      }
      for (int64_t i = 0; i < w; ++i) out_row[b0 + i] = acc[i] * inv_deg[r];
    }
  }
}
[[maybe_unused]] void MatMulRows(const float* a, const float* b, float* o,
                                 int64_t rows, int64_t k, int64_t n) {
  for (int64_t r = 0; r < rows; ++r) {
    const float* a_row = a + r * k;
    float* o_row = o + r * n;
    for (int64_t b0 = 0; b0 < n; b0 += kRowBlock) {
      const int64_t w = n - b0 < kRowBlock ? n - b0 : kRowBlock;
      float acc[kRowBlock];
      for (int64_t i = 0; i < w; ++i) acc[i] = o_row[b0 + i];
      for (int64_t kk = 0; kk < k; ++kk) {
        const float av = a_row[kk];
        if (av == 0.0f) continue;
        const float* b_row = b + kk * n + b0;
        for (int64_t i = 0; i < w; ++i) acc[i] = std::fma(av, b_row[i], acc[i]);
      }
      for (int64_t i = 0; i < w; ++i) o_row[b0 + i] = acc[i];
    }
  }
}

// ---------------------------------------------------------------------------
// Model-specific fusions. Each fused output is the per-element value of
// the unfused chain, so fusing changes no bits.
// ---------------------------------------------------------------------------

void GruBlend(const float* z, const float* h, const float* c, float* o,
              int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = GruBlendOne(z[i], h[i], c[i]);
}

void SigmoidMul(const float* a, const float* b, float* o, float* r_out,
                int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    const float r = SigmoidOne(a[i]);
    if (r_out != nullptr) r_out[i] = r;
    o[i] = r * b[i];
  }
}

void GruTail(const float* gz, const float* h, const float* c, float* o,
             float* z_out, float* t_out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    const float z = SigmoidOne(gz[i]);
    const float t = TanhOne(c[i]);
    if (z_out != nullptr) z_out[i] = z;
    if (t_out != nullptr) t_out[i] = t;
    o[i] = GruBlendOne(z, h[i], t);
  }
}

void SigmoidMulGrad(const float* gh, const float* r, const float* h,
                    float* dg, float* dh, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    dg[i] = (gh[i] * h[i]) * (r[i] * (1.0f - r[i]));
    dh[i] = gh[i] * r[i];
  }
}

/// Element i of GruTailGrad; the AVX2 body runs its tail through this.
inline void GruTailGradAt(const float* g, const float* z, const float* t,
                          const float* h, float* dgz, float* dh, float* dc,
                          int64_t i) {
  dgz[i] = (g[i] * (h[i] - t[i])) * (z[i] * (1.0f - z[i]));
  dh[i] = g[i] * z[i];
  dc[i] = (g[i] * (1.0f - z[i])) * std::fma(-t[i], t[i], 1.0f);
}
[[maybe_unused]] void GruTailGrad(const float* g, const float* z,
                                  const float* t, const float* h, float* dgz,
                                  float* dh, float* dc, int64_t n) {
#pragma GCC ivdep
  for (int64_t i = 0; i < n; ++i) GruTailGradAt(g, z, t, h, dgz, dh, dc, i);
}

/// Elements [from, h_len) of GruStep; xi and hh stay [r|z|n] rows of
/// stride h_len. The AVX2 body runs its tail here.
void GruStepFrom(const float* xi, const float* hh, const float* h, float* o,
                 float* r_out, float* z_out, float* n_out, int64_t h_len,
                 int64_t from) {
  for (int64_t i = from; i < h_len; ++i) {
    const float r = SigmoidOne(xi[i] + hh[i]);
    const float z = SigmoidOne(xi[h_len + i] + hh[h_len + i]);
    const float nc =
        TanhOne(std::fma(r, hh[2 * h_len + i], xi[2 * h_len + i]));
    if (r_out != nullptr) r_out[i] = r;
    if (z_out != nullptr) z_out[i] = z;
    if (n_out != nullptr) n_out[i] = nc;
    o[i] = GruBlendOne(z, h[i], nc);
  }
}
[[maybe_unused]] void GruStep(const float* xi, const float* hh, const float* h,
                              float* o, float* r_out, float* z_out,
                              float* n_out, int64_t h_len) {
  GruStepFrom(xi, hh, h, o, r_out, z_out, n_out, h_len, 0);
}

void GruStepGrad(const float* g, const float* r, const float* z,
                 const float* nc, const float* h, const float* hh_n,
                 float* dxi, float* dhh, float* dh, int64_t h_len) {
#pragma GCC ivdep
  for (int64_t i = 0; i < h_len; ++i) {
    const float gi = g[i];
    const float zi = z[i];
    const float ri = r[i];
    const float ni = nc[i];
    const float dz_pre = (gi * (h[i] - ni)) * (zi * (1.0f - zi));
    const float dn_pre = (gi * (1.0f - zi)) * std::fma(-ni, ni, 1.0f);
    const float dr_pre = (dn_pre * hh_n[i]) * (ri * (1.0f - ri));
    dxi[i] = dr_pre;
    dxi[h_len + i] = dz_pre;
    dxi[2 * h_len + i] = dn_pre;
    dhh[i] = dr_pre;
    dhh[h_len + i] = dz_pre;
    dhh[2 * h_len + i] = dn_pre * ri;
    dh[i] = gi * zi;
  }
}

}  // namespace
}  // namespace sagdfn::tensor::simd::internal

#endif  // SAGDFN_TENSOR_SIMD_ELEMENTWISE_H_
