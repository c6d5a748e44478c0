// AVX2+FMA kernel table. This translation unit is compiled with
// -mavx2 -mfma -ffp-contract=off (see src/tensor/CMakeLists.txt) and
// must only be CALLED after runtime CPUID detection confirms support —
// simd.cc guarantees that. Every kernel has one definition, in
// simd_elementwise.h; the table binds this TU's auto-vectorised compile
// of it, except for the kernels below, which keep hand-written lanes
// because they measure faster (DESIGN.md §5f lists the reasons).
//
// A hand body gives the bits of its definition for every element,
// whatever the element's offset in the call's range: the lanes issue
// the definition's operations in its order, an fma exactly where it
// writes std::fma, and the partial tail runs the definition itself. So
// results do not depend on how callers partition a range across threads
// or where an element lands inside a batch, and the scalar level gives
// the same bytes. The dot/sum/masked_err reductions fix their lane
// accumulator layout per call, which the definitions replay.
#include "tensor/simd_internal.h"

#if defined(SAGDFN_SIMD_AVX2_TU)

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "tensor/simd_elementwise.h"

namespace sagdfn::tensor::simd::internal {
namespace {

// ---------------------------------------------------------------------------
// The polynomial exp family, eight lanes at a time: ExpOne, SigmoidOne and
// TanhOne of simd_elementwise.h, instruction for instruction. GCC does
// not vectorise those definitions as fast as these bodies run.
// ---------------------------------------------------------------------------

inline __m256 ExpPs(__m256 x) {
  const __m256 exp_hi = _mm256_set1_ps(88.3762626647950f);
  const __m256 exp_lo = _mm256_set1_ps(-88.3762626647949f);
  const __m256 log2e = _mm256_set1_ps(1.44269504088896341f);
  const __m256 c1 = _mm256_set1_ps(0.693359375f);
  const __m256 c2 = _mm256_set1_ps(-2.12194440e-4f);
  const __m256 p0 = _mm256_set1_ps(1.9875691500e-4f);
  const __m256 p1 = _mm256_set1_ps(1.3981999507e-3f);
  const __m256 p2 = _mm256_set1_ps(8.3334519073e-3f);
  const __m256 p3 = _mm256_set1_ps(4.1665795894e-2f);
  const __m256 p4 = _mm256_set1_ps(1.6666665459e-1f);
  const __m256 p5 = _mm256_set1_ps(5.0000001201e-1f);
  const __m256 one = _mm256_set1_ps(1.0f);

  // Remember the out-of-range lanes before clamping.
  const __m256 overflow = _mm256_cmp_ps(x, exp_hi, _CMP_GT_OQ);
  const __m256 underflow = _mm256_cmp_ps(x, exp_lo, _CMP_LT_OQ);
  const __m256 nan_mask = _mm256_cmp_ps(x, x, _CMP_UNORD_Q);

  __m256 xc = _mm256_min_ps(_mm256_max_ps(x, exp_lo), exp_hi);

  // n = round(x * log2(e)); r = x - n*ln2 (split-constant Cody-Waite).
  __m256 fx = _mm256_round_ps(
      _mm256_mul_ps(xc, log2e),
      _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  __m256 r = _mm256_fnmadd_ps(fx, c1, xc);
  r = _mm256_fnmadd_ps(fx, c2, r);
  const __m256 r2 = _mm256_mul_ps(r, r);

  __m256 y = p0;
  y = _mm256_fmadd_ps(y, r, p1);
  y = _mm256_fmadd_ps(y, r, p2);
  y = _mm256_fmadd_ps(y, r, p3);
  y = _mm256_fmadd_ps(y, r, p4);
  y = _mm256_fmadd_ps(y, r, p5);
  y = _mm256_fmadd_ps(y, r2, _mm256_add_ps(r, one));

  // Scale by 2^n through the exponent bits.
  const __m256i n = _mm256_cvtps_epi32(fx);
  const __m256i pow2n =
      _mm256_slli_epi32(_mm256_add_epi32(n, _mm256_set1_epi32(127)), 23);
  y = _mm256_mul_ps(y, _mm256_castsi256_ps(pow2n));

  y = _mm256_blendv_ps(y, _mm256_set1_ps(HUGE_VALF), overflow);
  y = _mm256_blendv_ps(y, _mm256_setzero_ps(), underflow);
  y = _mm256_blendv_ps(y, x, nan_mask);  // propagate the original NaN
  return y;
}

inline __m256 AbsPs(__m256 x) {
  return _mm256_andnot_ps(_mm256_set1_ps(-0.0f), x);
}

inline __m256 SigmoidPs(__m256 x) {
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 z = ExpPs(_mm256_xor_ps(AbsPs(x), _mm256_set1_ps(-0.0f)));
  const __m256 denom = _mm256_add_ps(one, z);
  const __m256 nonneg = _mm256_cmp_ps(x, _mm256_setzero_ps(), _CMP_GE_OQ);
  const __m256 num = _mm256_blendv_ps(z, one, nonneg);
  __m256 y = _mm256_div_ps(num, denom);
  const __m256 nan_mask = _mm256_cmp_ps(x, x, _CMP_UNORD_Q);
  return _mm256_blendv_ps(y, x, nan_mask);
}

inline __m256 TanhPs(__m256 x) {
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 ax = AbsPs(x);
  const __m256 t = ExpPs(_mm256_mul_ps(ax, _mm256_set1_ps(-2.0f)));
  __m256 y = _mm256_div_ps(_mm256_sub_ps(one, t), _mm256_add_ps(one, t));
  y = _mm256_or_ps(y, _mm256_and_ps(x, _mm256_set1_ps(-0.0f)));
  const __m256 nan_mask = _mm256_cmp_ps(x, x, _CMP_UNORD_Q);
  return _mm256_blendv_ps(y, x, nan_mask);
}

void VExpAvx2(const float* a, float* o, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(o + i, ExpPs(_mm256_loadu_ps(a + i)));
  }
  VExp(a + i, o + i, n - i);
}
void SigmoidAvx2(const float* a, float* o, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(o + i, SigmoidPs(_mm256_loadu_ps(a + i)));
  }
  Sigmoid(a + i, o + i, n - i);
}
void VTanhAvx2(const float* a, float* o, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(o + i, TanhPs(_mm256_loadu_ps(a + i)));
  }
  VTanh(a + i, o + i, n - i);
}

void AxpyAvx2(float a, const float* x, float* dst, int64_t n) {
  const __m256 va = _mm256_set1_ps(a);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(dst + i,
                     _mm256_fmadd_ps(va, _mm256_loadu_ps(x + i),
                                     _mm256_loadu_ps(dst + i)));
  }
  Axpy(a, x + i, dst + i, n - i);
}

/// Sums the four doubles of `v` in fixed lane order (FoldLanes).
inline double HSum4(__m256d v) {
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, v);
  return FoldLanes(lanes);
}

double DotAvx2(const float* a, const float* b, int64_t n) {
  __m256d acc_lo = _mm256_setzero_pd();
  __m256d acc_hi = _mm256_setzero_pd();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 va = _mm256_loadu_ps(a + i);
    const __m256 vb = _mm256_loadu_ps(b + i);
    acc_lo = _mm256_fmadd_pd(
        _mm256_cvtps_pd(_mm256_castps256_ps128(va)),
        _mm256_cvtps_pd(_mm256_castps256_ps128(vb)), acc_lo);
    acc_hi = _mm256_fmadd_pd(
        _mm256_cvtps_pd(_mm256_extractf128_ps(va, 1)),
        _mm256_cvtps_pd(_mm256_extractf128_ps(vb, 1)), acc_hi);
  }
  double acc = HSum4(_mm256_add_pd(acc_lo, acc_hi));
  for (; i < n; ++i) {
    acc = std::fma(static_cast<double>(a[i]), static_cast<double>(b[i]), acc);
  }
  return acc;
}
double SumAvx2(const float* a, int64_t n) {
  __m256d acc_lo = _mm256_setzero_pd();
  __m256d acc_hi = _mm256_setzero_pd();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(a + i);
    acc_lo = _mm256_add_pd(acc_lo,
                           _mm256_cvtps_pd(_mm256_castps256_ps128(v)));
    acc_hi = _mm256_add_pd(acc_hi,
                           _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1)));
  }
  double acc = HSum4(_mm256_add_pd(acc_lo, acc_hi));
  for (; i < n; ++i) acc += a[i];
  return acc;
}

// ---------------------------------------------------------------------------
// Register-resident row kernels. Output rows run in tiles of R consecutive
// rows by one column block of up to kRowVecs vectors (32 floats). The
// R x NV accumulators stay in ymm registers across the whole term loop,
// and each term's B row (for diffusion, the gathered src row) is loaded
// once per tile and feeds every row of it. The zero-skip stays per
// (row, term), so each output element goes through exactly the fma
// sequence of the axpy composition whatever tile it lands in. A partial
// last vector is loaded and stored under a lane mask (masked-off lanes
// are neither read nor written, so a row may end at a page boundary); its
// fmadd/mul lanes round exactly like the std::fma / `*=` scalar tails of
// Axpy and Scale.
// ---------------------------------------------------------------------------

constexpr int kRowVecs = 4;

/// Rows per tile for an NV-vector column block: the largest of 8, 4, 2
/// whose R * NV accumulators, NV B vectors and one broadcast fit the 16
/// ymm registers.
constexpr int TileRows(int nv) { return nv == 1 ? 8 : nv == 2 ? 4 : 2; }
static_assert([] {
  for (int nv = 1; nv <= kRowVecs; ++nv) {
    if (TileRows(nv) * nv + nv + 1 > 16) return false;
  }
  return true;
}());

/// Mask enabling the first `live` (1..8) lanes.
inline __m256i LaneMask(int64_t live) {
  static const int32_t kBits[16] = {-1, -1, -1, -1, -1, -1, -1, -1,
                                    0,  0,  0,  0,  0,  0,  0,  0};
  return _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(kBits + 8 - live));
}

/// Loads vector v of a block; only the last vector of a kTail block is
/// partial.
template <int NV, bool kTail>
inline __m256 LoadVec(const float* p, int v, __m256i mask) {
  if (kTail && v == NV - 1) return _mm256_maskload_ps(p + 8 * v, mask);
  return _mm256_loadu_ps(p + 8 * v);
}
template <int NV, bool kTail>
inline void StoreVec(float* p, int v, __m256 x, __m256i mask) {
  if (kTail && v == NV - 1) {
    _mm256_maskstore_ps(p + 8 * v, mask, x);
  } else {
    _mm256_storeu_ps(p + 8 * v, x);
  }
}

/// One R-row x NV-vector tile: out[r] = (init[r] + sum over t of
/// a[r * m + t] * b_row(t)) * scale[r] for r < R, skipping zero weights
/// per row and the multiply when `scale` is null. `init` and `out` rows
/// are `ld` floats apart and may be the same rows. The row loops carry
/// unroll pragmas: without them GCC 12 keeps some R = 8 accumulators on
/// the stack.
template <int R, int NV, bool kTail, typename BRow>
inline void RowTile(const float* init, const float* a, int64_t m, BRow b_row,
                    const float* scale, float* out, int64_t ld,
                    __m256i mask) {
  __m256 acc[R][NV];
#pragma GCC unroll 8
  for (int r = 0; r < R; ++r) {
    for (int v = 0; v < NV; ++v) {
      acc[r][v] = LoadVec<NV, kTail>(init + r * ld, v, mask);
    }
  }
  for (int64_t t = 0; t < m; ++t) {
    const float* row = b_row(t);
    __m256 bv[NV];
    for (int v = 0; v < NV; ++v) bv[v] = LoadVec<NV, kTail>(row, v, mask);
#pragma GCC unroll 8
    for (int r = 0; r < R; ++r) {
      const float av = a[r * m + t];
      if (av == 0.0f) continue;
      const __m256 va = _mm256_set1_ps(av);
      for (int v = 0; v < NV; ++v) {
        acc[r][v] = _mm256_fmadd_ps(va, bv[v], acc[r][v]);
      }
    }
  }
#pragma GCC unroll 8
  for (int r = 0; r < R; ++r) {
    if (scale != nullptr) {
      const __m256 vs = _mm256_set1_ps(scale[r]);
      for (int v = 0; v < NV; ++v) acc[r][v] = _mm256_mul_ps(acc[r][v], vs);
    }
    for (int v = 0; v < NV; ++v) {
      StoreVec<NV, kTail>(out + r * ld, v, acc[r][v], mask);
    }
  }
}

/// Runs RowTile over `rows` rows of width w (init, out and a rows are w,
/// w and m floats apart): for each <= 32-float column block, full tiles
/// of TileRows(NV) rows, then the leftover rows one at a time.
template <typename BRow>
void RowTiles(const float* init, const float* a, int64_t m, BRow b_row,
              const float* scale, float* out, int64_t rows, int64_t w) {
  for (int64_t b0 = 0; b0 < w; b0 += 8 * kRowVecs) {
    const int64_t width = std::min<int64_t>(8 * kRowVecs, w - b0);
    const int64_t rem = width % 8;
    const __m256i mask = LaneMask(rem == 0 ? 8 : rem);
    const auto block_row = [&](int64_t t) { return b_row(t) + b0; };
    const auto run = [&]<int NV, bool kTail>() {
      constexpr int R = TileRows(NV);
      int64_t r = 0;
      for (; r + R <= rows; r += R) {
        RowTile<R, NV, kTail>(init + r * w + b0, a + r * m, m, block_row,
                              scale == nullptr ? nullptr : scale + r,
                              out + r * w + b0, w, mask);
      }
      for (; r < rows; ++r) {
        RowTile<1, NV, kTail>(init + r * w + b0, a + r * m, m, block_row,
                              scale == nullptr ? nullptr : scale + r,
                              out + r * w + b0, w, mask);
      }
    };
    switch ((width + 7) / 8 * 2 + (rem != 0 ? 1 : 0)) {
      case 2: run.template operator()<1, false>(); break;
      case 3: run.template operator()<1, true>(); break;
      case 4: run.template operator()<2, false>(); break;
      case 5: run.template operator()<2, true>(); break;
      case 6: run.template operator()<3, false>(); break;
      case 7: run.template operator()<3, true>(); break;
      case 8: run.template operator()<4, false>(); break;
      default: run.template operator()<4, true>(); break;
    }
  }
}

void DiffuseRowsAvx2(const float* self, const float* a, const int64_t* idx,
                     int64_t m, const float* src, const float* inv_deg,
                     float* out, int64_t rows, int64_t c) {
  RowTiles(self, a, m, [&](int64_t j) { return src + idx[j] * c; }, inv_deg,
           out, rows, c);
}

void MatMulRowsAvx2(const float* a, const float* b, float* o, int64_t rows,
                    int64_t k, int64_t n) {
  RowTiles(o, a, k, [&](int64_t kk) { return b + kk * n; }, nullptr, o,
           rows, n);
}

void GruBlendAvx2(const float* z, const float* h, const float* c, float* o,
                  int64_t n) {
  const __m256 one = _mm256_set1_ps(1.0f);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 vz = _mm256_loadu_ps(z + i);
    const __m256 vh = _mm256_loadu_ps(h + i);
    const __m256 vc = _mm256_loadu_ps(c + i);
    const __m256 blended = _mm256_fmadd_ps(
        vz, vh, _mm256_mul_ps(_mm256_sub_ps(one, vz), vc));
    _mm256_storeu_ps(o + i, blended);
  }
  GruBlend(z + i, h + i, c + i, o + i, n - i);
}

void SigmoidMulAvx2(const float* a, const float* b, float* o, float* r_out,
                    int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 r = SigmoidPs(_mm256_loadu_ps(a + i));
    if (r_out != nullptr) _mm256_storeu_ps(r_out + i, r);
    _mm256_storeu_ps(o + i, _mm256_mul_ps(r, _mm256_loadu_ps(b + i)));
  }
  SigmoidMul(a + i, b + i, o + i, r_out == nullptr ? nullptr : r_out + i,
             n - i);
}

void GruTailAvx2(const float* gz, const float* h, const float* c, float* o,
                 float* z_out, float* t_out, int64_t n) {
  const __m256 one = _mm256_set1_ps(1.0f);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 z = SigmoidPs(_mm256_loadu_ps(gz + i));
    const __m256 t = TanhPs(_mm256_loadu_ps(c + i));
    if (z_out != nullptr) _mm256_storeu_ps(z_out + i, z);
    if (t_out != nullptr) _mm256_storeu_ps(t_out + i, t);
    // Same blend sequence as GruBlend, so fused == unfused bit-for-bit.
    const __m256 blended = _mm256_fmadd_ps(
        z, _mm256_loadu_ps(h + i), _mm256_mul_ps(_mm256_sub_ps(one, z), t));
    _mm256_storeu_ps(o + i, blended);
  }
  GruTail(gz + i, h + i, c + i, o + i,
          z_out == nullptr ? nullptr : z_out + i,
          t_out == nullptr ? nullptr : t_out + i, n - i);
}

void GruTailGradAvx2(const float* g, const float* z, const float* t,
                     const float* h, float* dgz, float* dh, float* dc,
                     int64_t n) {
  const __m256 one = _mm256_set1_ps(1.0f);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 vg = _mm256_loadu_ps(g + i);
    const __m256 vz = _mm256_loadu_ps(z + i);
    const __m256 vt = _mm256_loadu_ps(t + i);
    const __m256 dzs = _mm256_mul_ps(vz, _mm256_sub_ps(one, vz));
    _mm256_storeu_ps(
        dgz + i,
        _mm256_mul_ps(
            _mm256_mul_ps(vg, _mm256_sub_ps(_mm256_loadu_ps(h + i), vt)),
            dzs));
    _mm256_storeu_ps(dh + i, _mm256_mul_ps(vg, vz));
    _mm256_storeu_ps(dc + i,
                     _mm256_mul_ps(_mm256_mul_ps(vg, _mm256_sub_ps(one, vz)),
                                   _mm256_fnmadd_ps(vt, vt, one)));
  }
  for (; i < n; ++i) GruTailGradAt(g, z, t, h, dgz, dh, dc, i);
}

void GruStepAvx2(const float* xi, const float* hh, const float* h, float* o,
                 float* r_out, float* z_out, float* n_out, int64_t h_len) {
  const __m256 one = _mm256_set1_ps(1.0f);
  const float* xi_z = xi + h_len;
  const float* xi_n = xi + 2 * h_len;
  const float* hh_z = hh + h_len;
  const float* hh_n = hh + 2 * h_len;
  int64_t i = 0;
  for (; i + 8 <= h_len; i += 8) {
    const __m256 r = SigmoidPs(
        _mm256_add_ps(_mm256_loadu_ps(xi + i), _mm256_loadu_ps(hh + i)));
    const __m256 z = SigmoidPs(
        _mm256_add_ps(_mm256_loadu_ps(xi_z + i), _mm256_loadu_ps(hh_z + i)));
    const __m256 nc = TanhPs(_mm256_fmadd_ps(r, _mm256_loadu_ps(hh_n + i),
                                             _mm256_loadu_ps(xi_n + i)));
    if (r_out != nullptr) _mm256_storeu_ps(r_out + i, r);
    if (z_out != nullptr) _mm256_storeu_ps(z_out + i, z);
    if (n_out != nullptr) _mm256_storeu_ps(n_out + i, nc);
    const __m256 blended = _mm256_fmadd_ps(
        z, _mm256_loadu_ps(h + i), _mm256_mul_ps(_mm256_sub_ps(one, z), nc));
    _mm256_storeu_ps(o + i, blended);
  }
  GruStepFrom(xi, hh, h, o, r_out, z_out, n_out, h_len, i);
}

MaskedErrAcc MaskedErrAvx2(const float* pred, const float* truth, int64_t n,
                           double mape_floor) {
  MaskedErrAcc acc;
  const __m256d zero_d = _mm256_setzero_pd();
  const __m256d one_d = _mm256_set1_pd(1.0);
  const __m256d floor_d = _mm256_set1_pd(mape_floor);
  const __m256d sign_d = _mm256_set1_pd(-0.0);
  __m256d abs_acc = zero_d, sq_acc = zero_d, ape_acc = zero_d;
  int64_t count = 0, ape_count = 0;
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d td = _mm256_cvtps_pd(_mm_loadu_ps(truth + i));
    const __m256d pd = _mm256_cvtps_pd(_mm_loadu_ps(pred + i));
    // truth != 0, unordered (NaN truth stays included, like the scalar
    // `truth[i] == 0.0f` skip which is false for NaN).
    const __m256d m_nz = _mm256_cmp_pd(td, zero_d, _CMP_NEQ_UQ);
    const __m256d err = _mm256_sub_pd(pd, td);
    const __m256d abs_err = _mm256_andnot_pd(sign_d, err);
    const __m256d abs_t = _mm256_andnot_pd(sign_d, td);
    abs_acc = _mm256_add_pd(abs_acc, _mm256_and_pd(abs_err, m_nz));
    const __m256d err_masked = _mm256_and_pd(err, m_nz);
    sq_acc = _mm256_fmadd_pd(err_masked, err_masked, sq_acc);
    count += _mm_popcnt_u32(
        static_cast<unsigned>(_mm256_movemask_pd(m_nz)));
    // |truth| >= floor, ordered (NaN truth drops out of MAPE, matching
    // the scalar fabs(truth) >= floor which is false for NaN).
    const __m256d m_ape = _mm256_cmp_pd(abs_t, floor_d, _CMP_GE_OQ);
    const __m256d safe_t = _mm256_blendv_pd(one_d, abs_t, m_ape);
    ape_acc = _mm256_add_pd(
        ape_acc, _mm256_and_pd(_mm256_div_pd(abs_err, safe_t), m_ape));
    ape_count += _mm_popcnt_u32(
        static_cast<unsigned>(_mm256_movemask_pd(m_ape)));
  }
  acc.abs = HSum4(abs_acc);
  acc.sq = HSum4(sq_acc);
  acc.ape = HSum4(ape_acc);
  acc.count = count;
  acc.ape_count = ape_count;
  for (; i < n; ++i) MaskedErrOne(pred[i], truth[i], mape_floor, acc);
  return acc;
}

}  // namespace

bool Avx2CompiledIn() { return true; }

const Kernels& Avx2Kernels() {
  static const Kernels table = {
      .add = Add,
      .sub = Sub,
      .mul = Mul,
      .div = Div,
      .add_s = AddS,
      .sub_s = SubS,
      .rsub_s = RSubS,
      .mul_s = MulS,
      .div_s = DivS,
      .rdiv_s = RDivS,
      .acc_add = AccAdd,
      .max_into = MaxInto,
      .neg = Neg,
      .vabs = VAbs,
      .relu = Relu,
      .vexp = VExpAvx2,
      .sigmoid = SigmoidAvx2,
      .vtanh = VTanhAvx2,
      .sigmoid_grad = SigmoidGrad,
      .tanh_grad = TanhGrad,
      .relu_grad = ReluGrad,
      .axpy = AxpyAvx2,
      .scale = Scale,
      .dot = DotAvx2,
      .sum = SumAvx2,
      .diffuse_rows = DiffuseRowsAvx2,
      .matmul_rows = MatMulRowsAvx2,
      .gru_blend = GruBlendAvx2,
      .sigmoid_mul = SigmoidMulAvx2,
      .gru_tail = GruTailAvx2,
      .sigmoid_mul_grad = SigmoidMulGrad,
      .gru_tail_grad = GruTailGradAvx2,
      .gru_step = GruStepAvx2,
      .gru_step_grad = GruStepGrad,
      .masked_err = MaskedErrAvx2,
  };
  return table;
}

}  // namespace sagdfn::tensor::simd::internal

#else  // !SAGDFN_SIMD_AVX2_TU

namespace sagdfn::tensor::simd::internal {

bool Avx2CompiledIn() { return false; }

const Kernels& Avx2Kernels() { return ScalarKernels(); }

}  // namespace sagdfn::tensor::simd::internal

#endif  // SAGDFN_SIMD_AVX2_TU
