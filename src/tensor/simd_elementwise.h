#ifndef SAGDFN_TENSOR_SIMD_ELEMENTWISE_H_
#define SAGDFN_TENSOR_SIMD_ELEMENTWISE_H_

// The exact elementwise kernels, written once and compiled at both
// levels: simd_scalar.cc builds them at the portable ISA and
// simd_avx2.cc's AVX2 branch builds them under -mavx2 -mfma, where GCC
// auto-vectorises each loop with 32-byte vectors. Every output element
// is a fixed chain of single IEEE operations with no a*b+-c expression,
// so both copies give the same bits at every offset, for NaN and signed
// zeros too (DESIGN.md §5f).
//
// Conditions for a kernel to move here:
//   - no a*b+-c expression: the AVX2 TU builds with GCC's default
//     -ffp-contract=fast, which would fuse it into an fma there only;
//   - the loop auto-vectorises to 32-byte vectors in the AVX2 TU
//     (check with -fopt-info-vec);
//   - no libm call that blocks vectorisation (sqrt under math-errno).
//
// The functions sit in an unnamed namespace so each TU keeps its own
// copy. With external inline linkage the linker could keep the AVX2 body
// for the scalar table too, which would then fault on a CPU without AVX2.
//
// Include only from the kernel-table translation units.

#include <cmath>
#include <cstdint>

namespace sagdfn::tensor::simd::internal {
namespace {

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
void VMax(const float* a, const float* b, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = a[i] > b[i] ? a[i] : b[i];
}
void VMin(const float* a, const float* b, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = a[i] < b[i] ? a[i] : b[i];
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
void MaxS(const float* a, float s, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = a[i] > s ? a[i] : s;
}
void MinS(const float* a, float s, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = a[i] < s ? a[i] : s;
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

void ReluGrad(const float* g, const float* x, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = x[i] > 0.0f ? g[i] : 0.0f;
}
void MulSub(const float* g, const float* a, const float* b, float* o,
            int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = g[i] * (a[i] - b[i]);
}
void MulOneMinus(const float* g, const float* z, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = g[i] * (1.0f - z[i]);
}
void Scale(float* dst, float s, int64_t n) {
  for (int64_t i = 0; i < n; ++i) dst[i] *= s;
}
void SigmoidMulGrad(const float* gh, const float* r, const float* h,
                    float* dg, float* dh, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    dg[i] = (gh[i] * h[i]) * (r[i] * (1.0f - r[i]));
    dh[i] = gh[i] * r[i];
  }
}

}  // namespace
}  // namespace sagdfn::tensor::simd::internal

#endif  // SAGDFN_TENSOR_SIMD_ELEMENTWISE_H_
