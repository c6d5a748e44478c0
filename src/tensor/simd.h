#ifndef SAGDFN_TENSOR_SIMD_H_
#define SAGDFN_TENSOR_SIMD_H_

#include <cstdint>

namespace sagdfn::tensor::simd {

/// Instruction-set tier for the hot-path kernels.
///
/// Resolved once at startup (first kernel use): runtime CPUID detection
/// picks kAvx2 when the CPU reports AVX2+FMA, overridable with the
/// SAGDFN_SIMD environment variable:
///   SAGDFN_SIMD=off    force the portable scalar kernels
///   SAGDFN_SIMD=avx2   require AVX2 (falls back to scalar with a warning
///                      when the CPU or build lacks it)
///   SAGDFN_SIMD=auto   CPUID detection (the default)
///
/// Determinism contract (DESIGN.md §5f): every kernel has one definition
/// (src/tensor/simd_elementwise.h) that both levels compute, so results
/// are bit-identical across levels, thread counts, runs and element
/// offsets, signed zeros, infinities and denormals included. The one
/// freedom: when two NaNs with different bits meet in one operation,
/// which one a multi-input kernel propagates. The `simd`-labeled test
/// suite memcmps the levels.
enum class Level {
  kScalar = 0,
  kAvx2 = 1,
};

/// True when this binary carries AVX2 kernels and the CPU supports them.
bool Avx2Available();

/// The level in effect (resolves env/CPUID on first call).
Level ActiveLevel();

/// Overrides the active level (tests and A/B benches). Passing kAvx2 on a
/// machine without AVX2 support keeps the scalar table and returns false.
/// Not thread-safe against in-flight kernels: call between parallel
/// regions, like SetNumThreads.
bool SetActiveLevel(Level level);

/// "scalar" or "avx2".
const char* LevelName(Level level);

/// Parses a SAGDFN_SIMD value ("off"/"scalar" -> kScalar, "avx2" -> kAvx2,
/// "auto"/"" -> detected level). Unknown values fall back to detection.
Level LevelFromString(const char* value);

/// Per-block partial for the masked error reduction behind the metrics
/// (MAE/RMSE/MAPE over non-missing entries; see metrics/metrics.cc).
struct MaskedErrAcc {
  double abs = 0.0;       // sum |pred - truth|        over truth != 0
  double sq = 0.0;        // sum (pred - truth)^2      over truth != 0
  double ape = 0.0;       // sum |err| / |truth|       over |truth| >= floor
  int64_t count = 0;      // entries with truth != 0
  int64_t ape_count = 0;  // entries with |truth| >= floor
};

/// Dispatch table of the 36 contiguous-array kernels the library runs.
/// One table per Level; all entries are non-null. Pointers operate on raw
/// float arrays — callers (tensor_ops, autograd backwards, the fused GRU
/// ops, metrics, optim) own the slicing, broadcasting, and parallel
/// partitioning.
struct Kernels {
  // -- Elementwise binary: o[i] = a[i] OP b[i] ------------------------------
  void (*add)(const float* a, const float* b, float* o, int64_t n);
  void (*sub)(const float* a, const float* b, float* o, int64_t n);
  void (*mul)(const float* a, const float* b, float* o, int64_t n);
  void (*div)(const float* a, const float* b, float* o, int64_t n);

  // -- Elementwise with a broadcast scalar ----------------------------------
  void (*add_s)(const float* a, float s, float* o, int64_t n);   // a + s
  void (*sub_s)(const float* a, float s, float* o, int64_t n);   // a - s
  void (*rsub_s)(const float* a, float s, float* o, int64_t n);  // s - a
  void (*mul_s)(const float* a, float s, float* o, int64_t n);   // a * s
  void (*div_s)(const float* a, float s, float* o, int64_t n);   // a / s
  void (*rdiv_s)(const float* a, float s, float* o, int64_t n);  // s / a

  // -- In-place accumulation (reduction inner loops) ------------------------
  void (*acc_add)(float* dst, const float* src, int64_t n);   // dst += src
  void (*max_into)(float* dst, const float* src, int64_t n);  // dst=max(.,src)

  // -- Elementwise unary ----------------------------------------------------
  void (*neg)(const float* a, float* o, int64_t n);
  void (*vabs)(const float* a, float* o, int64_t n);
  void (*relu)(const float* a, float* o, int64_t n);
  void (*vexp)(const float* a, float* o, int64_t n);
  void (*sigmoid)(const float* a, float* o, int64_t n);
  void (*vtanh)(const float* a, float* o, int64_t n);

  // -- Fused autograd backward kernels --------------------------------------
  /// o = g * (out * (1 - out)) (sigmoid backward; `out` is the fwd value)
  void (*sigmoid_grad)(const float* g, const float* out, float* o, int64_t n);
  /// o = g * fma(-out, out, 1) (tanh backward)
  void (*tanh_grad)(const float* g, const float* out, float* o, int64_t n);
  /// o = x > 0 ? g : 0         (relu backward; `x` is the fwd input)
  void (*relu_grad)(const float* g, const float* x, float* o, int64_t n);

  // -- Linear-algebra inner loops -------------------------------------------
  /// dst[i] = fma(a, x[i], dst[i])  (matmul / diffusion row update)
  void (*axpy)(float a, const float* x, float* dst, int64_t n);
  /// dst[i] *= s         (gradient rescale)
  void (*scale)(float* dst, float s, int64_t n);
  /// sum_i (double)a[i] * (double)b[i] in a fixed lane order (eight double
  /// accumulators, then the tail).
  double (*dot)(const float* a, const float* b, int64_t n);
  /// sum_i (double)a[i], in dot's order.
  double (*sum)(const float* a, int64_t n);
  /// acc[j] += dot(x, src + idx[j] * c, c) for j < m, each dot in dot's
  /// lane order: a row of x against m gathered rows of width c in one
  /// call (the a_s gradient of the slim diffusion step).
  void (*dot_gather)(const float* x, const float* src, const int64_t* idx,
                     int64_t m, int64_t c, double* acc);

  // -- Register-resident row kernels ----------------------------------------
  // Each output element goes through exactly the ops of the axpy/scale
  // composition it replaces: zero weights are skipped (so a signed zero
  // or 0 * inf never reaches the sum), one fma per remaining term in
  // ascending order, then the final multiply. Only the loads and stores
  // change — a tile of output rows stays in registers in blocks of at
  // most 32 floats, and each term's B row is loaded once per tile — so
  // results are bit-identical to the composition at the same level,
  // whatever the row count or row offset of a call.
  /// `rows` consecutive slim-diffusion output rows of width c: for r <
  /// rows,
  ///   out[r] = (self[r] + sum_{j < m} a[r, j] * src[idx[j] * c .. +c])
  ///            * inv_deg[r],
  /// with self, out [rows, c] and a [rows, m] row-major, i.e. per row
  /// memcpy(out row, self row), axpy(a[r, j], src row idx[j], out row)
  /// for each a[r, j] != 0, then scale(out row, inv_deg[r]). `out` must
  /// not alias a src row.
  void (*diffuse_rows)(const float* self, const float* a, const int64_t* idx,
                       int64_t m, const float* src, const float* inv_deg,
                       float* out, int64_t rows, int64_t c);
  /// o[r, :] += sum_{kk < k} a[r * a_rs + kk * a_cs] * b[kk, :] for
  /// r < rows, with b [k, n] and o [rows, n] row-major: per row, one
  /// axpy(a[r, kk], b row kk, o row r) per nonzero a[r, kk]. A row-major
  /// a [rows, k] has a_rs = k, a_cs = 1; the transpose of a row-major
  /// [k, lda] matrix is read in place with a_rs = 1, a_cs = lda.
  void (*matmul_rows)(const float* a, int64_t a_rs, int64_t a_cs,
                      const float* b, float* o, int64_t rows, int64_t k,
                      int64_t n);

  // -- Model-specific fusions -----------------------------------------------
  /// o = fma(z, h, (1-z)*c)   (GRU state blend, one pass). gru_tail and
  /// gru_step end with this blend; no library op calls the kernel alone,
  /// the benches time it.
  void (*gru_blend)(const float* z, const float* h, const float* c, float* o,
                    int64_t n);
  /// o = sigmoid(a) * b; when r_out is non-null it also receives
  /// sigmoid(a) (training keeps the gate for backward, eval passes null).
  /// Per element this is the exact sigmoid-kernel value times b, so fusing
  /// it changes no bits vs the unfused Sigmoid -> Mul chain.
  void (*sigmoid_mul)(const float* a, const float* b, float* o, float* r_out,
                      int64_t n);
  /// Fused GConv-GRU tail: z = sigmoid(gz), t = tanh(c),
  /// o = z*h + (1-z)*t — the Sigmoid -> Tanh -> gru_blend chain in one
  /// pass. z_out / t_out are optional (null in eval). The blend uses the
  /// same instruction sequence as gru_blend, so bits match the unfused
  /// composition.
  void (*gru_tail)(const float* gz, const float* h, const float* c, float* o,
                   float* z_out, float* t_out, int64_t n);
  /// Backward of sigmoid_mul: dg = gh*h * (r*(1-r)), dh = gh*r, where r is
  /// the stored forward sigmoid and gh the incoming gradient.
  void (*sigmoid_mul_grad)(const float* gh, const float* r, const float* h,
                           float* dg, float* dh, int64_t n);
  /// Backward of gru_tail: dgz = g*(h-t) * (z*(1-z)); dh = g*z;
  /// dc = g*(1-z) * (1-t*t).
  void (*gru_tail_grad)(const float* g, const float* z, const float* t,
                        const float* h, float* dgz, float* dh, float* dc,
                        int64_t n);
  /// One full plain-GRU cell row (nn::GruCell), gates + candidate + blend
  /// in one pass. xi and hh are [r|z|n] triples of length h_len (the two
  /// affine projections), h the previous state:
  ///   r = sigmoid(xi_r + hh_r), z = sigmoid(xi_z + hh_z),
  ///   nc = tanh(xi_n + r*hh_n), o = z*h + (1-z)*nc.
  /// r_out/z_out/n_out are optional (training stores them for backward).
  void (*gru_step)(const float* xi, const float* hh, const float* h, float* o,
                   float* r_out, float* z_out, float* n_out, int64_t h_len);
  /// Fused backward of gru_step: given the output gradient g and the
  /// stored r/z/nc plus h and the hh candidate section hh_n, writes the
  /// [r|z|n] gradient rows dxi and dhh (length 3*h_len) and dh (h_len).
  void (*gru_step_grad)(const float* g, const float* r, const float* z,
                        const float* nc, const float* h, const float* hh_n,
                        float* dxi, float* dhh, float* dh, int64_t h_len);
  /// Masked error partials over one block (metrics reduction).
  MaskedErrAcc (*masked_err)(const float* pred, const float* truth, int64_t n,
                             double mape_floor);
};

/// The kernel table for an explicit level (kAvx2 requires Avx2Available()).
const Kernels& KernelsFor(Level level);

/// The active kernel table (one relaxed atomic load).
const Kernels& K();

}  // namespace sagdfn::tensor::simd

#endif  // SAGDFN_TENSOR_SIMD_H_
