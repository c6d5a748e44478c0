// Byte contract of the register-resident row kernels (tensor/simd.h):
// at every SIMD level the host supports, `diffuse_row` must be
// memcmp-equal to memcpy -> axpy per nonzero weight -> scale, and
// `matmul_rows` to one axpy per nonzero a[r, k]. The cases cover widths
// around every 8-lane and 32-float block boundary, +0.0 / -0.0 weights
// with inf / NaN source rows behind them (a skipped term must never
// reach the sum), unaligned row offsets, and rows that end right before
// a PROT_NONE page (the masked tail lanes must not touch memory past the
// row).
#include "tensor/simd.h"

#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "utils/rng.h"

namespace sagdfn {
namespace {

namespace simd = ::sagdfn::tensor::simd;

const std::vector<int64_t> kWidths = {1, 7, 8, 9, 16, 17, 31, 32, 33, 40};

std::vector<simd::Level> SupportedLevels() {
  std::vector<simd::Level> levels = {simd::Level::kScalar};
  if (simd::Avx2Available()) levels.push_back(simd::Level::kAvx2);
  return levels;
}

void FillNormal(float* p, int64_t n, uint64_t seed) {
  utils::Rng rng(seed);
  for (int64_t i = 0; i < n; ++i) p[i] = static_cast<float>(rng.Normal());
}

/// Weights with exact +0.0 and -0.0 entries mixed in.
std::vector<float> WeightsWithZeros(int64_t m, uint64_t seed) {
  std::vector<float> a(m);
  FillNormal(a.data(), m, seed);
  for (int64_t j = 0; j < m; j += 3) a[j] = (j % 2 == 0) ? 0.0f : -0.0f;
  return a;
}

/// Fills every src row that only zero weights reference with inf / NaN.
void PoisonZeroWeightRows(const std::vector<float>& a,
                          const std::vector<int64_t>& idx, float* src,
                          int64_t c) {
  for (size_t j = 0; j < a.size(); ++j) {
    if (a[j] != 0.0f) continue;
    bool live = false;
    for (size_t jj = 0; jj < a.size(); ++jj) {
      live |= idx[jj] == idx[j] && a[jj] != 0.0f;
    }
    if (live) continue;
    float* row = src + idx[j] * c;
    for (int64_t i = 0; i < c; ++i) {
      row[i] = (i % 3 == 0) ? std::numeric_limits<float>::quiet_NaN()
               : (i % 3 == 1) ? std::numeric_limits<float>::infinity()
                              : -std::numeric_limits<float>::infinity();
    }
  }
}

void ReferenceDiffuseRow(const simd::Kernels& k, const float* self,
                         const float* a, const int64_t* idx, int64_t m,
                         const float* src, float inv_deg, float* out,
                         int64_t c) {
  std::memcpy(out, self, sizeof(float) * c);
  for (int64_t j = 0; j < m; ++j) {
    if (a[j] == 0.0f) continue;
    k.axpy(a[j], src + idx[j] * c, out, c);
  }
  k.scale(out, inv_deg, c);
}

void ReferenceMatMulRows(const simd::Kernels& k, const float* a,
                         const float* b, float* o, int64_t rows, int64_t kk,
                         int64_t n) {
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t t = 0; t < kk; ++t) {
      const float av = a[r * kk + t];
      if (av == 0.0f) continue;
      k.axpy(av, b + t * n, o + r * n, n);
    }
  }
}

bool BytesEqual(const float* x, const float* y, int64_t n) {
  return std::memcmp(x, y, sizeof(float) * n) == 0;
}

TEST(RowKernelTest, DiffuseRowMatchesAxpyScaleComposition) {
  const int64_t m = 13;
  const int64_t rows = 9;  // src rows the index set draws from
  const std::vector<int64_t> idx = {4, 0, 7, 2, 8, 1, 4, 6, 3, 5, 0, 7, 2};
  const std::vector<float> a = WeightsWithZeros(m, 11);
  for (simd::Level level : SupportedLevels()) {
    const simd::Kernels& k = simd::KernelsFor(level);
    for (int64_t c : kWidths) {
      for (int64_t offset : {0, 1, 3}) {
        // Unaligned row starts: every buffer is shifted by `offset`.
        std::vector<float> src(offset + rows * c), self(offset + c);
        std::vector<float> got(offset + c), want(offset + c);
        FillNormal(src.data() + offset, rows * c, 100 + c);
        FillNormal(self.data() + offset, c, 200 + c);
        self[offset] = -0.0f;
        PoisonZeroWeightRows(a, idx, src.data() + offset, c);
        const float inv_deg = 0.37f;
        k.diffuse_row(self.data() + offset, a.data(), idx.data(), m,
                      src.data() + offset, inv_deg, got.data() + offset, c);
        ReferenceDiffuseRow(k, self.data() + offset, a.data(), idx.data(), m,
                            src.data() + offset, inv_deg,
                            want.data() + offset, c);
        EXPECT_TRUE(BytesEqual(got.data() + offset, want.data() + offset, c))
            << simd::LevelName(level) << " c=" << c << " offset=" << offset;
        for (int64_t i = 0; i < c; ++i) {
          ASSERT_TRUE(std::isfinite(got[offset + i]))
              << "a zero-weight inf/NaN row leaked into the sum at i=" << i;
        }
      }
    }
  }
}

TEST(RowKernelTest, DiffuseRowAllZeroWeightsKeepsSignedZeroSelf) {
  const std::vector<int64_t> idx = {0, 1};
  const std::vector<float> a = {0.0f, -0.0f};
  const float inf = std::numeric_limits<float>::infinity();
  for (simd::Level level : SupportedLevels()) {
    const simd::Kernels& k = simd::KernelsFor(level);
    for (int64_t c : kWidths) {
      std::vector<float> src(2 * c, inf), self(c, -0.0f), got(c, 1.0f),
          want(c, 2.0f);
      k.diffuse_row(self.data(), a.data(), idx.data(), 2, src.data(), 0.5f,
                    got.data(), c);
      ReferenceDiffuseRow(k, self.data(), a.data(), idx.data(), 2,
                          src.data(), 0.5f, want.data(), c);
      EXPECT_TRUE(BytesEqual(got.data(), want.data(), c))
          << simd::LevelName(level) << " c=" << c;
      EXPECT_TRUE(std::signbit(got[c - 1]) && got[c - 1] == 0.0f);
    }
  }
}

TEST(RowKernelTest, MatMulRowsMatchesAxpyPerK) {
  const int64_t rows = 5;
  for (simd::Level level : SupportedLevels()) {
    const simd::Kernels& k = simd::KernelsFor(level);
    for (int64_t kk : {1, 3, 10, 37}) {
      for (int64_t n : kWidths) {
        for (int64_t offset : {0, 1, 3}) {
          std::vector<float> a(offset + rows * kk), b(offset + kk * n);
          std::vector<float> got(offset + rows * n), want(offset + rows * n);
          FillNormal(a.data() + offset, rows * kk, 300 + kk);
          FillNormal(b.data() + offset, kk * n, 400 + n);
          // Signed-zero weights in front of inf/NaN rows of B: a skipped
          // term must never reach the accumulator.
          for (int64_t r = 0; r < rows; ++r) {
            a[offset + r * kk] = (r % 2 == 0) ? 0.0f : -0.0f;
          }
          for (int64_t i = 0; i < n; ++i) {
            b[offset + i] = (i % 2 == 0)
                                ? std::numeric_limits<float>::quiet_NaN()
                                : std::numeric_limits<float>::infinity();
          }
          // matmul_rows accumulates into o: start from nonzero contents.
          FillNormal(got.data() + offset, rows * n, 500 + n);
          want = got;
          k.matmul_rows(a.data() + offset, b.data() + offset,
                        got.data() + offset, rows, kk, n);
          ReferenceMatMulRows(k, a.data() + offset, b.data() + offset,
                              want.data() + offset, rows, kk, n);
          EXPECT_TRUE(
              BytesEqual(got.data() + offset, want.data() + offset, rows * n))
              << simd::LevelName(level) << " k=" << kk << " n=" << n
              << " offset=" << offset;
          for (int64_t i = 0; i < rows * n; ++i) {
            ASSERT_TRUE(std::isfinite(got[offset + i]))
                << "a zero-weight inf/NaN row leaked into the sum at i=" << i;
          }
        }
      }
    }
  }
}

/// `count` floats whose last element sits directly before a PROT_NONE
/// page: any access past the end faults.
class GuardedFloats {
 public:
  explicit GuardedFloats(int64_t count) {
    const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
    const size_t bytes = sizeof(float) * static_cast<size_t>(count);
    body_ = (bytes + page - 1) / page * page;
    size_ = body_ + page;
    void* base = mmap(nullptr, size_, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (base == MAP_FAILED) return;
    base_ = static_cast<char*>(base);
    if (mprotect(base_ + body_, page, PROT_NONE) != 0) return;
    data_ = reinterpret_cast<float*>(base_ + body_ - bytes);
  }
  ~GuardedFloats() {
    if (base_ != nullptr) munmap(base_, size_);
  }
  GuardedFloats(const GuardedFloats&) = delete;
  GuardedFloats& operator=(const GuardedFloats&) = delete;

  /// Null when the mapping could not be set up.
  float* data() const { return data_; }

 private:
  char* base_ = nullptr;
  size_t body_ = 0;
  size_t size_ = 0;
  float* data_ = nullptr;
};

TEST(RowKernelTest, TailLanesStopAtTheRowEnd) {
  const int64_t m = 4;
  const std::vector<int64_t> idx = {2, 0, 3, 1};
  const std::vector<float> a = {0.5f, -1.25f, 0.0f, 2.0f};
  for (simd::Level level : SupportedLevels()) {
    const simd::Kernels& k = simd::KernelsFor(level);
    for (int64_t c : kWidths) {
      // Diffusion: the self row, the last src row and the out row each
      // end at a guard page.
      GuardedFloats src(m * c), self(c), out(c);
      ASSERT_NE(src.data(), nullptr);
      ASSERT_NE(self.data(), nullptr);
      ASSERT_NE(out.data(), nullptr);
      FillNormal(src.data(), m * c, 600 + c);
      FillNormal(self.data(), c, 700 + c);
      std::vector<float> want(c);
      k.diffuse_row(self.data(), a.data(), idx.data(), m, src.data(), 0.25f,
                    out.data(), c);
      ReferenceDiffuseRow(k, self.data(), a.data(), idx.data(), m, src.data(),
                          0.25f, want.data(), c);
      EXPECT_TRUE(BytesEqual(out.data(), want.data(), c))
          << simd::LevelName(level) << " c=" << c;

      // Matmul: a's row, b's last row and o's row end at a guard page.
      const int64_t kk = 3;
      GuardedFloats ga(kk), gb(kk * c), go(c);
      ASSERT_NE(ga.data(), nullptr);
      ASSERT_NE(gb.data(), nullptr);
      ASSERT_NE(go.data(), nullptr);
      FillNormal(ga.data(), kk, 800 + c);
      FillNormal(gb.data(), kk * c, 900 + c);
      FillNormal(go.data(), c, 1000 + c);
      std::vector<float> mm_want(go.data(), go.data() + c);
      k.matmul_rows(ga.data(), gb.data(), go.data(), 1, kk, c);
      ReferenceMatMulRows(k, ga.data(), gb.data(), mm_want.data(), 1, kk, c);
      EXPECT_TRUE(BytesEqual(go.data(), mm_want.data(), c))
          << simd::LevelName(level) << " n=" << c;
    }
  }
}

}  // namespace
}  // namespace sagdfn
