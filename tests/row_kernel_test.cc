// Byte contract of the register-resident row kernels (tensor/simd.h):
// at every SIMD level the host supports, `diffuse_rows` must be
// memcmp-equal to memcpy -> axpy per nonzero weight -> scale on each row,
// and `matmul_rows` to one axpy per nonzero a[r, k]. The cases cover
// widths around every 8-lane and 32-float block boundary, row counts
// around every multi-row tile size, +0.0 / -0.0 weights with inf / NaN
// source rows behind them (a skipped term must never reach the sum, even
// when another row of the same tile uses it), unaligned row offsets, and
// rows that end right before a PROT_NONE page (the masked tail lanes must
// not touch memory past the row).
#include "tensor/simd.h"

#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
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

/// Fills a row with a NaN / +inf / -inf pattern.
void Poison(float* row, int64_t c) {
  for (int64_t i = 0; i < c; ++i) {
    row[i] = (i % 3 == 0) ? std::numeric_limits<float>::quiet_NaN()
             : (i % 3 == 1) ? std::numeric_limits<float>::infinity()
                            : -std::numeric_limits<float>::infinity();
  }
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
    Poison(src + idx[j] * c, c);
  }
}

void ReferenceDiffuseRows(const simd::Kernels& k, const float* self,
                          const float* a, const int64_t* idx, int64_t m,
                          const float* src, const float* inv_deg, float* out,
                          int64_t rows, int64_t c) {
  for (int64_t r = 0; r < rows; ++r) {
    float* out_row = out + r * c;
    std::memcpy(out_row, self + r * c, sizeof(float) * c);
    for (int64_t j = 0; j < m; ++j) {
      const float av = a[r * m + j];
      if (av == 0.0f) continue;
      k.axpy(av, src + idx[j] * c, out_row, c);
    }
    k.scale(out_row, inv_deg[r], c);
  }
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
        k.diffuse_rows(self.data() + offset, a.data(), idx.data(), m,
                       src.data() + offset, &inv_deg, got.data() + offset, 1,
                       c);
        ReferenceDiffuseRows(k, self.data() + offset, a.data(), idx.data(),
                             m, src.data() + offset, &inv_deg,
                             want.data() + offset, 1, c);
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
      const float inv_deg = 0.5f;
      k.diffuse_rows(self.data(), a.data(), idx.data(), 2, src.data(),
                     &inv_deg, got.data(), 1, c);
      ReferenceDiffuseRows(k, self.data(), a.data(), idx.data(), 2,
                           src.data(), &inv_deg, want.data(), 1, c);
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
          k.matmul_rows(a.data() + offset, kk, 1, b.data() + offset,
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
  // Every operand of a call ends at a guard page, so the last row of the
  // last tile (or the leftover single row) must stop at its masked tail.
  const int64_t m = 4;
  const std::vector<int64_t> idx = {2, 0, 3, 1};
  const int64_t kk = 3;
  for (simd::Level level : SupportedLevels()) {
    const simd::Kernels& k = simd::KernelsFor(level);
    for (int64_t c : kWidths) {
      for (int64_t rows : {1, 2, 3, 4, 5, 8, 9, 16, 17}) {
        const std::string what = std::string(simd::LevelName(level)) +
                                 " c=" + std::to_string(c) +
                                 " rows=" + std::to_string(rows);
        GuardedFloats src(m * c), self(rows * c), a(rows * m),
            inv_deg(rows), out(rows * c);
        ASSERT_NE(src.data(), nullptr);
        ASSERT_NE(self.data(), nullptr);
        ASSERT_NE(a.data(), nullptr);
        ASSERT_NE(inv_deg.data(), nullptr);
        ASSERT_NE(out.data(), nullptr);
        FillNormal(src.data(), m * c, 600 + c);
        FillNormal(self.data(), rows * c, 700 + c);
        FillNormal(a.data(), rows * m, 800 + rows);
        FillNormal(inv_deg.data(), rows, 900 + rows);
        std::vector<float> want(rows * c);
        k.diffuse_rows(self.data(), a.data(), idx.data(), m, src.data(),
                       inv_deg.data(), out.data(), rows, c);
        ReferenceDiffuseRows(k, self.data(), a.data(), idx.data(), m,
                             src.data(), inv_deg.data(), want.data(), rows,
                             c);
        EXPECT_TRUE(BytesEqual(out.data(), want.data(), rows * c)) << what;

        GuardedFloats ga(rows * kk), gb(kk * c), go(rows * c);
        ASSERT_NE(ga.data(), nullptr);
        ASSERT_NE(gb.data(), nullptr);
        ASSERT_NE(go.data(), nullptr);
        FillNormal(ga.data(), rows * kk, 1000 + rows);
        FillNormal(gb.data(), kk * c, 1100 + c);
        FillNormal(go.data(), rows * c, 1200 + c);
        std::vector<float> mm_want(go.data(), go.data() + rows * c);
        k.matmul_rows(ga.data(), kk, 1, gb.data(), go.data(), rows, kk, c);
        ReferenceMatMulRows(k, ga.data(), gb.data(), mm_want.data(), rows, kk,
                            c);
        EXPECT_TRUE(BytesEqual(go.data(), mm_want.data(), rows * c)) << what;
      }
    }
  }
}

// -- Multi-row tiles ---------------------------------------------------------
// The AVX2 level runs 8, 4 or 2 rows per tile (by the number of vectors in
// a column block) and single rows after the last full tile. Row counts
// 1 .. 17 cover one and two full tiles plus a leftover row for every tile
// size; the widths put blocks of 1, 2, 3 and 4 vectors, full and partial,
// into play.

const std::vector<int64_t> kTileWidths = {1,  5,  8,  9,  16, 17,
                                          24, 29, 32, 33, 40, 64};
constexpr int64_t kMaxTileRows = 17;

/// [rows, m] weights where rows of one tile skip different terms: row r
/// has a signed zero at term (3r + 1) % m, and at `poison_term` the even
/// rows hold +0.0 / -0.0 while the odd rows hold a live weight.
std::vector<float> TileWeights(int64_t rows, int64_t m, int64_t poison_term,
                               uint64_t seed) {
  std::vector<float> a(rows * m);
  FillNormal(a.data(), rows * m, seed);
  for (int64_t r = 0; r < rows; ++r) {
    a[r * m + (3 * r + 1) % m] = (r % 2 == 0) ? -0.0f : 0.0f;
    if (r % 2 == 0) a[r * m + poison_term] = (r % 4 == 0) ? 0.0f : -0.0f;
  }
  return a;
}

/// Checks that rows whose weight on `poison_term` is zero came out finite:
/// the poisoned B row another row of their tile uses must not leak in.
void ExpectCleanRowsFinite(const std::vector<float>& a, int64_t m,
                           int64_t poison_term, const float* out,
                           int64_t rows, int64_t c, const std::string& what) {
  for (int64_t r = 0; r < rows; ++r) {
    if (a[r * m + poison_term] != 0.0f) continue;
    for (int64_t i = 0; i < c; ++i) {
      ASSERT_TRUE(std::isfinite(out[r * c + i]))
          << what << ": a poisoned row leaked into row " << r << " at " << i;
    }
  }
}

TEST(RowKernelTest, DiffuseRowsTilesMatchPerRowComposition) {
  const int64_t m = 7;
  const int64_t src_rows = 9;
  const int64_t poison_term = 2;  // the only term drawing src row 8
  const std::vector<int64_t> idx = {3, 0, 8, 2, 3, 1, 6};
  for (simd::Level level : SupportedLevels()) {
    const simd::Kernels& k = simd::KernelsFor(level);
    for (int64_t c : kTileWidths) {
      for (int64_t rows = 1; rows <= kMaxTileRows; ++rows) {
        for (int64_t offset : {0, 1}) {
          const std::vector<float> a =
              TileWeights(rows, m, poison_term, 20 + rows);
          std::vector<float> src(offset + src_rows * c);
          std::vector<float> self(offset + rows * c), inv_deg(rows);
          std::vector<float> got(offset + rows * c, 1.0f);
          std::vector<float> want(offset + rows * c, 2.0f);
          FillNormal(src.data() + offset, src_rows * c, 30 + c);
          FillNormal(self.data() + offset, rows * c, 40 + c);
          FillNormal(inv_deg.data(), rows, 50 + rows);
          for (int64_t r = 0; r < rows; ++r) self[offset + r * c] = -0.0f;
          Poison(src.data() + offset + idx[poison_term] * c, c);
          k.diffuse_rows(self.data() + offset, a.data(), idx.data(), m,
                         src.data() + offset, inv_deg.data(),
                         got.data() + offset, rows, c);
          ReferenceDiffuseRows(k, self.data() + offset, a.data(), idx.data(),
                               m, src.data() + offset, inv_deg.data(),
                               want.data() + offset, rows, c);
          const std::string what = std::string(simd::LevelName(level)) +
                                   " c=" + std::to_string(c) +
                                   " rows=" + std::to_string(rows) +
                                   " offset=" + std::to_string(offset);
          EXPECT_TRUE(BytesEqual(got.data() + offset, want.data() + offset,
                                 rows * c))
              << what;
          ExpectCleanRowsFinite(a, m, poison_term, got.data() + offset, rows,
                                c, what);
        }
      }
    }
  }
}

TEST(RowKernelTest, MatMulRowsTilesMatchPerRowComposition) {
  const int64_t kk = 6;
  const int64_t poison_term = 3;
  for (simd::Level level : SupportedLevels()) {
    const simd::Kernels& k = simd::KernelsFor(level);
    for (int64_t n : kTileWidths) {
      for (int64_t rows = 1; rows <= kMaxTileRows; ++rows) {
        for (int64_t offset : {0, 1}) {
          const std::vector<float> a =
              TileWeights(rows, kk, poison_term, 60 + rows);
          std::vector<float> b(offset + kk * n);
          std::vector<float> got(offset + rows * n);
          FillNormal(b.data() + offset, kk * n, 70 + n);
          Poison(b.data() + offset + poison_term * n, n);
          FillNormal(got.data() + offset, rows * n, 80 + n);
          for (int64_t r = 0; r < rows; ++r) got[offset + r * n] = -0.0f;
          std::vector<float> want = got;
          k.matmul_rows(a.data(), kk, 1, b.data() + offset,
                        got.data() + offset, rows, kk, n);
          ReferenceMatMulRows(k, a.data(), b.data() + offset,
                              want.data() + offset, rows, kk, n);
          const std::string what = std::string(simd::LevelName(level)) +
                                   " n=" + std::to_string(n) +
                                   " rows=" + std::to_string(rows) +
                                   " offset=" + std::to_string(offset);
          EXPECT_TRUE(BytesEqual(got.data() + offset, want.data() + offset,
                                 rows * n))
              << what;
          ExpectCleanRowsFinite(a, kk, poison_term, got.data() + offset, rows,
                                n, what);
        }
      }
    }
  }
}

}  // namespace
}  // namespace sagdfn
