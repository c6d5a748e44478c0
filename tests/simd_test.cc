// The SIMD determinism contract (DESIGN.md §5f), pinned:
//   1. kernel-level scalar-vs-avx2 equivalence, bit for bit: every
//      kernel at awkward lengths (length 1, vector-width +/- 1, odd
//      strides through tensor views) with NaN/+-0/inf/denormal operands
//      and the exp clamp edges at every lane and tail position, and the
//      exp family over a strided sweep of float bit patterns (all 2^32
//      in a DISABLED_ test);
//   2. per-level thread-count determinism — memcmp-identical outputs for
//      1, 2, 4 threads at a FIXED dispatch level;
//   3. full-model forward+backward and Adam steps memcmp-identical
//      across levels;
//   4. fused ops (GraphConv, the diffusion step's backward core, GruStep)
//      and the gru_blend kernel against their composed reference chains,
//      plus finite-difference gradients;
//   5. ScratchArena reuse/reset/high-water semantics;
//   6. DeterministicBlockReduce correctness and the kReduceBlock pin.
#include "tensor/simd.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "autograd/grad_check.h"
#include "autograd/ops.h"
#include "core/fused_ops.h"
#include "core/sagdfn.h"
#include "graph_conv_reference.h"
#include "optim/optimizer.h"
#include "tensor/tensor_ops.h"
#include "utils/arena.h"
#include "utils/block_reduce.h"
#include "utils/parallel.h"
#include "utils/rng.h"

namespace sagdfn {
namespace {

namespace ag = ::sagdfn::autograd;
namespace simd = ::sagdfn::tensor::simd;
using tensor::Shape;
using tensor::Tensor;

// Lengths straddling every lane boundary the AVX2 kernels care about.
const std::vector<int64_t> kAwkwardLengths = {1,  2,  3,  7,   8,    9,
                                              15, 16, 17, 31,  32,   33,
                                              100, 255, 1000, 1023, 16400};

/// RAII pin of the dispatch level (restores the previous level).
class LevelScope {
 public:
  explicit LevelScope(simd::Level level) : previous_(simd::ActiveLevel()) {
    ok_ = simd::SetActiveLevel(level);
  }
  ~LevelScope() { simd::SetActiveLevel(previous_); }
  bool ok() const { return ok_; }

 private:
  simd::Level previous_;
  bool ok_ = false;
};

class ThreadScope {
 public:
  explicit ThreadScope(int64_t n) : previous_(utils::GetNumThreads()) {
    utils::SetNumThreads(n);
  }
  ~ThreadScope() { utils::SetNumThreads(previous_); }

 private:
  int64_t previous_;
};

bool SkipWithoutAvx2() {
  if (!simd::Avx2Available()) {
    GTEST_LOG_(INFO) << "AVX2 unavailable; cross-level checks degenerate";
    return true;
  }
  return false;
}

std::vector<float> RandomVec(int64_t n, uint64_t seed, float lo = -4.0f,
                             float hi = 4.0f) {
  utils::Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = lo + (hi - lo) * rng.Uniform();
  return v;
}

// ---------------------------------------------------------------------------
// 1. Kernel-level scalar-vs-avx2 equivalence
// ---------------------------------------------------------------------------

TEST(SimdKernelTest, DispatchReportsALevel) {
  const simd::Level level = simd::ActiveLevel();
  EXPECT_TRUE(level == simd::Level::kScalar || level == simd::Level::kAvx2);
  EXPECT_STREQ(simd::LevelName(simd::Level::kScalar), "scalar");
  EXPECT_STREQ(simd::LevelName(simd::Level::kAvx2), "avx2");
  // KernelsFor never returns a null entry.
  EXPECT_NE(simd::KernelsFor(level).add, nullptr);
  EXPECT_NE(simd::KernelsFor(level).masked_err, nullptr);
}

TEST(SimdKernelTest, LevelFromStringParsesOverrides) {
  EXPECT_EQ(simd::LevelFromString("off"), simd::Level::kScalar);
  EXPECT_EQ(simd::LevelFromString("scalar"), simd::Level::kScalar);
  if (simd::Avx2Available()) {
    EXPECT_EQ(simd::LevelFromString("avx2"), simd::Level::kAvx2);
  }
  // auto / unknown fall back to detection; must not crash.
  simd::LevelFromString("auto");
  simd::LevelFromString("bogus");
}

TEST(SimdKernelTest, SetActiveLevelRoundTrips) {
  const simd::Level original = simd::ActiveLevel();
  ASSERT_TRUE(simd::SetActiveLevel(simd::Level::kScalar));
  EXPECT_EQ(simd::ActiveLevel(), simd::Level::kScalar);
  EXPECT_EQ(&simd::K(), &simd::KernelsFor(simd::Level::kScalar));
  if (simd::Avx2Available()) {
    ASSERT_TRUE(simd::SetActiveLevel(simd::Level::kAvx2));
    EXPECT_EQ(simd::ActiveLevel(), simd::Level::kAvx2);
  }
  simd::SetActiveLevel(original);
}

// NaN, signed zeros and infinities: the operands on which a max/min lane
// and a scalar expression can pick different sides.
const std::vector<float> kSpecials = {
    std::numeric_limits<float>::quiet_NaN(),
    0.0f,
    -0.0f,
    std::numeric_limits<float>::infinity(),
    -std::numeric_limits<float>::infinity(),
    1.5f,
    -2.0f};

/// Fills a and b (length n) with the ordered pairs of kSpecials starting
/// at pair `shift`. Over shifts 0..48 every pair lands at every position,
/// so in every vector lane and in the scalar tail.
void SpecialPairs(int64_t n, int64_t shift, std::vector<float>* a,
                  std::vector<float>* b) {
  const int64_t k = static_cast<int64_t>(kSpecials.size());
  a->resize(n);
  b->resize(n);
  for (int64_t i = 0; i < n; ++i) {
    const int64_t pair = (i + shift) % (k * k);
    (*a)[i] = kSpecials[pair / k];
    (*b)[i] = kSpecials[pair % k];
  }
}

/// Reports the first element whose bytes differ.
void ExpectSameBytes(const float* x, const float* y, int64_t n,
                     const std::string& what) {
  for (int64_t i = 0; i < n; ++i) {
    const uint32_t bx = std::bit_cast<uint32_t>(x[i]);
    const uint32_t by = std::bit_cast<uint32_t>(y[i]);
    if (bx != by) {
      ADD_FAILURE() << what << " differs at i=" << i << " n=" << n << ": "
                    << x[i] << " (0x" << std::hex << bx << ") vs " << y[i]
                    << " (0x" << by << ")" << std::dec;
      return;
    }
  }
}

void ExpectSameBits(const std::vector<float>& x, const std::vector<float>& y,
                    const std::string& what) {
  ASSERT_EQ(x.size(), y.size());
  ExpectSameBytes(x.data(), y.data(), static_cast<int64_t>(x.size()), what);
}

void ExpectSameDouble(double x, double y, const std::string& what) {
  EXPECT_EQ(std::bit_cast<uint64_t>(x), std::bit_cast<uint64_t>(y))
      << what << ": " << x << " vs " << y;
}

// The exact kernels are one source compiled at both levels, but each level
// must bind its own TU's copy: one shared external-linkage body would be
// the AVX2 one, which faults on a CPU without AVX2.
TEST(SimdKernelTest, BinaryKernelsMatchScalarExactly) {
  if (SkipWithoutAvx2()) return;
  const auto& sc = simd::KernelsFor(simd::Level::kScalar);
  const auto& vx = simd::KernelsFor(simd::Level::kAvx2);
  using BinVV = void (*)(const float*, const float*, float*, int64_t);
  using InPlace = void (*)(float*, const float*, int64_t);
  const std::vector<std::pair<BinVV, BinVV>> pairs = {
      {sc.add, vx.add}, {sc.sub, vx.sub}, {sc.mul, vx.mul},
      {sc.div, vx.div},
  };
  const std::vector<std::pair<InPlace, InPlace>> in_place = {
      {sc.acc_add, vx.acc_add}, {sc.max_into, vx.max_into}};
  for (const auto& [ks, kv] : pairs) EXPECT_NE(ks, kv);
  for (const auto& [ks, kv] : in_place) EXPECT_NE(ks, kv);

  // +,-,*,/ and max_into's compare-select are single IEEE operations:
  // bit-identical, NaN and signed-zero ties included.
  const auto check = [&](const std::vector<float>& a,
                         const std::vector<float>& b) {
    const int64_t n = static_cast<int64_t>(a.size());
    std::vector<float> o1(n), o2(n);
    for (size_t k = 0; k < pairs.size() && !testing::Test::HasFailure();
         ++k) {
      pairs[k].first(a.data(), b.data(), o1.data(), n);
      pairs[k].second(a.data(), b.data(), o2.data(), n);
      ExpectSameBits(o1, o2, "binary kernel " + std::to_string(k));
    }
    for (size_t k = 0; k < in_place.size() && !testing::Test::HasFailure();
         ++k) {
      o1 = a;
      o2 = a;
      in_place[k].first(o1.data(), b.data(), n);
      in_place[k].second(o2.data(), b.data(), n);
      ExpectSameBits(o1, o2, "in-place kernel " + std::to_string(k));
    }
  };
  for (int64_t n : kAwkwardLengths) {
    check(RandomVec(n, 100 + n), RandomVec(n, 200 + n, 0.5f, 4.0f));
  }
  std::vector<float> a, b;
  for (int64_t n = 1; n <= 17; ++n) {
    for (int64_t shift = 0; shift < 49; ++shift) {
      SpecialPairs(n, shift, &a, &b);
      check(a, b);
    }
  }
}

TEST(SimdKernelTest, ScalarOperandKernelsMatchExactly) {
  if (SkipWithoutAvx2()) return;
  const auto& sc = simd::KernelsFor(simd::Level::kScalar);
  const auto& vx = simd::KernelsFor(simd::Level::kAvx2);
  using BinVS = void (*)(const float*, float, float*, int64_t);
  const std::vector<std::pair<BinVS, BinVS>> pairs = {
      {sc.add_s, vx.add_s},   {sc.sub_s, vx.sub_s},
      {sc.rsub_s, vx.rsub_s}, {sc.mul_s, vx.mul_s},
      {sc.div_s, vx.div_s},   {sc.rdiv_s, vx.rdiv_s},
  };
  for (const auto& [ks, kv] : pairs) EXPECT_NE(ks, kv);
  const auto check = [&](const std::vector<float>& a, float s) {
    const int64_t n = static_cast<int64_t>(a.size());
    std::vector<float> o1(n), o2(n);
    for (size_t k = 0; k < pairs.size() && !testing::Test::HasFailure();
         ++k) {
      pairs[k].first(a.data(), s, o1.data(), n);
      pairs[k].second(a.data(), s, o2.data(), n);
      ExpectSameBits(o1, o2,
                     "scalar-operand kernel " + std::to_string(k) +
                         " with s=" + std::to_string(s));
    }
  };
  for (int64_t n : kAwkwardLengths) {
    check(RandomVec(n, 300 + n, 0.5f, 4.0f), 1.75f);
  }
  // Every special operand at every position against every special scalar.
  const size_t k = kSpecials.size();
  for (int64_t n = 1; n <= 17; ++n) {
    for (size_t shift = 0; shift < k; ++shift) {
      std::vector<float> a(n);
      for (int64_t i = 0; i < n; ++i) a[i] = kSpecials[(i + shift) % k];
      for (float s : kSpecials) check(a, s);
    }
  }
}

// Every kernel has one definition (simd_elementwise.h), so the levels
// agree bit for bit; the exp family's hand-written AVX2 lanes compute
// the definition's polynomial instruction for instruction.
TEST(SimdKernelTest, UnaryKernelsMatchScalarExactly) {
  if (SkipWithoutAvx2()) return;
  const auto& sc = simd::KernelsFor(simd::Level::kScalar);
  const auto& vx = simd::KernelsFor(simd::Level::kAvx2);
  for (int64_t n : kAwkwardLengths) {
    const auto a = RandomVec(n, 400 + n, -6.0f, 6.0f);
    std::vector<float> o1(n), o2(n);

    using UnK = void (*)(const float*, float*, int64_t);
    for (auto [ks, kv] : std::vector<std::pair<UnK, UnK>>{
             {sc.neg, vx.neg}, {sc.vabs, vx.vabs}, {sc.relu, vx.relu}}) {
      ks(a.data(), o1.data(), n);
      kv(a.data(), o2.data(), n);
      EXPECT_EQ(0, std::memcmp(o1.data(), o2.data(), sizeof(float) * n));
    }

    sc.vexp(a.data(), o1.data(), n);
    vx.vexp(a.data(), o2.data(), n);
    ExpectSameBytes(o2.data(), o1.data(), n, "exp");
    sc.sigmoid(a.data(), o1.data(), n);
    vx.sigmoid(a.data(), o2.data(), n);
    ExpectSameBytes(o2.data(), o1.data(), n, "sigmoid");
    sc.vtanh(a.data(), o1.data(), n);
    vx.vtanh(a.data(), o2.data(), n);
    ExpectSameBytes(o2.data(), o1.data(), n, "tanh");
  }
}

TEST(SimdKernelTest, ExpEdgeCases) {
  if (SkipWithoutAvx2()) return;
  const auto& vx = simd::KernelsFor(simd::Level::kAvx2);
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  // Out-of-range inputs in every lane position.
  std::vector<float> in = {200.0f, -200.0f, inf,  -inf,
                           nan,    0.0f,    1.0f, -1.0f};
  std::vector<float> out(in.size());
  vx.vexp(in.data(), out.data(), static_cast<int64_t>(in.size()));
  EXPECT_TRUE(std::isinf(out[0]) && out[0] > 0);
  EXPECT_EQ(out[1], 0.0f);
  EXPECT_TRUE(std::isinf(out[2]) && out[2] > 0);
  EXPECT_EQ(out[3], 0.0f);
  EXPECT_TRUE(std::isnan(out[4]));
  EXPECT_EQ(out[5], 1.0f);
  // Saturated sigmoid/tanh stay exact at the rails.
  std::vector<float> big = {100.0f, -100.0f, 30.0f, -30.0f};
  std::vector<float> s(big.size()), t(big.size());
  vx.sigmoid(big.data(), s.data(), 4);
  vx.vtanh(big.data(), t.data(), 4);
  EXPECT_EQ(s[0], 1.0f);
  EXPECT_LE(s[1], 1e-40f);  // sigmoid(-100) = exp(-100), a denormal
  EXPECT_EQ(t[0], 1.0f);
  EXPECT_EQ(t[1], -1.0f);
}

TEST(SimdKernelTest, GradAndFusedKernelsMatchScalarExactly) {
  if (SkipWithoutAvx2()) return;
  const auto& sc = simd::KernelsFor(simd::Level::kScalar);
  const auto& vx = simd::KernelsFor(simd::Level::kAvx2);
  for (int64_t n : kAwkwardLengths) {
    const auto g = RandomVec(n, 600 + n);
    const auto a = RandomVec(n, 700 + n);
    const auto b = RandomVec(n, 800 + n);
    const auto z = RandomVec(n, 900 + n, 0.0f, 1.0f);
    std::vector<float> o1(n), o2(n);

    sc.sigmoid_grad(g.data(), z.data(), o1.data(), n);
    vx.sigmoid_grad(g.data(), z.data(), o2.data(), n);
    ExpectSameBytes(o2.data(), o1.data(), n, "sigmoid_grad");

    sc.tanh_grad(g.data(), z.data(), o1.data(), n);
    vx.tanh_grad(g.data(), z.data(), o2.data(), n);
    ExpectSameBytes(o2.data(), o1.data(), n, "tanh_grad");

    sc.relu_grad(g.data(), a.data(), o1.data(), n);
    vx.relu_grad(g.data(), a.data(), o2.data(), n);
    ExpectSameBits(o1, o2, "relu_grad");

    sc.gru_blend(z.data(), a.data(), b.data(), o1.data(), n);
    vx.gru_blend(z.data(), a.data(), b.data(), o2.data(), n);
    ExpectSameBytes(o2.data(), o1.data(), n, "gru_blend");

    std::vector<float> d1 = b, d2 = b;
    sc.axpy(0.37f, a.data(), d1.data(), n);
    vx.axpy(0.37f, a.data(), d2.data(), n);
    ExpectSameBytes(d2.data(), d1.data(), n, "axpy");
    d2 = d1;
    sc.scale(d1.data(), 1.21f, n);
    vx.scale(d2.data(), 1.21f, n);
    ExpectSameBits(d1, d2, "scale");
  }
}

// The scalar dot and sum replay the AVX2 lane layout, so the double
// results agree bit for bit.
TEST(SimdKernelTest, ReductionsMatchScalarExactly) {
  if (SkipWithoutAvx2()) return;
  const auto& sc = simd::KernelsFor(simd::Level::kScalar);
  const auto& vx = simd::KernelsFor(simd::Level::kAvx2);
  for (int64_t n : kAwkwardLengths) {
    const auto a = RandomVec(n, 1000 + n);
    const auto b = RandomVec(n, 1100 + n);
    const std::string at = " at n=" + std::to_string(n);
    ExpectSameDouble(sc.sum(a.data(), n), vx.sum(a.data(), n), "sum" + at);
    ExpectSameDouble(sc.dot(a.data(), b.data(), n),
                     vx.dot(a.data(), b.data(), n), "dot" + at);
  }
}

TEST(SimdKernelTest, MaskedErrMatchesScalarSemantics) {
  if (SkipWithoutAvx2()) return;
  const auto& sc = simd::KernelsFor(simd::Level::kScalar);
  const auto& vx = simd::KernelsFor(simd::Level::kAvx2);
  for (int64_t n : kAwkwardLengths) {
    auto pred = RandomVec(n, 1200 + n, 0.0f, 10.0f);
    auto truth = RandomVec(n, 1300 + n, 0.0f, 10.0f);
    // Sprinkle missing readings (exact zeros) and sub-floor magnitudes.
    for (int64_t i = 0; i < n; i += 3) truth[i] = 0.0f;
    for (int64_t i = 1; i < n; i += 5) truth[i] = 1e-4f;
    const auto s = sc.masked_err(pred.data(), truth.data(), n, 1e-3);
    const auto v = vx.masked_err(pred.data(), truth.data(), n, 1e-3);
    EXPECT_EQ(s.count, v.count) << "n=" << n;
    EXPECT_EQ(s.ape_count, v.ape_count) << "n=" << n;
    const std::string at = " at n=" + std::to_string(n);
    ExpectSameDouble(s.abs, v.abs, "abs" + at);
    ExpectSameDouble(s.sq, v.sq, "sq" + at);
    ExpectSameDouble(s.ape, v.ape, "ape" + at);
  }
}

TEST(SimdKernelTest, MaskedErrNanTruthFollowsScalarConvention) {
  if (SkipWithoutAvx2()) return;
  // NaN truth: included in count (NaN != 0) but excluded from MAPE —
  // exactly what the scalar branches do.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  std::vector<float> pred = {1.0f, 2.0f, 3.0f, 4.0f, 5.0f};
  std::vector<float> truth = {nan, 0.0f, 2.0f, nan, 1.0f};
  const auto s = simd::KernelsFor(simd::Level::kScalar)
                     .masked_err(pred.data(), truth.data(), 5, 1e-3);
  const auto v = simd::KernelsFor(simd::Level::kAvx2)
                     .masked_err(pred.data(), truth.data(), 5, 1e-3);
  EXPECT_EQ(s.count, 4);  // the zero is skipped, NaNs are not
  EXPECT_EQ(s.ape_count, 2);
  EXPECT_EQ(v.count, s.count);
  EXPECT_EQ(v.ape_count, s.ape_count);
  EXPECT_TRUE(std::isnan(v.abs));
  EXPECT_TRUE(std::isnan(s.abs));
  ExpectSameDouble(v.abs, s.abs, "abs");
  ExpectSameDouble(v.sq, s.sq, "sq");
  ExpectSameDouble(v.ape, s.ape, "ape");
}

// ---------------------------------------------------------------------------
// 2. Tensor-op equivalence across levels (broadcast and odometer paths)
// ---------------------------------------------------------------------------

TEST(SimdTensorOpTest, BroadcastPathsAgreeAcrossLevels) {
  if (SkipWithoutAvx2()) return;
  utils::Rng rng(21);
  Tensor a = Tensor::Normal(Shape({3, 5, 7}), rng);
  Tensor row = Tensor::Normal(Shape({7}), rng);        // odometer path
  Tensor col = Tensor::Normal(Shape({5, 1}), rng);     // odometer path
  Tensor scalar = Tensor::Scalar(1.5f);                // scalar fast path
  for (auto make : {+[](const Tensor& x, const Tensor& y) {
                      return tensor::Add(x, y);
                    },
                    +[](const Tensor& x, const Tensor& y) {
                      return tensor::Mul(x, y);
                    },
                    +[](const Tensor& x, const Tensor& y) {
                      return tensor::Sub(x, y);
                    }}) {
    for (const Tensor* rhs : {&row, &col, &scalar}) {
      Tensor r_scalar, r_avx2;
      {
        LevelScope scope(simd::Level::kScalar);
        r_scalar = make(a, *rhs);
      }
      {
        LevelScope scope(simd::Level::kAvx2);
        r_avx2 = make(a, *rhs);
      }
      EXPECT_EQ(0, std::memcmp(r_scalar.data(), r_avx2.data(),
                               sizeof(float) * r_scalar.size()));
    }
  }
}

TEST(SimdTensorOpTest, SlicedViewsFeedKernelsCorrectly) {
  if (SkipWithoutAvx2()) return;
  // Slice/Transpose produce odd-length, shifted-base buffers — awkward
  // alignments for 8-lane kernels.
  utils::Rng rng(22);
  Tensor a = Tensor::Normal(Shape({4, 9, 5}), rng);
  Tensor sliced = tensor::Slice(a, 1, 2, 9);     // length-7 axis
  Tensor transposed = tensor::Transpose(a, 0, 2);
  Tensor r1, r2;
  {
    LevelScope scope(simd::Level::kScalar);
    r1 = tensor::Mul(sliced, sliced);
    r2 = tensor::Sigmoid(transposed);
  }
  Tensor q1, q2;
  {
    LevelScope scope(simd::Level::kAvx2);
    q1 = tensor::Mul(sliced, sliced);
    q2 = tensor::Sigmoid(transposed);
  }
  EXPECT_EQ(0, std::memcmp(r1.data(), q1.data(), sizeof(float) * r1.size()));
  EXPECT_EQ(0, std::memcmp(r2.data(), q2.data(), sizeof(float) * r2.size()));
}

TEST(SimdTensorOpTest, MatMulAgreesAcrossLevels) {
  if (SkipWithoutAvx2()) return;
  utils::Rng rng(23);
  Tensor a = Tensor::Normal(Shape({17, 33}), rng);
  Tensor b = Tensor::Normal(Shape({33, 9}), rng);
  Tensor r1, r2;
  {
    LevelScope scope(simd::Level::kScalar);
    r1 = tensor::MatMul(a, b);
  }
  {
    LevelScope scope(simd::Level::kAvx2);
    r2 = tensor::MatMul(a, b);
  }
  EXPECT_EQ(0, std::memcmp(r1.data(), r2.data(), sizeof(float) * r1.size()));
}

// ---------------------------------------------------------------------------
// 3. Thread-count determinism at a fixed level
// ---------------------------------------------------------------------------

core::SagdfnConfig SmallModelConfig() {
  core::SagdfnConfig config;
  config.num_nodes = 40;
  config.embedding_dim = 8;
  config.m = 10;
  config.k = 8;
  config.hidden_dim = 8;
  config.heads = 2;
  config.ffn_hidden = 8;
  config.diffusion_steps = 2;
  config.history = 4;
  config.horizon = 4;
  config.seed = 7;
  return config;
}

/// One forward+backward of `model` on fixed inputs; returns the loss.
ag::Variable SmallModelLoss(core::SagdfnModel& model) {
  utils::Rng rng(31);
  Tensor x = Tensor::Normal(Shape({2, 4, 40, 2}), rng);
  Tensor tod = Tensor::Uniform(Shape({2, 4}), rng);
  ag::Variable loss = ag::MeanAll(ag::Abs(model.Forward(x, tod, 0)));
  loss.Backward();
  return loss;
}

Tensor ModelLossGrads(int64_t threads, std::vector<Tensor>* grads) {
  ThreadScope tscope(threads);
  core::SagdfnModel model(SmallModelConfig());
  ag::Variable loss = SmallModelLoss(model);
  if (grads != nullptr) {
    grads->clear();
    for (const auto& p : model.Parameters()) grads->push_back(p.grad());
  }
  return loss.value();
}

void ExpectThreadCountDeterminism() {
  std::vector<Tensor> g1, g2, g4;
  Tensor l1 = ModelLossGrads(1, &g1);
  Tensor l2 = ModelLossGrads(2, &g2);
  Tensor l4 = ModelLossGrads(4, &g4);
  EXPECT_EQ(0, std::memcmp(l1.data(), l2.data(), sizeof(float)));
  EXPECT_EQ(0, std::memcmp(l1.data(), l4.data(), sizeof(float)));
  ASSERT_EQ(g1.size(), g2.size());
  ASSERT_EQ(g1.size(), g4.size());
  for (size_t i = 0; i < g1.size(); ++i) {
    ASSERT_EQ(g1[i].size(), g2[i].size());
    EXPECT_EQ(0, std::memcmp(g1[i].data(), g2[i].data(),
                             sizeof(float) * g1[i].size()))
        << "grad " << i << " differs between 1 and 2 threads";
    EXPECT_EQ(0, std::memcmp(g1[i].data(), g4[i].data(),
                             sizeof(float) * g1[i].size()))
        << "grad " << i << " differs between 1 and 4 threads";
  }
}

TEST(SimdDeterminismTest, ScalarLevelBitIdenticalAcrossThreadCounts) {
  LevelScope scope(simd::Level::kScalar);
  ASSERT_TRUE(scope.ok());
  ExpectThreadCountDeterminism();
}

TEST(SimdDeterminismTest, Avx2LevelBitIdenticalAcrossThreadCounts) {
  if (SkipWithoutAvx2()) return;
  LevelScope scope(simd::Level::kAvx2);
  ASSERT_TRUE(scope.ok());
  ExpectThreadCountDeterminism();
}

// ---------------------------------------------------------------------------
// 4. Full-model forward+backward agreement across levels
// ---------------------------------------------------------------------------

TEST(SimdDeterminismTest, FullModelForwardBackwardAgreesAcrossLevels) {
  if (SkipWithoutAvx2()) return;
  // The first step's loss and gradients, then the parameters after three
  // Adam steps.
  const auto run = [](simd::Level level) {
    LevelScope scope(level);
    core::SagdfnModel model(SmallModelConfig());
    optim::Adam adam(model.Parameters(), 1e-2);
    std::vector<Tensor> out;
    for (int step = 0; step < 3; ++step) {
      model.ZeroGrad();
      ag::Variable loss = SmallModelLoss(model);
      if (step == 0) {
        out.push_back(loss.value().Clone());
        for (const auto& p : model.Parameters()) out.push_back(p.grad().Clone());
      }
      adam.Step();
    }
    for (const auto& p : model.Parameters()) out.push_back(p.value().Clone());
    return out;
  };
  const std::vector<Tensor> scalar = run(simd::Level::kScalar);
  const std::vector<Tensor> avx2 = run(simd::Level::kAvx2);
  ASSERT_EQ(scalar.size(), avx2.size());
  for (size_t i = 0; i < scalar.size(); ++i) {
    ASSERT_EQ(scalar[i].size(), avx2[i].size());
    ExpectSameBytes(scalar[i].data(), avx2[i].data(), scalar[i].size(),
                    "tensor " + std::to_string(i) +
                        " (loss, first-step grads, then params after 3 "
                        "Adam steps)");
  }
}

// ---------------------------------------------------------------------------
// 5. Fused ops vs composed reference
// ---------------------------------------------------------------------------

std::vector<int64_t> ShuffledIndices(int64_t n, int64_t k, uint64_t seed) {
  utils::Rng rng(seed);
  std::vector<int64_t> all(n);
  for (int64_t i = 0; i < n; ++i) all[i] = i;
  for (int64_t i = n - 1; i > 0; --i) {
    std::swap(all[i], all[rng.UniformInt(0, i + 1)]);
  }
  all.resize(k);
  return all;
}

ag::Variable ComposedGconvStep(const ag::Variable& a_s,
                               const ag::Variable& term,
                               const std::vector<int64_t>& idx,
                               const ag::Variable& inv) {
  ag::Variable gathered = ag::IndexSelect(term, 1, idx);
  ag::Variable mixed = ag::Add(ag::BatchedMatMul(a_s, gathered), term);
  return ag::Mul(mixed, inv);
}

TEST(FusedOpsTest, OneStepFastGConvMatchesComposedChain) {
  utils::Rng rng(41);
  const int64_t n = 11, k = 5, c = 7, batch = 3;
  const auto idx = ShuffledIndices(n, k, 42);
  ag::Variable a_s(Tensor::Uniform(Shape({n, k}), rng), true);
  ag::Variable term(Tensor::Normal(Shape({batch, n, c}), rng), true);
  ag::Variable inv(Tensor::Uniform(Shape({n, 1}), rng), true);

  Tensor fused = test_support::OneStepFastGConv(a_s, term, idx, inv).value();
  Tensor composed = ComposedGconvStep(a_s, term, idx, inv).value();
  EXPECT_TRUE(tensor::AllClose(fused, composed, 1e-5f, 1e-5f));
}

TEST(FusedOpsTest, OneStepFastGConvBackwardMatchesComposedChain) {
  utils::Rng rng(43);
  const int64_t n = 9, k = 4, c = 5, batch = 2;
  const auto idx = ShuffledIndices(n, k, 44);
  Tensor a0 = Tensor::Uniform(Shape({n, k}), rng);
  Tensor t0 = Tensor::Normal(Shape({batch, n, c}), rng);
  Tensor i0 = Tensor::Uniform(Shape({n, 1}), rng);

  auto run = [&](bool fused) {
    ag::Variable a_s(a0.Clone(), true);
    ag::Variable term(t0.Clone(), true);
    ag::Variable inv(i0.Clone(), true);
    ag::Variable out = fused
                           ? test_support::OneStepFastGConv(a_s, term, idx, inv)
                           : ComposedGconvStep(a_s, term, idx, inv);
    ag::MeanAll(ag::Mul(out, out)).Backward();
    return std::vector<Tensor>{a_s.grad(), term.grad(), inv.grad()};
  };
  const auto gf = run(true);
  const auto gc = run(false);
  for (size_t i = 0; i < gf.size(); ++i) {
    EXPECT_TRUE(tensor::AllClose(gf[i], gc[i], 1e-5f, 1e-4f))
        << "fused grad " << i << " diverges from composed reference";
  }
}

TEST(FusedOpsTest, OneStepFastGConvRepeatedIndicesAccumulate) {
  // idx may hit the same node twice (sampling with replacement); the
  // scatter must accumulate, not overwrite.
  utils::Rng rng(45);
  const int64_t n = 6, c = 3, batch = 2;
  const std::vector<int64_t> idx = {2, 2, 4};
  Tensor a0 = Tensor::Uniform(Shape({n, 3}), rng);
  Tensor t0 = Tensor::Normal(Shape({batch, n, c}), rng);
  Tensor i0 = Tensor::Uniform(Shape({n, 1}), rng);
  ag::Variable a_f(a0.Clone(), true), t_f(t0.Clone(), true),
      i_f(i0.Clone(), true);
  ag::MeanAll(test_support::OneStepFastGConv(a_f, t_f, idx, i_f)).Backward();
  ag::Variable a_c(a0.Clone(), true), t_c(t0.Clone(), true),
      i_c(i0.Clone(), true);
  ag::MeanAll(ComposedGconvStep(a_c, t_c, idx, i_c)).Backward();
  EXPECT_TRUE(tensor::AllClose(t_f.grad(), t_c.grad(), 1e-6f, 1e-5f));
  EXPECT_TRUE(tensor::AllClose(a_f.grad(), a_c.grad(), 1e-6f, 1e-5f));
}

TEST(FusedOpsTest, OneStepFastGConvPassesGradCheck) {
  const int64_t n = 5, k = 3, c = 2, batch = 2;
  const std::vector<int64_t> idx = {4, 0, 2};
  utils::Rng rng(46);
  std::vector<Tensor> inputs = {
      Tensor::Uniform(Shape({n, k}), rng),
      Tensor::Normal(Shape({batch, n, c}), rng),
      // Keep inv away from zero: d_inv recomputes mixed as out / inv.
      tensor::AddScalar(Tensor::Uniform(Shape({n, 1}), rng), 0.5f),
  };
  std::string error;
  EXPECT_TRUE(ag::CheckGradients(
      [&](const std::vector<ag::Variable>& v) {
        return ag::MeanAll(
            ag::Mul(test_support::OneStepFastGConv(v[0], v[1], idx, v[2]),
                    test_support::OneStepFastGConv(v[0], v[1], idx, v[2])));
      },
      inputs, &error))
      << error;
}

// The backward of OneStepFastGConv as one dot per (i, j, b) and one axpy
// per (b, i, j), at the active level: the reference that dot_gather and
// the a_s^T matmul rows must reproduce bit for bit.
struct GconvGrads {
  Tensor d_a, d_term, d_inv;
};
GconvGrads ReferenceGconvBackward(const Tensor& a_s, const Tensor& term,
                                  const std::vector<int64_t>& idx,
                                  const Tensor& inv, const Tensor& g,
                                  const Tensor& out) {
  const simd::Kernels& kern = simd::K();
  const int64_t batch = term.dim(0), n = term.dim(1), c = term.dim(2);
  const int64_t k = static_cast<int64_t>(idx.size());
  const float* pa = a_s.data();
  const float* pt = term.data();
  const float* pg = g.data();
  const float* pinv = inv.data();
  GconvGrads r{Tensor(Shape({n, k})), Tensor(term.shape()),
               Tensor(Shape({n, 1}))};
  float* pdt = r.d_term.data();
  for (int64_t row = 0; row < batch * n; ++row) {
    kern.mul_s(pg + row * c, pinv[row % n], pdt + row * c, c);
  }
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < k; ++j) {
      double acc = 0.0;
      for (int64_t b = 0; b < batch; ++b) {
        acc += kern.dot(pdt + (b * n + i) * c, pt + (b * n + idx[j]) * c, c);
      }
      r.d_a.data()[i * k + j] = static_cast<float>(acc);
    }
    double acc = 0.0;
    for (int64_t b = 0; b < batch; ++b) {
      acc += kern.dot(pg + (b * n + i) * c, out.data() + (b * n + i) * c, c);
    }
    r.d_inv.data()[i] = static_cast<float>(acc / pinv[i]);
  }
  std::vector<float> dg(k * c);
  for (int64_t b = 0; b < batch; ++b) {
    std::fill(dg.begin(), dg.end(), 0.0f);
    for (int64_t i = 0; i < n; ++i) {
      for (int64_t j = 0; j < k; ++j) {
        const float av = pa[i * k + j];
        if (av == 0.0f) continue;
        kern.axpy(av, pdt + (b * n + i) * c, dg.data() + j * c, c);
      }
    }
    for (int64_t j = 0; j < k; ++j) {
      kern.acc_add(pdt + (b * n + idx[j]) * c, dg.data() + j * c, c);
    }
  }
  return r;
}

// OneStepFastGConv's three gradients against the reference loops, byte
// for byte, at both levels and pool sizes 1, 2 and 8: widths across the
// 8-lane boundary, 1-17 significant nodes with a repeated index, batches
// 1-3, and +0.0 / -0.0 / inf / NaN weights. Row i0 of the incoming
// gradient carries +-inf and its even weights are signed zeros, so a
// zero weight that reached the scatter would turn 0 * inf into NaN. The
// NaN and inf weights sit in different columns, so no output meets two
// different NaNs.
TEST(FusedOpsTest, OneStepFastGConvBackwardMatchesReferenceBits) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  std::vector<simd::Level> levels = {simd::Level::kScalar};
  if (simd::Avx2Available()) levels.push_back(simd::Level::kAvx2);
  for (int64_t c : {1, 7, 8, 9, 17, 18, 33}) {
    for (int64_t m : {1, 3, 4, 5, 16, 17}) {
      for (int64_t batch = 1; batch <= 3; ++batch) {
        for (int64_t n : {m + 2, int64_t{300}}) {
          utils::Rng rng(static_cast<uint64_t>(c * 1000 + m * 10 + batch));
          std::vector<int64_t> idx(m);
          for (auto& j : idx) j = rng.UniformInt(0, n);
          if (m > 1) idx[m - 1] = idx[0];
          Tensor a0 = Tensor::Normal(Shape({n, m}), rng);
          float* pa = a0.data();
          for (int64_t e = 0; e < n * m; ++e) {
            if (e % 5 == 0) pa[e] = 0.0f;
            if (e % 7 == 3) pa[e] = -0.0f;
          }
          const int64_t i0 = n / 4, i1 = n / 3, i2 = n / 2;
          for (int64_t j = 0; j < m; j += 2) {
            pa[i0 * m + j] = (j % 4 == 0) ? 0.0f : -0.0f;
          }
          pa[i1 * m] = nan;
          if (m > 1) pa[i2 * m + 1] = inf;
          Tensor t0 = Tensor::Normal(Shape({batch, n, c}), rng);
          Tensor inv0 = tensor::AddScalar(Tensor::Uniform(Shape({n, 1}), rng),
                                          0.25f);
          Tensor g = Tensor::Normal(Shape({batch, n, c}), rng);
          for (int64_t b = 0; b < batch; ++b) {
            for (int64_t x = 0; x < c; ++x) {
              g.data()[(b * n + i0) * c + x] = (x % 2 == 0) ? inf : -inf;
            }
          }
          if (batch >= 2) {
            // Batch 1 cancels batch 0 exactly (same term, negated g), so
            // each a_s gradient after two batches is 0 only if the second
            // dot is added after the first one's lanes are folded.
            for (int64_t e = 0; e < n * c; ++e) {
              t0.data()[n * c + e] = t0.data()[e];
              g.data()[n * c + e] = -g.data()[e];
            }
          }
          for (simd::Level level : levels) {
            LevelScope level_scope(level);
            for (int64_t threads : {1, 2, 8}) {
              ThreadScope thread_scope(threads);
              ag::Variable a_s(a0.Clone(), true);
              ag::Variable term(t0.Clone(), true);
              ag::Variable inv(inv0.Clone(), true);
              ag::Variable out = test_support::OneStepFastGConv(a_s, term, idx, inv);
              ag::SumAll(ag::Mul(out, ag::Variable(g))).Backward();
              const GconvGrads want = ReferenceGconvBackward(
                  a0, t0, idx, inv0, g, out.value());
              const std::string what =
                  std::string(simd::LevelName(level)) +
                  " threads=" + std::to_string(threads) +
                  " c=" + std::to_string(c) + " m=" + std::to_string(m) +
                  " batch=" + std::to_string(batch) +
                  " n=" + std::to_string(n);
              ExpectSameBytes(a_s.grad().data(), want.d_a.data(),
                              want.d_a.size(), "d_a " + what);
              ExpectSameBytes(term.grad().data(), want.d_term.data(),
                              want.d_term.size(), "d_term " + what);
              ExpectSameBytes(inv.grad().data(), want.d_inv.data(),
                              want.d_inv.size(), "d_inv " + what);
              if (testing::Test::HasFailure()) return;
            }
          }
        }
      }
    }
  }
}

// core::GraphConv against the composed chain it replaced
// (tests/graph_conv_reference.h), byte for byte: the forward value and the
// gradients of a_s, inv_deg, x, every W_j and the bias. The index set
// repeats a node and a_s carries zeros, so the scatter accumulates and the
// diffusion skips entries.
struct GraphConvCase {
  int64_t steps, c, o, batch, n;
  bool x_grad = true, a_grad = true;
};

void ExpectGraphConvMatchesComposed(const GraphConvCase& k,
                                    const std::string& where) {
  utils::Rng rng(static_cast<uint64_t>(k.steps * 100000 + k.c * 1000 +
                                       k.o * 10 + k.batch));
  const int64_t m = 5;
  std::vector<int64_t> idx = ShuffledIndices(k.n, m, rng.Next());
  idx[m - 1] = idx[1];
  Tensor a0 = Tensor::Normal(Shape({k.n, m}), rng);
  for (int64_t e = 0; e < k.n * m; e += 7) a0.data()[e] = 0.0f;
  Tensor inv0 =
      tensor::AddScalar(Tensor::Uniform(Shape({k.n, 1}), rng), 0.25f);
  Tensor x0 = Tensor::Normal(Shape({k.batch, k.n, k.c}), rng);
  std::vector<Tensor> w0;
  for (int64_t j = 0; j < k.steps; ++j) {
    w0.push_back(Tensor::Normal(Shape({k.c, k.o}), rng));
  }
  Tensor b0 = Tensor::Normal(Shape({k.o}), rng);
  Tensor g = Tensor::Normal(Shape({k.batch, k.n, k.o}), rng);

  struct Run {
    Tensor out;
    std::vector<Tensor> grads;
  };
  auto run = [&](bool fused) {
    ag::Variable a_s(a0.Clone(), k.a_grad);
    ag::Variable inv(inv0.Clone(), true);
    ag::Variable x(x0.Clone(), k.x_grad);
    std::vector<ag::Variable> w;
    for (const Tensor& t : w0) w.emplace_back(t.Clone(), true);
    ag::Variable bias(b0.Clone(), true);
    ag::Variable out =
        fused ? core::GraphConv(a_s, idx, inv, x, w, bias)
              : test_support::ComposedGraphConv(a_s, idx, inv, x, w, bias);
    ag::SumAll(ag::Mul(out, ag::Variable(g))).Backward();
    Run r{out.value(), {a_s.grad(), inv.grad(), x.grad(), bias.grad()}};
    for (const ag::Variable& v : w) r.grads.push_back(v.grad());
    return r;
  };
  const Run got = run(true);
  const Run want = run(false);
  const std::string what =
      where + " J=" + std::to_string(k.steps) + " c=" + std::to_string(k.c) +
      " o=" + std::to_string(k.o) + " batch=" + std::to_string(k.batch) +
      " n=" + std::to_string(k.n) + " x_grad=" + std::to_string(k.x_grad) +
      " a_grad=" + std::to_string(k.a_grad);
  ExpectSameBytes(got.out.data(), want.out.data(), want.out.size(),
                  "value " + what);
  const char* names[] = {"d_a", "d_inv", "d_x", "d_bias"};
  for (size_t i = 0; i < want.grads.size(); ++i) {
    const std::string name =
        i < 4 ? names[i] : "d_w" + std::to_string(i - 4);
    ASSERT_EQ(got.grads[i].shape(), want.grads[i].shape()) << name << what;
    ExpectSameBytes(got.grads[i].data(), want.grads[i].data(),
                    want.grads[i].size(), name + " " + what);
  }
}

/// Runs `body` at each SIMD level and pool sizes 1, 2 and 8.
template <typename Body>
void AtEveryLevelAndPoolSize(Body body) {
  std::vector<simd::Level> levels = {simd::Level::kScalar};
  if (simd::Avx2Available()) levels.push_back(simd::Level::kAvx2);
  for (simd::Level level : levels) {
    LevelScope level_scope(level);
    for (int64_t threads : {1, 2, 8}) {
      ThreadScope thread_scope(threads);
      body(std::string(simd::LevelName(level)) +
           " threads=" + std::to_string(threads));
      if (testing::Test::HasFailure()) return;
    }
  }
}

// Input and output widths across the 8-lane boundary, J = 1-3, batches 1
// and 3. N = 37 with batch 3 gives 111 rows, enough for the pool to split
// the forward's and the backward's row ranges at the wider shapes.
TEST(FusedOpsTest, GraphConvMatchesComposedChainBits) {
  AtEveryLevelAndPoolSize([](const std::string& where) {
    for (int64_t steps = 1; steps <= 3; ++steps) {
      for (int64_t c : {1, 7, 8, 9, 17, 33}) {
        for (int64_t o : {1, 7, 8, 9, 17, 33}) {
          for (int64_t batch : {1, 3}) {
            ExpectGraphConvMatchesComposed({steps, c, o, batch, 37}, where);
            if (testing::Test::HasFailure()) return;
          }
        }
      }
    }
  });
}

// x without a gradient (the first encoder step's [x | h0] input) and a_s
// without one: the diffusion gradients still reach what needs them, and
// the rest stays untouched.
TEST(FusedOpsTest, GraphConvMatchesComposedChainBitsWithoutSomeGradients) {
  AtEveryLevelAndPoolSize([](const std::string& where) {
    for (int64_t steps = 1; steps <= 3; ++steps) {
      for (auto [c, o] : {std::pair<int64_t, int64_t>{7, 9}, {17, 33}}) {
        for (int64_t batch : {1, 3}) {
          GraphConvCase k{steps, c, o, batch, 37};
          k.x_grad = false;
          ExpectGraphConvMatchesComposed(k, where);
          k.x_grad = true;
          k.a_grad = false;
          ExpectGraphConvMatchesComposed(k, where);
          if (testing::Test::HasFailure()) return;
        }
      }
    }
  });
}

TEST(FusedOpsTest, GraphConvPassesGradCheck) {
  const int64_t n = 5, c = 2, o = 3, batch = 2;
  const std::vector<int64_t> idx = {4, 0, 2};
  utils::Rng rng(51);
  const Tensor g = Tensor::Normal(Shape({batch, n, o}), rng);
  std::vector<Tensor> inputs = {
      Tensor::Uniform(Shape({n, 3}), rng),
      // Keep inv away from zero: d_inv recomputes mixed as out / inv.
      tensor::AddScalar(Tensor::Uniform(Shape({n, 1}), rng), 0.5f),
      Tensor::Normal(Shape({batch, n, c}), rng),
      Tensor::Normal(Shape({c, o}), rng),
      Tensor::Normal(Shape({c, o}), rng),
      Tensor::Normal(Shape({c, o}), rng),
      Tensor::Normal(Shape({o}), rng),
  };
  std::string error;
  EXPECT_TRUE(ag::CheckGradients(
      [&](const std::vector<ag::Variable>& v) {
        ag::Variable out =
            core::GraphConv(v[0], idx, v[1], v[2], {v[3], v[4], v[5]}, v[6]);
        return ag::MeanAll(ag::Mul(out, ag::Mul(out, ag::Variable(g))));
      },
      inputs, &error))
      << error;
}

// The gru_blend kernel (the blend inside GruTailBlend and GruStep) against
// the composed z*h + (1-z)*c chain.
TEST(FusedOpsTest, GruBlendMatchesComposedChain) {
  utils::Rng rng(47);
  const Shape shape({2, 9, 5});
  Tensor z = Tensor::Uniform(shape, rng);
  Tensor h = Tensor::Normal(shape, rng);
  Tensor c = Tensor::Normal(shape, rng);
  Tensor fused(shape);
  simd::K().gru_blend(z.data(), h.data(), c.data(), fused.data(), z.size());
  Tensor composed = tensor::Add(tensor::Mul(z, h),
                                tensor::Mul(tensor::RSubScalar(z, 1.0f), c));
  EXPECT_TRUE(tensor::AllClose(fused, composed, 1e-6f, 1e-5f));
}

TEST(SimdKernelTest, GruStepFusedKernelsMatchAcrossLevels) {
  if (SkipWithoutAvx2()) return;
  const auto& sc = simd::KernelsFor(simd::Level::kScalar);
  const auto& vx = simd::KernelsFor(simd::Level::kAvx2);
  for (int64_t n : kAwkwardLengths) {
    const auto a = RandomVec(n, 1600 + n);
    const auto b = RandomVec(n, 1700 + n);
    const auto h = RandomVec(n, 1800 + n);
    const auto g = RandomVec(n, 1900 + n);
    const auto z = RandomVec(n, 2000 + n, 0.02f, 0.98f);
    const auto t = RandomVec(n, 2100 + n, -0.98f, 0.98f);
    const auto xi = RandomVec(3 * n, 2200 + n);
    const auto hh = RandomVec(3 * n, 2300 + n);
    std::vector<float> o1(n), o2(n), r1(n), r2(n), z1(n), z2(n), t1(n),
        t2(n);

    // The auxiliary activation outputs must match too.
    sc.sigmoid_mul(a.data(), b.data(), o1.data(), r1.data(), n);
    vx.sigmoid_mul(a.data(), b.data(), o2.data(), r2.data(), n);
    ExpectSameBytes(o2.data(), o1.data(), n, "sigmoid_mul");
    ExpectSameBytes(r2.data(), r1.data(), n, "sigmoid_mul r_out");

    sc.gru_tail(a.data(), h.data(), b.data(), o1.data(), z1.data(),
                t1.data(), n);
    vx.gru_tail(a.data(), h.data(), b.data(), o2.data(), z2.data(),
                t2.data(), n);
    ExpectSameBytes(o2.data(), o1.data(), n, "gru_tail");
    ExpectSameBytes(z2.data(), z1.data(), n, "gru_tail z_out");
    ExpectSameBytes(t2.data(), t1.data(), n, "gru_tail t_out");

    std::vector<float> s1(3 * n), s2(3 * n), w1(3 * n), w2(3 * n);
    sc.gru_step(xi.data(), hh.data(), h.data(), o1.data(), r1.data(),
                z1.data(), t1.data(), n);
    vx.gru_step(xi.data(), hh.data(), h.data(), o2.data(), r2.data(),
                z2.data(), t2.data(), n);
    ExpectSameBytes(o2.data(), o1.data(), n, "gru_step");
    ExpectSameBytes(r2.data(), r1.data(), n, "gru_step r_out");
    ExpectSameBytes(z2.data(), z1.data(), n, "gru_step z_out");
    ExpectSameBytes(t2.data(), t1.data(), n, "gru_step n_out");

    std::vector<float> dg1(n), dg2(n), dh1(n), dh2(n), dc1(n), dc2(n);
    sc.sigmoid_mul_grad(g.data(), z.data(), h.data(), dg1.data(),
                        dh1.data(), n);
    vx.sigmoid_mul_grad(g.data(), z.data(), h.data(), dg2.data(),
                        dh2.data(), n);
    ExpectSameBits(dg1, dg2, "sigmoid_mul_grad dg");
    ExpectSameBits(dh1, dh2, "sigmoid_mul_grad dh");

    sc.gru_tail_grad(g.data(), z.data(), t.data(), h.data(), dg1.data(),
                     dh1.data(), dc1.data(), n);
    vx.gru_tail_grad(g.data(), z.data(), t.data(), h.data(), dg2.data(),
                     dh2.data(), dc2.data(), n);
    ExpectSameBytes(dg2.data(), dg1.data(), n, "gru_tail_grad dgz");
    ExpectSameBytes(dh2.data(), dh1.data(), n, "gru_tail_grad dh");
    ExpectSameBytes(dc2.data(), dc1.data(), n, "gru_tail_grad dc");

    const auto rr = RandomVec(n, 2400 + n, 0.02f, 0.98f);
    sc.gru_step_grad(g.data(), rr.data(), z.data(), t.data(), h.data(),
                     hh.data(), s1.data(), w1.data(), dh1.data(), n);
    vx.gru_step_grad(g.data(), rr.data(), z.data(), t.data(), h.data(),
                     hh.data(), s2.data(), w2.data(), dh2.data(), n);
    ExpectSameBytes(s2.data(), s1.data(), 3 * n, "gru_step_grad dxi");
    ExpectSameBytes(w2.data(), w1.data(), 3 * n, "gru_step_grad dhh");
    ExpectSameBytes(dh2.data(), dh1.data(), n, "gru_step_grad dh");
  }
}

// The offset-independence contract (DESIGN.md §5f) for the fused GRU
// kernels: computing a buffer in two arbitrary chunks must be
// memcmp-identical to one whole-buffer call, at both dispatch levels.
// This is what lets the rollout plan's fused row segments partition rows
// freely while staying bit-identical to the eager path.
TEST(SimdKernelTest, GruFusedKernelsOffsetIndependent) {
  const int64_t n = 100;
  const auto a = RandomVec(n, 3100);
  const auto b = RandomVec(n, 3200);
  const auto h = RandomVec(n, 3300);
  const auto g = RandomVec(n, 3400);
  const auto z = RandomVec(n, 3500, 0.02f, 0.98f);
  const auto t = RandomVec(n, 3600, -0.98f, 0.98f);
  for (simd::Level level : {simd::Level::kScalar, simd::Level::kAvx2}) {
    if (level == simd::Level::kAvx2 && !simd::Avx2Available()) continue;
    const auto& k = simd::KernelsFor(level);
    for (int64_t split : {1, 37, 64, 99}) {
      std::vector<float> whole(n), parts(n), whole2(n), parts2(n),
          whole3(n), parts3(n);

      k.sigmoid_mul(a.data(), b.data(), whole.data(), nullptr, n);
      k.sigmoid_mul(a.data(), b.data(), parts.data(), nullptr, split);
      k.sigmoid_mul(a.data() + split, b.data() + split,
                    parts.data() + split, nullptr, n - split);
      EXPECT_EQ(0,
                std::memcmp(whole.data(), parts.data(), sizeof(float) * n))
          << "sigmoid_mul split=" << split;

      k.gru_tail(a.data(), h.data(), b.data(), whole.data(), nullptr,
                 nullptr, n);
      k.gru_tail(a.data(), h.data(), b.data(), parts.data(), nullptr,
                 nullptr, split);
      k.gru_tail(a.data() + split, h.data() + split, b.data() + split,
                 parts.data() + split, nullptr, nullptr, n - split);
      EXPECT_EQ(0,
                std::memcmp(whole.data(), parts.data(), sizeof(float) * n))
          << "gru_tail split=" << split;

      k.sigmoid_mul_grad(g.data(), z.data(), h.data(), whole.data(),
                         whole2.data(), n);
      k.sigmoid_mul_grad(g.data(), z.data(), h.data(), parts.data(),
                         parts2.data(), split);
      k.sigmoid_mul_grad(g.data() + split, z.data() + split,
                         h.data() + split, parts.data() + split,
                         parts2.data() + split, n - split);
      EXPECT_EQ(0,
                std::memcmp(whole.data(), parts.data(), sizeof(float) * n));
      EXPECT_EQ(
          0, std::memcmp(whole2.data(), parts2.data(), sizeof(float) * n));

      k.gru_tail_grad(g.data(), z.data(), t.data(), h.data(), whole.data(),
                      whole2.data(), whole3.data(), n);
      k.gru_tail_grad(g.data(), z.data(), t.data(), h.data(), parts.data(),
                      parts2.data(), parts3.data(), split);
      k.gru_tail_grad(g.data() + split, z.data() + split, t.data() + split,
                      h.data() + split, parts.data() + split,
                      parts2.data() + split, parts3.data() + split,
                      n - split);
      EXPECT_EQ(0,
                std::memcmp(whole.data(), parts.data(), sizeof(float) * n));
      EXPECT_EQ(
          0, std::memcmp(whole2.data(), parts2.data(), sizeof(float) * n));
      EXPECT_EQ(
          0, std::memcmp(whole3.data(), parts3.data(), sizeof(float) * n));
    }
  }
}

/// Operands of one exact-kernel call; each ExactKernels() entry reads
/// what its kernel takes.
struct ExactIo {
  const float* a;
  const float* b;
  const float* c;
  float s;
  float* o;
  float* o2;
  int64_t n;
};
using ExactCall = void (*)(const simd::Kernels&, const ExactIo&);

/// The 18 kernels compiled from the one source in simd_elementwise.h.
/// The in-place ones (acc_add, max_into, scale) first copy `a` into `o`.
const std::vector<std::pair<const char*, ExactCall>>& ExactKernels() {
  using K = simd::Kernels;
  using Io = ExactIo;
  static const std::vector<std::pair<const char*, ExactCall>> kernels = {
      {"add", [](const K& k, const Io& io) { k.add(io.a, io.b, io.o, io.n); }},
      {"sub", [](const K& k, const Io& io) { k.sub(io.a, io.b, io.o, io.n); }},
      {"mul", [](const K& k, const Io& io) { k.mul(io.a, io.b, io.o, io.n); }},
      {"div", [](const K& k, const Io& io) { k.div(io.a, io.b, io.o, io.n); }},
      {"add_s",
       [](const K& k, const Io& io) { k.add_s(io.a, io.s, io.o, io.n); }},
      {"sub_s",
       [](const K& k, const Io& io) { k.sub_s(io.a, io.s, io.o, io.n); }},
      {"rsub_s",
       [](const K& k, const Io& io) { k.rsub_s(io.a, io.s, io.o, io.n); }},
      {"mul_s",
       [](const K& k, const Io& io) { k.mul_s(io.a, io.s, io.o, io.n); }},
      {"div_s",
       [](const K& k, const Io& io) { k.div_s(io.a, io.s, io.o, io.n); }},
      {"rdiv_s",
       [](const K& k, const Io& io) { k.rdiv_s(io.a, io.s, io.o, io.n); }},
      {"acc_add",
       [](const K& k, const Io& io) {
         std::copy_n(io.a, io.n, io.o);
         k.acc_add(io.o, io.b, io.n);
       }},
      {"max_into",
       [](const K& k, const Io& io) {
         std::copy_n(io.a, io.n, io.o);
         k.max_into(io.o, io.b, io.n);
       }},
      {"neg", [](const K& k, const Io& io) { k.neg(io.a, io.o, io.n); }},
      {"vabs", [](const K& k, const Io& io) { k.vabs(io.a, io.o, io.n); }},
      {"relu", [](const K& k, const Io& io) { k.relu(io.a, io.o, io.n); }},
      {"relu_grad",
       [](const K& k, const Io& io) { k.relu_grad(io.a, io.b, io.o, io.n); }},
      {"scale",
       [](const K& k, const Io& io) {
         std::copy_n(io.a, io.n, io.o);
         k.scale(io.o, io.s, io.n);
       }},
      {"sigmoid_mul_grad",
       [](const K& k, const Io& io) {
         k.sigmoid_mul_grad(io.a, io.b, io.c, io.o, io.o2, io.n);
       }},
  };
  return kernels;
}

// The offset-independence contract for the exact kernels: two chunks at
// any split give the bits of one whole call at each level, and the two
// levels give the same bits, with NaN, signed zeros and infinities mixed
// into the operands.
TEST(SimdKernelTest, ExactKernelsBitIdenticalAcrossOffsetsAndLevels) {
  const int64_t n = 100;
  auto a = RandomVec(n, 3700);
  auto b = RandomVec(n, 3800);
  const auto c = RandomVec(n, 3900);
  const size_t k = kSpecials.size();
  for (int64_t i = 0; i < n; i += 3) {
    const size_t j = i / 3;
    a[i] = kSpecials[j % k];
    b[i] = kSpecials[(j / k) % k];
  }
  const float s = -0.0f;
  for (const auto& [name, call] : ExactKernels()) {
    // The whole-call outputs at `level`, after checking every split
    // against them.
    const auto run = [&](simd::Level level) {
      const auto& kern = simd::KernelsFor(level);
      std::vector<float> whole(n), whole2(n);
      call(kern, {a.data(), b.data(), c.data(), s, whole.data(),
                  whole2.data(), n});
      for (int64_t split : {1, 7, 8, 9, 37, 64, 99}) {
        std::vector<float> parts(n), parts2(n);
        call(kern, {a.data(), b.data(), c.data(), s, parts.data(),
                    parts2.data(), split});
        call(kern, {a.data() + split, b.data() + split, c.data() + split, s,
                    parts.data() + split, parts2.data() + split, n - split});
        const std::string what = std::string(name) + " split " +
                                 std::to_string(split) + " at " +
                                 simd::LevelName(level);
        ExpectSameBits(whole, parts, what);
        ExpectSameBits(whole2, parts2, what + ", second output");
      }
      return std::pair{whole, whole2};
    };
    const auto scalar = run(simd::Level::kScalar);
    if (!simd::Avx2Available()) continue;
    const auto avx2 = run(simd::Level::kAvx2);
    ExpectSameBits(scalar.first, avx2.first,
                   std::string(name) + " across levels");
    ExpectSameBits(scalar.second, avx2.second,
                   std::string(name) + " across levels, second output");
  }
}

// Inputs on which a hand-written lane and its definition could part:
// NaN of both signs, signed zeros, infinities, denormals, the exp clamp
// edges (+-88.376...) and their neighbours, and the points where expf
// overflows, goes denormal and underflows.
const std::vector<float>& EdgeValues() {
  static const std::vector<float> values = [] {
    const float inf = std::numeric_limits<float>::infinity();
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float hi = 88.3762626647950f;
    const float lo = -88.3762626647949f;
    const float dmin = std::numeric_limits<float>::denorm_min();
    const float dmax = std::bit_cast<float>(uint32_t{0x007fffff});
    const float fmax = std::numeric_limits<float>::max();
    return std::vector<float>{
        0.0f,   -0.0f,  nan,    -nan,
        inf,    -inf,   hi,     std::nextafter(hi, inf),
        std::nextafter(hi, 0.0f), lo, std::nextafter(lo, -inf),
        std::nextafter(lo, 0.0f), dmin, -dmin, dmax, -dmax,
        std::numeric_limits<float>::min(), fmax, -fmax, 1.0f,
        -1.0f, 0.5f, 88.72284f, -87.33655f, -103.97208f, 1e-8f};
  }();
  return values;
}

/// Operands of one call for the definition checks: six inputs and four
/// outputs of length 3n (gru_step and its backward read and write
/// [r|z|n] rows), plus five doubles for the reductions.
struct DefIo {
  const float* in[6];
  float* out[4];
  double* d;
  int64_t n;
};
using DefCall = void (*)(const simd::Kernels&, const DefIo&);

/// The 18 kernels outside ExactKernels(). Any of them may carry a
/// hand-written AVX2 body (DESIGN.md §5f); the checks below hold each
/// level to the definition in simd_elementwise.h either way.
const std::vector<std::pair<const char*, DefCall>>& DefinedKernels() {
  using K = simd::Kernels;
  using Io = DefIo;
  static const std::vector<std::pair<const char*, DefCall>> kernels = {
      {"vexp", [](const K& k, const Io& io) {
         k.vexp(io.in[0], io.out[0], io.n);
       }},
      {"sigmoid", [](const K& k, const Io& io) {
         k.sigmoid(io.in[0], io.out[0], io.n);
       }},
      {"vtanh", [](const K& k, const Io& io) {
         k.vtanh(io.in[0], io.out[0], io.n);
       }},
      {"sigmoid_grad", [](const K& k, const Io& io) {
         k.sigmoid_grad(io.in[0], io.in[1], io.out[0], io.n);
       }},
      {"tanh_grad", [](const K& k, const Io& io) {
         k.tanh_grad(io.in[0], io.in[1], io.out[0], io.n);
       }},
      {"axpy", [](const K& k, const Io& io) {
         std::copy_n(io.in[1], io.n, io.out[0]);
         k.axpy(io.in[2][0], io.in[0], io.out[0], io.n);
       }},
      {"dot", [](const K& k, const Io& io) {
         io.d[0] = k.dot(io.in[0], io.in[1], io.n);
       }},
      {"sum", [](const K& k, const Io& io) {
         io.d[0] = k.sum(io.in[0], io.n);
       }},
      {"dot_gather", [](const K& k, const Io& io) {
         // Three gathered rows of width n (row 2 twice) onto d[0..2].
         const int64_t idx[3] = {2, 0, 2};
         k.dot_gather(io.in[0], io.in[1], idx, 3, io.n, io.d);
       }},
      {"diffuse_rows", [](const K& k, const Io& io) {
         // n / 3 output rows of width 3, each mixing rows 2, 0 and 1 of
         // in[1] with its own three weights from in[0].
         const int64_t idx[3] = {2, 0, 1};
         const int64_t rows = io.n / 3;
         k.diffuse_rows(io.in[2], io.in[0], idx, 3, io.in[1], io.in[3],
                        io.out[0], rows, 3);
       }},
      {"matmul_rows", [](const K& k, const Io& io) {
         std::copy_n(io.in[2], io.n, io.out[0]);
         k.matmul_rows(io.in[0], 3, 1, io.in[1], io.out[0], 1, 3, io.n);
       }},
      {"gru_blend", [](const K& k, const Io& io) {
         k.gru_blend(io.in[0], io.in[1], io.in[2], io.out[0], io.n);
       }},
      {"sigmoid_mul", [](const K& k, const Io& io) {
         k.sigmoid_mul(io.in[0], io.in[1], io.out[0], io.out[1], io.n);
       }},
      {"sigmoid_mul (eval)", [](const K& k, const Io& io) {
         k.sigmoid_mul(io.in[0], io.in[1], io.out[0], nullptr, io.n);
       }},
      {"gru_tail", [](const K& k, const Io& io) {
         k.gru_tail(io.in[0], io.in[1], io.in[2], io.out[0], io.out[1],
                    io.out[2], io.n);
       }},
      {"gru_tail (eval)", [](const K& k, const Io& io) {
         k.gru_tail(io.in[0], io.in[1], io.in[2], io.out[0], nullptr,
                    nullptr, io.n);
       }},
      {"gru_tail_grad", [](const K& k, const Io& io) {
         k.gru_tail_grad(io.in[0], io.in[1], io.in[2], io.in[3], io.out[0],
                         io.out[1], io.out[2], io.n);
       }},
      {"gru_step", [](const K& k, const Io& io) {
         k.gru_step(io.in[0], io.in[1], io.in[2], io.out[0], io.out[1],
                    io.out[2], io.out[3], io.n);
       }},
      {"gru_step (eval)", [](const K& k, const Io& io) {
         k.gru_step(io.in[0], io.in[1], io.in[2], io.out[0], nullptr,
                    nullptr, nullptr, io.n);
       }},
      {"gru_step_grad", [](const K& k, const Io& io) {
         k.gru_step_grad(io.in[0], io.in[1], io.in[2], io.in[3], io.in[4],
                         io.in[5], io.out[0], io.out[1], io.out[2], io.n);
       }},
      {"masked_err", [](const K& k, const Io& io) {
         const simd::MaskedErrAcc acc =
             k.masked_err(io.in[0], io.in[1], io.n, 1e-3);
         io.d[0] = acc.abs;
         io.d[1] = acc.sq;
         io.d[2] = acc.ape;
         io.d[3] = static_cast<double>(acc.count);
         io.d[4] = static_cast<double>(acc.ape_count);
       }},
  };
  return kernels;
}

/// Like ExpectSameBytes, except that any two NaNs match. When two NaNs
/// with different bits meet in one IEEE operation — an input NaN and the
/// default NaN that inf - inf or 0 * inf makes, say — IEEE 754 leaves
/// open which one the result carries, and x86 takes the first operand.
/// GCC may order a commutative operation's operands differently in the
/// two kernel TUs, so only whether a result is NaN is pinned there.
void ExpectSameBytesOrBothNan(const float* x, const float* y, int64_t n,
                              const std::string& what) {
  for (int64_t i = 0; i < n; ++i) {
    if (std::isnan(x[i]) && std::isnan(y[i])) continue;
    if (std::bit_cast<uint32_t>(x[i]) != std::bit_cast<uint32_t>(y[i])) {
      ExpectSameBytes(x + i, y + i, 1, what + " at i=" + std::to_string(i));
      return;
    }
  }
}

/// Runs every DefinedKernels() entry at both levels on the inputs (each
/// of length 3n) and compares all outputs byte for byte, NaNs up to
/// their sign and payload (ExpectSameBytesOrBothNan).
void ExpectDefinedKernelsMatch(const std::vector<std::vector<float>>& in,
                               int64_t n, const std::string& what) {
  const auto& sc = simd::KernelsFor(simd::Level::kScalar);
  const auto& vx = simd::KernelsFor(simd::Level::kAvx2);
  for (const auto& [name, call] : DefinedKernels()) {
    std::vector<std::vector<float>> out[2];
    double d[2][5] = {};
    for (int level = 0; level < 2; ++level) {
      out[level].assign(4, std::vector<float>(3 * n, 0.25f));
      DefIo io{{in[0].data(), in[1].data(), in[2].data(), in[3].data(),
                in[4].data(), in[5].data()},
               {out[level][0].data(), out[level][1].data(),
                out[level][2].data(), out[level][3].data()},
               d[level],
               n};
      call(level == 0 ? sc : vx, io);
    }
    for (int j = 0; j < 4; ++j) {
      ExpectSameBytesOrBothNan(out[0][j].data(), out[1][j].data(), 3 * n,
                               std::string(name) + " output " +
                                   std::to_string(j) + ", " + what);
    }
    for (int j = 0; j < 5; ++j) {
      if (std::isnan(d[0][j]) && std::isnan(d[1][j])) continue;
      ExpectSameDouble(d[0][j], d[1][j],
                       std::string(name) + " result " + std::to_string(j) +
                           ", " + what);
    }
    if (testing::Test::HasFailure()) return;
  }
}

// Each hand-written AVX2 body against its definition: every edge value
// at every lane and tail position for n = 1..17, then a long call with
// edge values strewn through random data. The one-input kernels are
// pinned to the bit, NaNs included, by the bit-pattern sweeps below.
TEST(SimdKernelTest, HandBodiesMatchTheirDefinitions) {
  if (SkipWithoutAvx2()) return;
  const std::vector<float>& edges = EdgeValues();
  const int64_t e = static_cast<int64_t>(edges.size());
  std::vector<std::vector<float>> in(6);
  for (int64_t n = 1; n <= 17; ++n) {
    for (int64_t shift = 0; shift < e; ++shift) {
      for (int64_t j = 0; j < 6; ++j) {
        in[j].resize(3 * n);
        for (int64_t i = 0; i < 3 * n; ++i) {
          in[j][i] = edges[(i + shift + 5 * j) % e];
        }
      }
      ExpectDefinedKernelsMatch(in, n,
                                "n=" + std::to_string(n) +
                                    " shift=" + std::to_string(shift));
      if (testing::Test::HasFailure()) return;
    }
  }
  const int64_t n = 65536;
  for (int64_t j = 0; j < 6; ++j) {
    in[j] = RandomVec(3 * n, 4000 + j, -12.0f, 12.0f);
    for (int64_t i = j; i < 3 * n; i += 7) in[j][i] = edges[(i / 7) % e];
  }
  ExpectDefinedKernelsMatch(in, n, "n=65536");
}

// dot_gather against one dot per gathered row at each level, through the
// AVX2 body's widened-row path (widths up to 64) and past it, with edge
// values strewn through both operands.
TEST(SimdKernelTest, DotGatherMatchesDotPerRow) {
  std::vector<simd::Level> levels = {simd::Level::kScalar};
  if (simd::Avx2Available()) levels.push_back(simd::Level::kAvx2);
  const std::vector<float>& edges = EdgeValues();
  const int64_t e = static_cast<int64_t>(edges.size());
  const std::vector<int64_t> idx = {3, 0, 3, 1, 2};
  const int64_t m = static_cast<int64_t>(idx.size());
  for (simd::Level level : levels) {
    const simd::Kernels& k = simd::KernelsFor(level);
    for (int64_t c : {1, 2, 7, 8, 9, 15, 16, 17, 18, 31, 32, 33, 63, 64, 65,
                      100}) {
      for (int64_t shift = 0; shift < 3; ++shift) {
        std::vector<float> x = RandomVec(c, 5000 + c + shift);
        std::vector<float> src = RandomVec(4 * c, 5100 + c + shift);
        if (shift > 0) {
          for (int64_t i = shift; i < c; i += 5) x[i] = edges[(i + c) % e];
          for (int64_t i = 0; i < 4 * c; i += 3 + shift) {
            src[i] = edges[(i * 7 + shift) % e];
          }
        }
        std::vector<double> got(m, 0.5), want(m, 0.5);
        k.dot_gather(x.data(), src.data(), idx.data(), m, c, got.data());
        for (int64_t j = 0; j < m; ++j) {
          want[j] += k.dot(x.data(), src.data() + idx[j] * c, c);
        }
        for (int64_t j = 0; j < m; ++j) {
          if (std::isnan(got[j]) && std::isnan(want[j])) continue;
          ExpectSameDouble(got[j], want[j],
                           std::string(simd::LevelName(level)) +
                               " c=" + std::to_string(c) +
                               " shift=" + std::to_string(shift) +
                               " j=" + std::to_string(j));
        }
      }
    }
  }
}

/// Runs the one-input kernels with hand-written AVX2 bodies (the exp
/// family) at both levels over `bits` (as floats) and reports the
/// first element whose bytes differ. `chunk` sets the call length, so a
/// chunk below 8 runs every element through the AVX2 tail path.
void ExpectUnaryKernelsMatch(const std::vector<uint32_t>& bits,
                            int64_t chunk) {
  const auto& sc = simd::KernelsFor(simd::Level::kScalar);
  const auto& vx = simd::KernelsFor(simd::Level::kAvx2);
  const int64_t n = static_cast<int64_t>(bits.size());
  std::vector<float> x(n), o1(n), o2(n);
  std::memcpy(x.data(), bits.data(), sizeof(float) * n);
  using UnK = void (*)(const float*, float*, int64_t);
  const std::pair<const char*, std::pair<UnK, UnK>> kernels[] = {
      {"vexp", {sc.vexp, vx.vexp}},
      {"sigmoid", {sc.sigmoid, vx.sigmoid}},
      {"vtanh", {sc.vtanh, vx.vtanh}}};
  for (const auto& [name, fns] : kernels) {
    for (int64_t i0 = 0; i0 < n; i0 += chunk) {
      const int64_t len = std::min(chunk, n - i0);
      fns.first(x.data() + i0, o1.data() + i0, len);
      fns.second(x.data() + i0, o2.data() + i0, len);
    }
    ExpectSameBytes(o1.data(), o2.data(), n,
                    std::string(name) + " over float patterns, chunk " +
                        std::to_string(chunk));
  }
}

// A strided sweep of the float bit patterns (every 65,537th, about 65k)
// plus every class edge and its neighbours, through the lanes and
// through the tail path.
TEST(SimdKernelTest, UnaryKernelsMatchDefinitionOverBitPatterns) {
  if (SkipWithoutAvx2()) return;
  std::vector<uint32_t> bits;
  for (uint64_t b = 0; b <= 0xffffffffu; b += 65537) {
    bits.push_back(static_cast<uint32_t>(b));
  }
  const uint32_t edges[] = {
      0x00000000u, 0x00000001u, 0x007fffffu, 0x00800000u, 0x3f800000u,
      0x7f7fffffu, 0x7f800000u, 0x7f800001u, 0x7fbfffffu, 0x7fc00000u,
      0x7fffffffu, std::bit_cast<uint32_t>(88.3762626647950f),
      std::bit_cast<uint32_t>(88.3762626647949f)};
  for (uint32_t edge : edges) {
    for (uint32_t sign : {0u, 0x80000000u}) {
      for (int d = -2; d <= 2; ++d) bits.push_back((edge | sign) + d);
    }
  }
  ExpectUnaryKernelsMatch(bits, 4096);
  ExpectUnaryKernelsMatch(bits, 7);
}

// Every one of the 2^32 float bit patterns through the exp family at both levels (minutes; the nightly workflow runs it with
// --gtest_also_run_disabled_tests).
TEST(SimdKernelTest, DISABLED_UnaryKernelsMatchDefinitionOnEveryFloat) {
  if (SkipWithoutAvx2()) return;
  const auto t0 = std::chrono::steady_clock::now();
  constexpr uint64_t kChunk = uint64_t{1} << 16;
  std::vector<uint32_t> bits(kChunk);
  for (uint64_t base = 0; base < (uint64_t{1} << 32); base += kChunk) {
    for (uint64_t i = 0; i < kChunk; ++i) {
      bits[i] = static_cast<uint32_t>(base + i);
    }
    ExpectUnaryKernelsMatch(bits, kChunk);
    if (testing::Test::HasFailure()) {
      ADD_FAILURE() << "in the chunk from 0x" << std::hex << base;
      return;
    }
  }
  GTEST_LOG_(INFO) << "2^32 patterns in "
                   << std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count()
                   << " s";
}

TEST(FusedOpsTest, GruStepMatchesComposedChain) {
  utils::Rng rng(49);
  const int64_t batch = 6, hd = 5;
  Tensor xi0 = Tensor::Normal(Shape({batch, 3 * hd}), rng);
  Tensor hh0 = Tensor::Normal(Shape({batch, 3 * hd}), rng);
  Tensor h0 = Tensor::Normal(Shape({batch, hd}), rng);

  auto run = [&](bool fused) {
    ag::Variable xi(xi0.Clone(), true);
    ag::Variable hh(hh0.Clone(), true);
    ag::Variable h(h0.Clone(), true);
    ag::Variable out;
    if (fused) {
      out = ag::GruStep(xi, hh, h);
    } else {
      auto part = [&](const ag::Variable& v, int64_t j) {
        return ag::Slice(v, 1, j * hd, (j + 1) * hd);
      };
      ag::Variable r = ag::Sigmoid(ag::Add(part(xi, 0), part(hh, 0)));
      ag::Variable z = ag::Sigmoid(ag::Add(part(xi, 1), part(hh, 1)));
      ag::Variable nc =
          ag::Tanh(ag::Add(part(xi, 2), ag::Mul(r, part(hh, 2))));
      out = ag::Add(ag::Mul(z, h),
                    ag::Mul(ag::RSubScalar(z, 1.0f), nc));
    }
    ag::MeanAll(ag::Mul(out, out)).Backward();
    return std::vector<Tensor>{out.value(), xi.grad(), hh.grad(), h.grad()};
  };
  const auto f = run(true);
  const auto r = run(false);
  for (size_t i = 0; i < f.size(); ++i) {
    EXPECT_TRUE(tensor::AllClose(f[i], r[i], 1e-5f, 1e-4f)) << "tensor " << i;
  }
}

TEST(FusedOpsTest, GruStepPassesGradCheck) {
  utils::Rng rng(50);
  const int64_t batch = 2, hd = 3;
  std::vector<Tensor> inputs = {
      Tensor::Normal(Shape({batch, 3 * hd}), rng),
      Tensor::Normal(Shape({batch, 3 * hd}), rng),
      Tensor::Normal(Shape({batch, hd}), rng),
  };
  std::string error;
  EXPECT_TRUE(ag::CheckGradients(
      [](const std::vector<ag::Variable>& v) {
        return ag::MeanAll(ag::Mul(ag::GruStep(v[0], v[1], v[2]),
                                   ag::GruStep(v[0], v[1], v[2])));
      },
      inputs, &error))
      << error;
}

// ---------------------------------------------------------------------------
// 6. ScratchArena semantics
// ---------------------------------------------------------------------------

TEST(ScratchArenaTest, ScopeReusesAndResets) {
  utils::ScratchArena arena;
  void* first = nullptr;
  {
    utils::ScratchArena::Scope scope(arena);
    first = arena.Alloc(1000);
    ASSERT_NE(first, nullptr);
    EXPECT_GE(arena.bytes_in_use(), 1000);
  }
  EXPECT_EQ(arena.bytes_in_use(), 0);
  {
    utils::ScratchArena::Scope scope(arena);
    // Same chunk, same cursor: the previous allocation's storage is
    // reused, not re-reserved.
    void* second = arena.Alloc(1000);
    EXPECT_EQ(first, second);
  }
}

TEST(ScratchArenaTest, NestedScopesRestoreLifo) {
  utils::ScratchArena arena;
  utils::ScratchArena::Scope outer(arena);
  arena.Alloc(100);
  const int64_t outer_use = arena.bytes_in_use();
  {
    utils::ScratchArena::Scope inner(arena);
    arena.Alloc(5000);
    EXPECT_GT(arena.bytes_in_use(), outer_use);
  }
  EXPECT_EQ(arena.bytes_in_use(), outer_use);
}

TEST(ScratchArenaTest, GrowsAcrossChunksAndTracksHighWater) {
  utils::ScratchArena arena;
  utils::ScratchArena::Scope scope(arena);
  // Force several chunk spills; every pointer must stay valid and
  // distinct inside the scope.
  float* a = arena.AllocArray<float>(20000);
  float* b = arena.AllocArray<float>(40000);
  float* c = arena.AllocArray<float>(80000);
  a[0] = 1.0f;
  b[0] = 2.0f;
  c[0] = 3.0f;
  a[19999] = 4.0f;
  b[39999] = 5.0f;
  c[79999] = 6.0f;
  EXPECT_EQ(a[0], 1.0f);
  EXPECT_EQ(b[0], 2.0f);
  EXPECT_EQ(c[0], 3.0f);
  const int64_t total = (20000 + 40000 + 80000) * sizeof(float);
  EXPECT_GE(arena.high_water(), total);
  EXPECT_GE(utils::ScratchArena::ProcessHighWater(), arena.high_water());
}

TEST(ScratchArenaTest, AlignmentIsAtLeast64) {
  utils::ScratchArena arena;
  utils::ScratchArena::Scope scope(arena);
  for (int i = 0; i < 10; ++i) {
    arena.Alloc(1);  // odd-size churn
    auto p = reinterpret_cast<uintptr_t>(arena.AllocArray<float>(3));
    EXPECT_EQ(p % 64, 0u);
  }
}

TEST(ScratchArenaTest, ThreadLocalIsPerThread) {
  utils::ScratchArena* main_arena = &utils::ScratchArena::ThreadLocal();
  utils::ScratchArena* worker_arena = nullptr;
  std::thread t(
      [&] { worker_arena = &utils::ScratchArena::ThreadLocal(); });
  t.join();
  EXPECT_NE(main_arena, worker_arena);
}

// ---------------------------------------------------------------------------
// 7. DeterministicBlockReduce
// ---------------------------------------------------------------------------

TEST(BlockReduceTest, ReduceBlockSizeIsPinned) {
  // The block size IS the determinism contract: changing it changes every
  // reduction's grouping (SumAll, metrics, ClipGradNorm) and silently
  // shifts float results. Bump this test only with a changelog entry.
  EXPECT_EQ(utils::kReduceBlock, 16384);
}

TEST(BlockReduceTest, MatchesSequentialSum) {
  const auto v = RandomVec(100000, 51);
  const auto sum_k = simd::KernelsFor(simd::Level::kScalar).sum;
  auto reduce = [&] {
    return utils::DeterministicBlockReduce<double>(
        static_cast<int64_t>(v.size()), 0.0,
        [&](int64_t lo, int64_t hi) { return sum_k(v.data() + lo, hi - lo); },
        [](double& acc, double p) { acc += p; });
  };
  const double reference = reduce();
  double plain = 0.0;
  for (float x : v) plain += x;
  EXPECT_NEAR(reference, plain, 1e-6 * (1.0 + std::fabs(plain)));
  // Bit-identical across thread counts.
  for (int64_t threads : {1, 2, 4}) {
    ThreadScope scope(threads);
    const double again = reduce();
    EXPECT_EQ(std::memcmp(&reference, &again, sizeof(double)), 0)
        << "block reduce differs at " << threads << " threads";
  }
}

TEST(BlockReduceTest, EmptyAndSingleBlockRanges) {
  auto block = [](int64_t lo, int64_t hi) {
    return static_cast<double>(hi - lo);
  };
  auto merge = [](double& acc, double p) { acc += p; };
  EXPECT_EQ(utils::DeterministicBlockReduce<double>(0, 0.0, block, merge),
            0.0);
  EXPECT_EQ(utils::DeterministicBlockReduce<double>(100, 0.0, block, merge),
            100.0);
  EXPECT_EQ(utils::DeterministicBlockReduce<double>(
                utils::kReduceBlock * 3 + 7, 0.0, block, merge),
            static_cast<double>(utils::kReduceBlock * 3 + 7));
}

}  // namespace
}  // namespace sagdfn
