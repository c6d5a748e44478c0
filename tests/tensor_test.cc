#include "tensor/tensor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <deque>
#include <limits>
#include <mutex>
#include <thread>
#include <vector>

#include "utils/rng.h"

namespace sagdfn::tensor {
namespace {

TEST(TensorTest, ZerosAndOnes) {
  Tensor z = Tensor::Zeros(Shape({2, 3}));
  Tensor o = Tensor::Ones(Shape({2, 3}));
  for (int64_t i = 0; i < 6; ++i) {
    EXPECT_EQ(z[i], 0.0f);
    EXPECT_EQ(o[i], 1.0f);
  }
}

TEST(TensorTest, FullAndScalar) {
  Tensor f = Tensor::Full(Shape({4}), 2.5f);
  EXPECT_EQ(f[3], 2.5f);
  Tensor s = Tensor::Scalar(7.0f);
  EXPECT_EQ(s.ndim(), 0);
  EXPECT_EQ(s.Item(), 7.0f);
}

TEST(TensorTest, FromVectorAndAt) {
  Tensor t = Tensor::FromVector({1, 2, 3, 4, 5, 6}, Shape({2, 3}));
  EXPECT_EQ(t.At({0, 0}), 1.0f);
  EXPECT_EQ(t.At({1, 2}), 6.0f);
  t.At({1, 0}) = 9.0f;
  EXPECT_EQ(t[3], 9.0f);
}

TEST(TensorTest, ArangeAndEye) {
  Tensor a = Tensor::Arange(5);
  EXPECT_EQ(a[4], 4.0f);
  Tensor e = Tensor::Eye(3);
  EXPECT_EQ(e.At({1, 1}), 1.0f);
  EXPECT_EQ(e.At({1, 2}), 0.0f);
}

TEST(TensorTest, SharedStorageSemantics) {
  Tensor a = Tensor::Ones(Shape({4}));
  Tensor b = a;  // handle copy
  b[0] = 5.0f;
  EXPECT_EQ(a[0], 5.0f);
  EXPECT_TRUE(a.SharesStorageWith(b));

  Tensor c = a.Clone();
  c[1] = 9.0f;
  EXPECT_EQ(a[1], 1.0f);
  EXPECT_FALSE(a.SharesStorageWith(c));
}

TEST(TensorTest, ReshapeSharesStorage) {
  Tensor a = Tensor::Arange(6);
  Tensor b = a.Reshape({2, 3});
  EXPECT_TRUE(a.SharesStorageWith(b));
  EXPECT_EQ(b.At({1, 0}), 3.0f);
}

TEST(TensorTest, ReshapeInferredDim) {
  Tensor a = Tensor::Arange(12);
  Tensor b = a.Reshape({3, -1});
  EXPECT_EQ(b.dim(1), 4);
  Tensor c = a.Reshape({-1, 6});
  EXPECT_EQ(c.dim(0), 2);
}

TEST(TensorTest, CopyFrom) {
  Tensor a = Tensor::Zeros(Shape({3}));
  Tensor b = Tensor::FromVector({1, 2, 3}, Shape({3}));
  a.CopyFrom(b);
  EXPECT_EQ(a[2], 3.0f);
  b[0] = 10.0f;  // CopyFrom is deep
  EXPECT_EQ(a[0], 1.0f);
}

TEST(TensorTest, UniformBounds) {
  utils::Rng rng(1);
  Tensor u = Tensor::Uniform(Shape({1000}), rng, -2.0f, 3.0f);
  for (int64_t i = 0; i < u.size(); ++i) {
    EXPECT_GE(u[i], -2.0f);
    EXPECT_LT(u[i], 3.0f);
  }
}

TEST(TensorTest, NormalMoments) {
  utils::Rng rng(2);
  Tensor g = Tensor::Normal(Shape({20000}), rng, 1.0f, 2.0f);
  double sum = 0.0;
  double sq = 0.0;
  for (int64_t i = 0; i < g.size(); ++i) {
    sum += g[i];
    sq += g[i] * g[i];
  }
  const double mean = sum / g.size();
  const double var = sq / g.size() - mean * mean;
  EXPECT_NEAR(mean, 1.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(TensorTest, ToStringTruncates) {
  Tensor t = Tensor::Arange(100);
  std::string s = t.ToString(4);
  EXPECT_NE(s.find("..."), std::string::npos);
  EXPECT_NE(s.find("Tensor[100]"), std::string::npos);
}

// Every element of `t` is +0.0 (bit pattern 0: not -0.0, not NaN).
bool AllPositiveZero(const Tensor& t) {
  for (int64_t i = 0; i < t.size(); ++i) {
    if (std::bit_cast<uint32_t>(t[i]) != 0u) return false;
  }
  return true;
}

void ExpectWithinHighWater(const char* when) {
  const StorageBytes s = StorageStats();
  EXPECT_LE(s.live + s.retained, s.high_water) << when;
  EXPECT_GE(s.live, 0) << when;
  EXPECT_GE(s.retained, 0) << when;
}

// A released buffer comes back for the next tensor of the same element
// count, and comes back zero-filled whatever it last held.
TEST(TensorStorageTest, RecycledBufferComesBackZeroFilled) {
  constexpr int64_t kCount = 1237;  // no other test allocates this size
  const float* first = nullptr;
  {
    Tensor t = Tensor::Full(Shape({kCount}),
                            std::numeric_limits<float>::quiet_NaN());
    first = t.data();
  }
  EXPECT_GT(StorageStats().retained, 0);
  Tensor again(Shape({kCount}));
  EXPECT_EQ(again.data(), first);
  EXPECT_TRUE(AllPositiveZero(again));
}

// Retained plus live bytes never exceed the live high-water, after every
// allocation and release of a scripted sequence with mixed sizes,
// including growth past the previous high-water.
TEST(TensorStorageTest, RetainedPlusLiveStaysUnderHighWater) {
  const int64_t sizes[] = {1, 3, 64, 1000, 4099, 65536, 17, 300000};
  std::vector<Tensor> live;
  utils::Rng rng(7);
  for (int step = 0; step < 400; ++step) {
    const bool grow = live.empty() || rng.Uniform(0.0, 1.0) < 0.55;
    if (grow) {
      const int64_t n = sizes[(step * 5 + step / 7) % 8] * (1 + step / 200);
      live.emplace_back(Shape({n}));
      ASSERT_TRUE(AllPositiveZero(live.back())) << "step " << step;
      live.back().Fill(static_cast<float>(step));
      ExpectWithinHighWater("after an allocation");
    } else {
      const size_t victim =
          static_cast<size_t>(rng.Uniform(0.0, 1.0) * live.size()) %
          live.size();
      live.erase(live.begin() + static_cast<int64_t>(victim));
      ExpectWithinHighWater("after a release");
    }
    if (testing::Test::HasFailure()) return;
  }
  live.clear();
  ExpectWithinHighWater("after releasing everything");
}

// Four threads allocate and release mixed sizes; a third of the tensors
// are released on a thread other than the one that allocated them. Every
// allocation reads all +0.0, and the footprint bound holds at the end.
TEST(TensorStorageTest, ConcurrentAllocateAndCrossThreadRelease) {
  constexpr int kThreads = 4;
  constexpr int kIters = 300;
  const int64_t sizes[] = {5, 64, 777, 4099};
  std::mutex handoff_mu;
  std::deque<Tensor> handoff;
  std::atomic<int> dirty{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        Tensor x(Shape({sizes[(t + i) % 4]}));
        if (!AllPositiveZero(x)) dirty.fetch_add(1);
        x.Fill(static_cast<float>(t * kIters + i) + 0.5f);
        Tensor taken;
        {
          std::lock_guard<std::mutex> lock(handoff_mu);
          if (i % 3 == 0) {
            handoff.push_back(std::move(x));
          } else if (!handoff.empty()) {
            taken = std::move(handoff.front());
            handoff.pop_front();
          }
        }
        // `taken` (another thread's tensor, as often as not) and `x`
        // release here, outside the handoff lock.
      }
    });
  }
  for (std::thread& th : threads) th.join();
  handoff.clear();
  EXPECT_EQ(dirty.load(), 0);
  ExpectWithinHighWater("after the threads joined");
}

}  // namespace
}  // namespace sagdfn::tensor
