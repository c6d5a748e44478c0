#include "core/memory_model.h"

#include <gtest/gtest.h>

namespace sagdfn::core {
namespace {

constexpr double kGiB = 1ull << 30;

// Every family, in the paper's table order.
constexpr ModelFamily kAllFamilies[] = {
    ModelFamily::kDcrnn,  ModelFamily::kStgcn,   ModelFamily::kGraphWaveNet,
    ModelFamily::kGman,   ModelFamily::kAgcrn,   ModelFamily::kMtgnn,
    ModelFamily::kAstgcn, ModelFamily::kStsgcn,  ModelFamily::kGts,
    ModelFamily::kStep,   ModelFamily::kD2stgnn, ModelFamily::kSagdfn};

MemoryParams PaperParams(int64_t n) {
  MemoryParams p;
  p.num_nodes = n;
  p.batch = 32;
  p.window = 24;
  p.hidden = 64;
  p.embedding = 100;
  p.m = 100;
  p.heads = 8;
  return p;
}

TEST(MemoryModelTest, FamilyNamesUnique) {
  std::set<std::string> names;
  for (auto f : kAllFamilies) names.insert(FamilyName(f));
  EXPECT_EQ(names.size(), 12u);
}

TEST(MemoryModelTest, SagdfnScalesLinearlyInN) {
  MemoryEstimate small =
      EstimateTrainingMemory(ModelFamily::kSagdfn, PaperParams(1000));
  MemoryEstimate large =
      EstimateTrainingMemory(ModelFamily::kSagdfn, PaperParams(2000));
  // Doubling N should roughly double (not quadruple) the graph bytes.
  EXPECT_NEAR(large.graph_bytes / small.graph_bytes, 2.0, 0.2);
}

TEST(MemoryModelTest, DenseFamiliesScaleQuadratically) {
  for (auto family : {ModelFamily::kAgcrn, ModelFamily::kGts,
                      ModelFamily::kGman, ModelFamily::kStsgcn}) {
    MemoryEstimate small =
        EstimateTrainingMemory(family, PaperParams(1000));
    MemoryEstimate large =
        EstimateTrainingMemory(family, PaperParams(2000));
    EXPECT_NEAR(large.graph_bytes / small.graph_bytes, 4.0, 0.3)
        << FamilyName(family);
  }
}

TEST(MemoryModelTest, PaperOomPatternAtN2000) {
  // Paper Tables V-VII: on ~2000 nodes with a 32 GB budget, the dense
  // families OOM while DCRNN, GraphWaveNet, MTGNN and SAGDFN run.
  const MemoryParams p = PaperParams(2000);
  auto oom = [&](ModelFamily f) {
    return WouldOom(EstimateTrainingMemory(f, p), 32.0 * kGiB);
  };
  EXPECT_TRUE(oom(ModelFamily::kStgcn));
  EXPECT_TRUE(oom(ModelFamily::kGman));
  EXPECT_TRUE(oom(ModelFamily::kAgcrn));
  EXPECT_TRUE(oom(ModelFamily::kAstgcn));
  EXPECT_TRUE(oom(ModelFamily::kStsgcn));
  EXPECT_TRUE(oom(ModelFamily::kGts));
  EXPECT_TRUE(oom(ModelFamily::kStep));
  EXPECT_TRUE(oom(ModelFamily::kD2stgnn));

  EXPECT_FALSE(oom(ModelFamily::kDcrnn));
  EXPECT_FALSE(oom(ModelFamily::kGraphWaveNet));
  EXPECT_FALSE(oom(ModelFamily::kMtgnn));
  EXPECT_FALSE(oom(ModelFamily::kSagdfn));
}

TEST(MemoryModelTest, EveryoneFitsOnMetrLa) {
  // At N = 207 (METR-LA) nothing OOMs on 32 GB (paper Table III has
  // numbers for every model).
  const MemoryParams p = PaperParams(207);
  for (auto family : kAllFamilies) {
    EXPECT_FALSE(WouldOom(EstimateTrainingMemory(family, p), 32.0 * kGiB))
        << FamilyName(family);
  }
}

TEST(MemoryModelTest, GtsOomThresholdNearPaperReport) {
  // Paper Table IV: GTS handles 1000 nodes (batch 64) but not more.
  MemoryParams p = PaperParams(1000);
  p.batch = 64;
  EXPECT_FALSE(
      WouldOom(EstimateTrainingMemory(ModelFamily::kGts, p), 32.0 * kGiB));
  p.num_nodes = 2000;
  EXPECT_TRUE(
      WouldOom(EstimateTrainingMemory(ModelFamily::kGts, p), 32.0 * kGiB));
}

TEST(MemoryModelTest, D2stgnnCapsNearPaperReport) {
  // Paper Table IV: D2STGNN processes only ~200 nodes at batch 64.
  MemoryParams p = PaperParams(200);
  p.batch = 64;
  EXPECT_FALSE(WouldOom(EstimateTrainingMemory(ModelFamily::kD2stgnn, p),
                        32.0 * kGiB));
  p.num_nodes = 600;
  EXPECT_TRUE(WouldOom(EstimateTrainingMemory(ModelFamily::kD2stgnn, p),
                       32.0 * kGiB));
}

TEST(MemoryModelTest, SagdfnUsesLessGraphMemoryThanDense) {
  const MemoryParams p = PaperParams(2000);
  const double sagdfn =
      EstimateTrainingMemory(ModelFamily::kSagdfn, p).graph_bytes;
  for (auto family : {ModelFamily::kAgcrn, ModelFamily::kGts,
                      ModelFamily::kGman, ModelFamily::kStep}) {
    const double dense =
        EstimateTrainingMemory(family, p).graph_bytes;
    EXPECT_LT(sagdfn, dense / 4.0) << FamilyName(family);
  }
}

TEST(MemoryModelTest, FormulasMatchPaperTable1) {
  EXPECT_EQ(FormulaFor(ModelFamily::kAgcrn).computation,
            "O(N^2 d + N^2 D)");
  EXPECT_EQ(FormulaFor(ModelFamily::kAgcrn).memory, "O(N^2 + N d)");
  EXPECT_EQ(FormulaFor(ModelFamily::kGts).computation,
            "O(N^2 d^2 + N^2 D)");
  EXPECT_EQ(FormulaFor(ModelFamily::kStep).memory, "O(N^2 + N^2 d)");
  EXPECT_EQ(FormulaFor(ModelFamily::kSagdfn).computation,
            "O(N M d^2 + N M D)");
  EXPECT_EQ(FormulaFor(ModelFamily::kSagdfn).memory, "O(N M + N M d)");
}

// Property: every family's estimate is monotone in N.
class MemoryMonotoneProperty
    : public ::testing::TestWithParam<ModelFamily> {};

TEST_P(MemoryMonotoneProperty, MonotoneInN) {
  double prev = 0.0;
  for (int64_t n : {100, 500, 1000, 2000, 4000}) {
    const double total =
        EstimateTrainingMemory(GetParam(), PaperParams(n)).total_bytes();
    EXPECT_GT(total, prev) << FamilyName(GetParam()) << " at N=" << n;
    prev = total;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, MemoryMonotoneProperty,
    ::testing::ValuesIn(kAllFamilies),
    [](const ::testing::TestParamInfo<ModelFamily>& info) {
      std::string name = FamilyName(info.param);
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace sagdfn::core
