// Determinism and lifecycle tests for the precompiled eval-mode rollout
// plan (core/rollout_plan), serving's default Predict path:
//
//   - replay is memcmp-identical to the eager autograd walk (the fused
//     row segments and MatMulRowsInto must preserve every per-row value
//     chain bit for bit), across batch sizes, layer counts and extra
//     input covariates;
//   - FrozenModel keeps one plan per kind, and that plan replays every
//     live batch up to its capacity;
//   - warm replay never moves the arena high-water mark (zero per-step
//     heap allocation);
//   - concurrent replay from many threads stays byte-deterministic.
#include "core/rollout_plan.h"

#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/sagdfn.h"
#include "serve/frozen_model.h"
#include "tensor/tensor.h"
#include "utils/arena.h"
#include "utils/rng.h"

namespace sagdfn::core {
namespace {

using tensor::Shape;
using tensor::Tensor;

SagdfnConfig TinyConfig() {
  SagdfnConfig config;
  config.num_nodes = 9;
  config.embedding_dim = 4;
  config.m = 5;
  config.k = 3;
  config.hidden_dim = 6;
  config.heads = 2;
  config.ffn_hidden = 4;
  config.diffusion_steps = 2;
  config.history = 5;
  config.horizon = 4;
  config.seed = 33;
  return config;
}

std::shared_ptr<const serve::FrozenModel> MakeFrozen(
    const SagdfnConfig& config) {
  return std::shared_ptr<const serve::FrozenModel>(
      serve::FrozenModel::Freeze(std::make_unique<SagdfnModel>(config)));
}

struct Batch {
  Tensor x;
  Tensor tod;
};

Batch MakeBatch(const SagdfnConfig& config, int64_t batch, uint64_t seed) {
  utils::Rng rng(seed);
  Batch b;
  b.x = Tensor::Normal(
      Shape({batch, config.history, config.num_nodes, config.input_dim}),
      rng);
  b.tod =
      Tensor::Uniform(Shape({batch, config.horizon}), rng, 0.0f, 1.0f);
  return b;
}

bool BytesEqual(const Tensor& a, const Tensor& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// The autograd-walking eval path the plan must reproduce byte for byte.
Tensor Eager(const serve::FrozenModel& model, const Tensor& x,
             const Tensor& tod) {
  return model.model().Predict(x, tod, model.snapshot());
}

void ExpectReplayMatchesEager(const SagdfnConfig& config) {
  auto model = MakeFrozen(config);
  // Batch 8 sizes the plan; batches 1 and 3 then replay below capacity.
  for (int64_t batch : {int64_t{8}, int64_t{1}, int64_t{3}}) {
    const Batch in = MakeBatch(config, batch, 100 + batch);
    const Tensor planned = model->Predict(in.x, in.tod);
    const Tensor eager = Eager(*model, in.x, in.tod);
    EXPECT_TRUE(BytesEqual(planned, eager))
        << "plan replay diverges from eager at batch " << batch;
  }
}

TEST(RolloutPlanTest, ReplayMatchesEagerBytesAcrossBatches) {
  ExpectReplayMatchesEager(TinyConfig());
}

TEST(RolloutPlanTest, ReplayMatchesEagerWithTwoLayers) {
  SagdfnConfig config = TinyConfig();
  config.num_layers = 2;
  config.seed = 34;
  ExpectReplayMatchesEager(config);
}

TEST(RolloutPlanTest, ReplayMatchesEagerWithExtraCovariates) {
  // input_dim > 2: the decoder must carry the extra channels of the last
  // observation forward, exactly like the eager Concat does.
  SagdfnConfig config = TinyConfig();
  config.input_dim = 4;
  config.seed = 35;
  ExpectReplayMatchesEager(config);
}

// The streaming carry contract at the plan level: a kFull replay over the
// first h frames exports the post-encoder state; chaining kIncremental
// replays (one new frame each, state carried through) must be
// BIT-identical to eagerly re-encoding the whole accumulated frame
// sequence — same kernels, same per-row chains, the carried state is a
// byte copy of the hidden slab. The kFull plan is sized for batch 8
// first, so the state the batch-1 ticks carry comes from a capacity-8
// plan and feeds a capacity-1 incremental plan.
void ExpectIncrementalResumeMatchesEager(const SagdfnConfig& config) {
  auto model = MakeFrozen(config);
  const int64_t h = config.history;
  const int64_t extra = 3;
  const Batch in = MakeBatch(config, 1, 77);  // [1, h, N, C]
  utils::Rng rng(78);
  const Tensor stream = Tensor::Normal(
      Shape({1, extra, config.num_nodes, config.input_dim}), rng);

  model->PlanFor(8, PlanKind::kFull);
  auto full = model->PlanFor(1, PlanKind::kFull);
  auto inc = model->PlanFor(1, PlanKind::kIncremental);
  EXPECT_EQ(full->batch(), 8);
  EXPECT_EQ(inc->batch(), 1);
  EXPECT_EQ(inc->encoded_steps(), 1);
  EXPECT_EQ(full->encoded_steps(), h);
  EXPECT_EQ(inc->state_floats(), full->state_floats(1));

  Tensor state{Shape({full->state_floats(1)})};
  const Tensor warm = full->Run(in.x, in.tod, nullptr, &state);
  EXPECT_TRUE(BytesEqual(warm, Eager(*model, in.x, in.tod)))
      << "kFull with state export diverged from eager";

  const int64_t frame_floats = config.num_nodes * config.input_dim;
  for (int64_t k = 0; k < extra; ++k) {
    Tensor frame{Shape({1, 1, config.num_nodes, config.input_dim})};
    std::memcpy(frame.data(), stream.data() + k * frame_floats,
                sizeof(float) * frame_floats);
    // h_in and h_out alias: every state row is read before rewritten.
    const Tensor tick = inc->Run(frame, in.tod, &state, &state);

    // Eager reference: re-encode ALL h + k + 1 frames from zero init.
    Tensor acc{Shape({1, h + k + 1, config.num_nodes, config.input_dim})};
    std::memcpy(acc.data(), in.x.data(), sizeof(float) * h * frame_floats);
    std::memcpy(acc.data() + h * frame_floats, stream.data(),
                sizeof(float) * (k + 1) * frame_floats);
    const Tensor eager = Eager(*model, acc, in.tod);
    EXPECT_TRUE(BytesEqual(tick, eager))
        << "incremental tick " << k << " diverged from accumulated eager";
  }
}

TEST(RolloutPlanTest, IncrementalResumeMatchesEagerAccumulatedBytes) {
  ExpectIncrementalResumeMatchesEager(TinyConfig());
  SagdfnConfig two_layers = TinyConfig();
  two_layers.num_layers = 2;
  two_layers.seed = 36;
  ExpectIncrementalResumeMatchesEager(two_layers);
}

TEST(RolloutPlanTest, IncrementalPlanRequiresStateIn) {
  auto model = MakeFrozen(TinyConfig());
  auto inc = model->PlanFor(1, PlanKind::kIncremental);
  const SagdfnConfig config = TinyConfig();
  Tensor frame{Shape({1, 1, config.num_nodes, config.input_dim})};
  Tensor tod{Shape({1, config.horizon})};
  EXPECT_DEATH(inc->Run(frame, tod, nullptr, nullptr), "");
}

TEST(RolloutPlanTest, PlanCacheKeyedByKind) {
  // One slot per kind: growing the kFull plan leaves the kIncremental
  // plan alone, and a smaller request reuses its kind's plan.
  auto model = MakeFrozen(TinyConfig());
  auto full = model->PlanFor(2, PlanKind::kFull);
  auto inc = model->PlanFor(2, PlanKind::kIncremental);
  EXPECT_NE(full.get(), inc.get());
  EXPECT_EQ(full->kind(), PlanKind::kFull);
  EXPECT_EQ(inc->kind(), PlanKind::kIncremental);
  EXPECT_EQ(model->PlanFor(1, PlanKind::kFull).get(), full.get());
  EXPECT_EQ(model->PlanFor(1, PlanKind::kIncremental).get(), inc.get());
  EXPECT_NE(model->PlanFor(4, PlanKind::kFull).get(), full.get());
  EXPECT_EQ(model->PlanFor(2, PlanKind::kIncremental).get(), inc.get());
}

TEST(RolloutPlanTest, OnePlanCoversEveryBatchUpToItsCapacity) {
  const SagdfnConfig config = TinyConfig();
  auto model = MakeFrozen(config);
  auto p3 = model->PlanFor(3);
  EXPECT_EQ(p3->batch(), 3);
  EXPECT_GT(p3->num_instructions(), 0);
  EXPECT_GT(p3->scratch_bytes(), 0);
  EXPECT_FALSE(p3->DebugString().empty());
  for (int64_t b = 1; b <= 3; ++b) {
    EXPECT_EQ(model->PlanFor(b).get(), p3.get()) << "batch " << b;
  }

  // A larger batch compiles a replacement at that size, which then
  // covers every smaller batch.
  auto p8 = model->PlanFor(8);
  EXPECT_NE(p8.get(), p3.get());
  EXPECT_EQ(p8->batch(), 8);
  EXPECT_EQ(model->PlanFor(3).get(), p8.get());

  // The replaced plan stays replayable through the caller's shared_ptr.
  const Batch in = MakeBatch(config, 2, 99);
  EXPECT_TRUE(BytesEqual(p3->Run(in.x, in.tod), Eager(*model, in.x, in.tod)));
}

TEST(RolloutPlanTest, RunRejectsBatchAboveCapacity) {
  const SagdfnConfig config = TinyConfig();
  auto model = MakeFrozen(config);
  auto plan = model->PlanFor(2);
  const Batch in = MakeBatch(config, 3, 5);
  EXPECT_DEATH(plan->Run(in.x, in.tod), "");
}

TEST(RolloutPlanTest, WarmReplayDoesNotMoveArenaHighWater) {
  const SagdfnConfig config = TinyConfig();
  auto model = MakeFrozen(config);
  const Batch in = MakeBatch(config, 4, 7);
  // Warm: plan construction (dry run) plus one replay on this thread.
  model->Predict(in.x, in.tod);
  const int64_t before = utils::ScratchArena::ProcessHighWater();
  for (int tick = 0; tick < 8; ++tick) model->Predict(in.x, in.tod);
  EXPECT_EQ(before, utils::ScratchArena::ProcessHighWater())
      << "replay allocated past the warmed arena high-water mark";
}

TEST(RolloutPlanTest, ConcurrentReplayIsByteDeterministic) {
  // Eight threads replay live batches 1..8 through one capacity-8 plan at
  // once; each result must match its serial eager bytes.
  const SagdfnConfig config = TinyConfig();
  auto model = MakeFrozen(config);
  constexpr int kThreads = 8;
  std::vector<Batch> inputs;
  std::vector<Tensor> reference;
  for (int i = 0; i < kThreads; ++i) {
    inputs.push_back(MakeBatch(config, i + 1, 13 + i));
    reference.push_back(Eager(*model, inputs[i].x, inputs[i].tod));
  }
  auto plan = model->PlanFor(kThreads);
  std::vector<Tensor> results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      results[i] = model->Predict(inputs[i].x, inputs[i].tod);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(model->PlanFor(1).get(), plan.get());
  for (int i = 0; i < kThreads; ++i) {
    EXPECT_TRUE(BytesEqual(results[i], reference[i]))
        << "live batch " << i + 1;
  }
}

}  // namespace
}  // namespace sagdfn::core
