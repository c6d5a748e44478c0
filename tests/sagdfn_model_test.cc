#include "core/sagdfn.h"

#include <set>

#include <gtest/gtest.h>

#include "autograd/ops.h"
#include "tensor/tensor_ops.h"
#include "utils/rng.h"

namespace sagdfn::core {
namespace {

namespace ag = ::sagdfn::autograd;
using tensor::Shape;
using tensor::Tensor;

SagdfnConfig TinyConfig() {
  SagdfnConfig config;
  config.num_nodes = 10;
  config.embedding_dim = 4;
  config.m = 5;
  config.k = 3;
  config.hidden_dim = 6;
  config.heads = 2;
  config.ffn_hidden = 4;
  config.diffusion_steps = 2;
  config.alpha = 1.5f;
  config.history = 4;
  config.horizon = 3;
  config.convergence_iters = 5;
  return config;
}

struct Inputs {
  Tensor x;
  Tensor future_tod;
};

Inputs MakeInputs(const SagdfnConfig& config, int64_t batch,
                  uint64_t seed = 1) {
  utils::Rng rng(seed);
  Inputs in;
  in.x = Tensor::Normal(
      Shape({batch, config.history, config.num_nodes, config.input_dim}),
      rng, 0.0f, 1.0f);
  in.future_tod =
      Tensor::Uniform(Shape({batch, config.horizon}), rng, 0.0f, 1.0f);
  return in;
}

TEST(SagdfnModelTest, ForwardShape) {
  SagdfnModel model(TinyConfig());
  Inputs in = MakeInputs(model.config(), 2);
  ag::Variable pred = model.Forward(in.x, in.future_tod, 0);
  EXPECT_EQ(pred.shape(), Shape({2, 3, 10}));
  EXPECT_FALSE(tensor::HasNonFinite(pred.value()));
}

TEST(SagdfnModelTest, IndexSetPopulatedAndValid) {
  SagdfnModel model(TinyConfig());
  Inputs in = MakeInputs(model.config(), 1);
  model.Forward(in.x, in.future_tod, 0);
  const auto& index_set = model.index_set();
  EXPECT_EQ(index_set.size(), 5u);
  std::set<int64_t> unique(index_set.begin(), index_set.end());
  EXPECT_EQ(unique.size(), 5u);
}

TEST(SagdfnModelTest, GradientsReachEverything) {
  SagdfnModel model(TinyConfig());
  Inputs in = MakeInputs(model.config(), 2);
  ag::Variable pred = model.Forward(in.x, in.future_tod, 0);
  ag::MeanAll(ag::Abs(pred)).Backward();
  int64_t with_grad = 0;
  for (auto& [name, p] : model.NamedParameters()) {
    if (tensor::SumAll(tensor::Abs(p.grad())).Item() > 0.0f) ++with_grad;
  }
  // Everything except possibly dead-relu corners must receive gradient;
  // in particular the node embeddings must.
  EXPECT_GT(tensor::SumAll(tensor::Abs(model.embeddings().grad())).Item(),
            0.0f);
  EXPECT_GE(with_grad,
            static_cast<int64_t>(model.NamedParameters().size()) - 2);
}

TEST(SagdfnModelTest, SamplingFreezesAfterConvergenceIteration) {
  SagdfnModel model(TinyConfig());
  Inputs in = MakeInputs(model.config(), 1);
  model.SetTraining(true);
  // Past the convergence iteration r = 5 the index set must stop moving.
  model.Forward(in.x, in.future_tod, 10);
  auto frozen1 = model.index_set();
  model.Forward(in.x, in.future_tod, 11);
  auto frozen2 = model.index_set();
  EXPECT_EQ(frozen1, frozen2);
}

TEST(SagdfnModelTest, EvalDoesNotResample) {
  SagdfnModel model(TinyConfig());
  Inputs in = MakeInputs(model.config(), 1);
  model.SetTraining(true);
  model.Forward(in.x, in.future_tod, 0);
  auto training_set = model.index_set();
  model.SetTraining(false);
  model.Forward(in.x, in.future_tod, 1);
  EXPECT_EQ(model.index_set(), training_set);
}

TEST(SagdfnModelTest, DeterministicGivenSeedAndIteration) {
  SagdfnConfig config = TinyConfig();
  SagdfnModel model_a(config);
  SagdfnModel model_b(config);
  Inputs in = MakeInputs(config, 2);
  Tensor pa = model_a.Forward(in.x, in.future_tod, 0).value();
  Tensor pb = model_b.Forward(in.x, in.future_tod, 0).value();
  EXPECT_TRUE(tensor::AllClose(pa, pb));
}

TEST(SagdfnModelTest, AblationVariantsRun) {
  for (int variant = 0; variant < 3; ++variant) {
    SagdfnConfig config = TinyConfig();
    if (variant == 0) config.use_entmax = false;
    if (variant == 1) config.use_attention = false;
    if (variant == 2) config.use_sns = false;
    SagdfnModel model(config);
    Inputs in = MakeInputs(config, 1);
    ag::Variable pred = model.Forward(in.x, in.future_tod, 0);
    EXPECT_EQ(pred.shape(), Shape({1, 3, 10}))
        << "variant " << variant;
    EXPECT_FALSE(tensor::HasNonFinite(pred.value()));
  }
}

TEST(SagdfnModelTest, SlimAdjacencyColumnsAreIndexSet) {
  SagdfnModel model(TinyConfig());
  Inputs in = MakeInputs(model.config(), 1);
  model.Forward(in.x, in.future_tod, 0);
  Tensor slim = model.ComputeSlimAdjacency();
  EXPECT_EQ(slim.shape(), Shape({10, 5}));
  // Column j is node index_set()[j]: M distinct node ids in [0, N).
  std::set<int64_t> columns(model.index_set().begin(),
                            model.index_set().end());
  EXPECT_EQ(columns.size(), 5u);
  EXPECT_GE(*columns.begin(), 0);
  EXPECT_LT(*columns.rbegin(), 10);
}

TEST(SagdfnModelTest, ParameterCountMatchesConfigScaling) {
  SagdfnConfig small = TinyConfig();
  SagdfnConfig big = TinyConfig();
  big.hidden_dim = 12;
  SagdfnModel model_small(small);
  SagdfnModel model_big(big);
  EXPECT_GT(model_big.ParameterCount(), model_small.ParameterCount());
}

TEST(SagdfnModelTest, MIsCappedByN) {
  SagdfnConfig config = TinyConfig();
  config.m = 20;  // > num_nodes
  EXPECT_DEATH(SagdfnModel model(config), "m");
}

TEST(SagdfnModelTest, WrongHistoryDies) {
  SagdfnModel model(TinyConfig());
  utils::Rng rng(2);
  Tensor bad_x = Tensor::Normal(Shape({1, 7, 10, 2}), rng);
  Tensor tod = Tensor::Zeros(Shape({1, 3}));
  EXPECT_DEATH(model.Forward(bad_x, tod, 0), "");
}

}  // namespace
}  // namespace sagdfn::core
