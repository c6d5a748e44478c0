// Tests for the training-protocol machinery added on top of the paper's
// Algorithm 2: scheduled sampling (teacher forcing), the convergence
// scheduling hook, best-checkpoint restore, and checkpointing of the
// significant-node index set.
#include <gtest/gtest.h>

#include "baselines/rnn_seq2seq.h"
#include "core/sagdfn.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "nn/serialization.h"
#include "tensor/tensor_ops.h"

namespace sagdfn {
namespace {

namespace ag = ::sagdfn::autograd;
using tensor::Shape;
using tensor::Tensor;

core::SagdfnConfig TinyConfig(int64_t n = 10) {
  core::SagdfnConfig config;
  config.num_nodes = n;
  config.embedding_dim = 4;
  config.m = 5;
  config.k = 3;
  config.hidden_dim = 6;
  config.heads = 2;
  config.ffn_hidden = 4;
  config.diffusion_steps = 2;
  config.history = 4;
  config.horizon = 3;
  config.convergence_iters = 5;
  return config;
}

struct Inputs {
  Tensor x;
  Tensor tod;
  Tensor teacher;
};

Inputs MakeInputs(const core::SagdfnConfig& config, int64_t batch) {
  utils::Rng rng(1);
  Inputs in;
  in.x = Tensor::Normal(
      Shape({batch, config.history, config.num_nodes, config.input_dim}),
      rng);
  in.tod = Tensor::Uniform(Shape({batch, config.horizon}), rng);
  in.teacher = Tensor::Normal(
      Shape({batch, config.horizon, config.num_nodes}), rng);
  return in;
}

TEST(TeacherForcingTest, ProbZeroMatchesNoTeacher) {
  core::SagdfnConfig config = TinyConfig();
  core::SagdfnModel model(config);
  Inputs in = MakeInputs(config, 2);
  // Drive past the convergence iteration so the index set freezes and
  // consecutive forwards are comparable.
  for (int64_t iter = 0; iter <= config.convergence_iters; ++iter) {
    model.Forward(in.x, in.tod, iter);
  }
  Tensor without = model.Forward(in.x, in.tod, 10).value();
  Tensor with_p0 =
      model.Forward(in.x, in.tod, 11, &in.teacher, 0.0).value();
  EXPECT_TRUE(tensor::AllClose(without, with_p0));
}

TEST(TeacherForcingTest, ProbOneChangesDecoderTrajectory) {
  core::SagdfnConfig config = TinyConfig();
  core::SagdfnModel model(config);
  model.SetTraining(true);
  Inputs in = MakeInputs(config, 2);
  for (int64_t iter = 0; iter <= config.convergence_iters; ++iter) {
    model.Forward(in.x, in.tod, iter);
  }
  Tensor free_running = model.Forward(in.x, in.tod, 10).value();
  Tensor forced =
      model.Forward(in.x, in.tod, 11, &in.teacher, 1.0).value();
  // Feeding truth into the decoder must change later-step predictions.
  Tensor free_h2 = tensor::Slice(free_running, 1, 1, 3);
  Tensor forced_h2 = tensor::Slice(forced, 1, 1, 3);
  EXPECT_FALSE(tensor::AllClose(free_h2, forced_h2));
  // But the first step is produced before any teacher value is consumed.
  EXPECT_TRUE(tensor::AllClose(tensor::Slice(free_running, 1, 0, 1),
                               tensor::Slice(forced, 1, 0, 1), 1e-4f,
                               1e-3f));
}

TEST(TeacherForcingTest, EvalModeIgnoresTeacher) {
  core::SagdfnConfig config = TinyConfig();
  core::SagdfnModel model(config);
  Inputs in = MakeInputs(config, 1);
  model.Forward(in.x, in.tod, 0);  // fix the index set while training
  model.SetTraining(false);
  Tensor a = model.Forward(in.x, in.tod, 10).value();
  Tensor b = model.Forward(in.x, in.tod, 11, &in.teacher, 1.0).value();
  EXPECT_TRUE(tensor::AllClose(a, b));
}

TEST(TeacherForcingTest, RnnSeq2SeqSupportsIt) {
  baselines::RnnSeq2Seq model(baselines::RnnSeq2Seq::CellType::kLstm, 2, 6,
                              4, 3, 3);
  utils::Rng rng(2);
  Tensor x = Tensor::Normal(Shape({2, 4, 5, 2}), rng);
  Tensor tod = Tensor::Zeros(Shape({2, 3}));
  Tensor teacher = Tensor::Normal(Shape({2, 3, 5}), rng);
  model.SetTraining(true);
  Tensor free_running = model.Forward(x, tod, 0).value();
  Tensor forced = model.Forward(x, tod, 1, &teacher, 1.0).value();
  EXPECT_FALSE(tensor::AllClose(tensor::Slice(free_running, 1, 1, 3),
                                tensor::Slice(forced, 1, 1, 3)));
}

TEST(TrainingPlanTest, ConvergenceIterationCapped) {
  core::SagdfnConfig config = TinyConfig();
  config.convergence_iters = 1 << 20;
  core::SagdfnModel model(config);
  model.OnTrainingPlan(100);
  EXPECT_EQ(model.config().convergence_iters, 60);  // 60% of the plan
}

TEST(TrainingPlanTest, SmallerExplicitValueKept) {
  core::SagdfnConfig config = TinyConfig();
  config.convergence_iters = 7;
  core::SagdfnModel model(config);
  model.OnTrainingPlan(1000);
  EXPECT_EQ(model.config().convergence_iters, 7);
}

TEST(IndexStateTest, SurvivesCheckpointRoundTrip) {
  core::SagdfnConfig config = TinyConfig();
  core::SagdfnModel original(config);
  Inputs in = MakeInputs(config, 1);
  // Drive past convergence so the index set freezes.
  original.SetTraining(true);
  for (int64_t iter = 0; iter < 8; ++iter) {
    original.Forward(in.x, in.tod, iter);
  }
  auto frozen_set = original.index_set();

  const std::string path = ::testing::TempDir() + "/index_state.ckpt";
  ASSERT_TRUE(nn::SaveModule(original, path).ok());

  core::SagdfnConfig other = config;
  other.seed = 999;
  core::SagdfnModel restored(other);
  ASSERT_TRUE(nn::LoadModule(&restored, path).ok());
  EXPECT_EQ(restored.index_set(), frozen_set);

  // Predictions agree exactly.
  restored.SetTraining(false);
  original.SetTraining(false);
  Tensor a = original.Forward(in.x, in.tod, 100).value();
  Tensor b = restored.Forward(in.x, in.tod, 100).value();
  EXPECT_TRUE(tensor::AllClose(a, b));
  std::remove(path.c_str());
}

TEST(IndexStateTest, UnsampledStateRestoresAsEmpty) {
  core::SagdfnConfig config = TinyConfig();
  core::SagdfnModel fresh(config);  // never ran Forward
  const std::string path = ::testing::TempDir() + "/fresh.ckpt";
  ASSERT_TRUE(nn::SaveModule(fresh, path).ok());
  core::SagdfnModel restored(config);
  ASSERT_TRUE(nn::LoadModule(&restored, path).ok());
  EXPECT_TRUE(restored.index_set().empty());
  std::remove(path.c_str());
}

TEST(BestCheckpointTest, RestoreRecoversBestValidationWeights) {
  // Train with a huge LR in later epochs destroyed by construction:
  // use lr so large training diverges after improving, and verify the
  // restored model matches the best recorded validation MAE rather than
  // the (worse) final state.
  data::TrafficOptions options;
  options.num_nodes = 8;
  options.num_days = 4;
  options.steps_per_day = 48;
  options.seed = 4;
  data::ForecastDataset dataset(data::GenerateTraffic(options),
                                data::WindowSpec{4, 3});
  core::SagdfnConfig config = TinyConfig(8);
  core::SagdfnModel model(config);
  core::TrainOptions train;
  train.epochs = 6;
  train.batch_size = 8;
  train.learning_rate = 0.3;  // deliberately unstable
  train.grad_clip = 100.0;
  train.max_train_batches_per_epoch = 6;
  train.max_eval_batches = 4;
  core::Trainer trainer(&model, &dataset, train);
  core::TrainResult result = trainer.Train();

  tensor::Tensor pred = trainer.Predict(data::Split::kValidation);
  tensor::Tensor truth = trainer.Truth(data::Split::kValidation);
  const double restored_mae = metrics::Evaluate(pred, truth).mae;
  // The post-restore validation MAE equals the best seen during training
  // (up to resampling noise none of which applies here).
  EXPECT_NEAR(restored_mae, result.best_val_mae,
              1e-6 + 0.05 * result.best_val_mae);
}

TEST(ColdStartInferenceTest, DeterministicIndexSet) {
  // A never-trained model evaluated twice must pick the same index set
  // (exploration-free draw) so inference is reproducible.
  core::SagdfnConfig config = TinyConfig();
  core::SagdfnModel model(config);
  model.SetTraining(false);
  Inputs in = MakeInputs(config, 1);
  Tensor a = model.Forward(in.x, in.tod, 0).value();
  auto set_a = model.index_set();
  Tensor b = model.Forward(in.x, in.tod, 1).value();
  EXPECT_EQ(model.index_set(), set_a);
  EXPECT_TRUE(tensor::AllClose(a, b));
}

}  // namespace
}  // namespace sagdfn
