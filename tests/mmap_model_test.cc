// Round-trip coverage for the one ("SAGM") weight-file format read through
// its mapping, and for the FrozenModel mmap load path. The contract under
// test: loaded tensors alias the mapping bit for bit, and a model
// restored via LoadMapped produces forecasts memcmp-identical to the same
// model restored via the heap checkpoint path; corrupt or truncated files
// are rejected cleanly before anything is aliased. The full corrupt-file
// matrix, over module files too, is in serialization_test.
#include "nn/serialization.h"

#include <cstdint>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/sagdfn.h"
#include "serve/frozen_model.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"
#include "test_support.h"
#include "utils/rng.h"
#include "utils/status.h"

namespace sagdfn::nn {
namespace {

using tensor::Shape;
using tensor::Tensor;

using test_support::TempPath;

bool SameBytes(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

core::SagdfnConfig TinyConfig() {
  core::SagdfnConfig config;
  config.num_nodes = 12;
  config.embedding_dim = 4;
  config.m = 6;
  config.k = 3;
  config.hidden_dim = 6;
  config.heads = 2;
  config.ffn_hidden = 4;
  config.diffusion_steps = 2;
  config.alpha = 1.5f;
  config.history = 4;
  config.horizon = 3;
  config.seed = 31;
  return config;
}

Checkpoint SampleCheckpoint() {
  utils::Rng rng(5);
  Checkpoint ckpt;
  ckpt.tensors.emplace_back("w", Tensor::Normal(Shape({7, 3}), rng));
  ckpt.tensors.emplace_back("b", Tensor::Uniform(Shape({3}), rng));
  ckpt.tensors.emplace_back("deep.scale", Tensor::Normal(Shape({1}), rng));
  ckpt.meta.emplace_back("steps", std::vector<uint64_t>{1, 2, 3});
  ckpt.meta.emplace_back("empty", std::vector<uint64_t>{});
  return ckpt;
}

TEST(CheckpointMappingTest, RoundTripIsExact) {
  const std::string path = TempPath("mapped_roundtrip.sagm");
  Checkpoint ckpt = SampleCheckpoint();
  ASSERT_TRUE(SaveCheckpoint(ckpt, path).ok());

  Checkpoint mapped;
  ASSERT_TRUE(LoadCheckpoint(&mapped, path).ok());
  ASSERT_NE(mapped.file, nullptr);
  ASSERT_EQ(mapped.tensors.size(), ckpt.tensors.size());
  for (size_t i = 0; i < ckpt.tensors.size(); ++i) {
    EXPECT_EQ(mapped.tensors[i].first, ckpt.tensors[i].first);
    EXPECT_TRUE(SameBytes(mapped.tensors[i].second, ckpt.tensors[i].second));
    // Loaded tensors alias the mapping, 64-byte aligned for the SIMD
    // kernels.
    const auto* data =
        reinterpret_cast<const uint8_t*>(mapped.tensors[i].second.data());
    EXPECT_GE(data, mapped.file->data());
    EXPECT_LT(data, mapped.file->data() + mapped.file->size());
    EXPECT_EQ(reinterpret_cast<uintptr_t>(data) % 64, 0u);
  }
  ASSERT_EQ(mapped.meta.size(), ckpt.meta.size());
  for (size_t i = 0; i < ckpt.meta.size(); ++i) {
    EXPECT_EQ(mapped.meta[i].first, ckpt.meta[i].first);
    EXPECT_EQ(mapped.meta[i].second, ckpt.meta[i].second);
  }
}

TEST(CheckpointMappingTest, ViewsOutliveTheCheckpointStruct) {
  const std::string path = TempPath("mapped_lifetime.sagm");
  ASSERT_TRUE(SaveCheckpoint(SampleCheckpoint(), path).ok());
  Tensor view;
  {
    Checkpoint mapped;
    ASSERT_TRUE(LoadCheckpoint(&mapped, path).ok());
    view = mapped.tensors[0].second;  // shares the mapping's lifetime
  }
  // The mapping is kept alive by the view's owner; reading must be safe.
  EXPECT_TRUE(SameBytes(view, SampleCheckpoint().tensors[0].second));
}

TEST(MappedCheckpointTest, RejectsCorruptFiles) {
  const std::string path = TempPath("mapped_corrupt.sagm");
  ASSERT_TRUE(SaveCheckpoint(SampleCheckpoint(), path).ok());
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  ASSERT_GT(bytes.size(), 80u);

  auto write_variant = [&](const std::string& name, std::string mutated) {
    const std::string p = TempPath(name);
    std::ofstream out(p, std::ios::binary | std::ios::trunc);
    out.write(mutated.data(), static_cast<std::streamsize>(mutated.size()));
    out.close();
    return p;
  };

  Checkpoint mapped;
  // Bad magic.
  std::string bad_magic = bytes;
  bad_magic[0] ^= 0xFF;
  EXPECT_FALSE(
      LoadCheckpoint(&mapped, write_variant("bad_magic", bad_magic)).ok());
  // Future version.
  std::string bad_version = bytes;
  bad_version[4] = 99;
  EXPECT_FALSE(
      LoadCheckpoint(&mapped, write_variant("bad_version", bad_version))
          .ok());
  // Truncated payload.
  EXPECT_FALSE(LoadCheckpoint(
                   &mapped, write_variant("truncated",
                                          bytes.substr(0, bytes.size() - 8)))
                   .ok());
  // Trailing garbage (declared size disagrees with actual size).
  EXPECT_FALSE(
      LoadCheckpoint(&mapped, write_variant("padded", bytes + "xxxx")).ok());
  // Empty file.
  EXPECT_FALSE(LoadCheckpoint(&mapped, write_variant("empty", "")).ok());
  // The pristine file still maps after all that.
  EXPECT_TRUE(LoadCheckpoint(&mapped, path).ok());
  EXPECT_NE(mapped.file, nullptr);
}

TEST(FrozenModelMappedTest, LoadMappedMatchesHeapLoadExactly) {
  const core::SagdfnConfig config = TinyConfig();
  const std::string mapped_path = TempPath("frozen_tiny.sagm");
  const std::string heap_path = TempPath("frozen_tiny.ckpt");

  // Build + freeze a model, persist it both ways.
  auto source = serve::FrozenModel::Freeze(
      std::make_unique<core::SagdfnModel>(config));
  ASSERT_TRUE(source->Save(mapped_path).ok());
  ASSERT_TRUE(SaveModule(source->model(), heap_path).ok());

  std::unique_ptr<serve::FrozenModel> heap;
  ASSERT_TRUE(
      serve::FrozenModel::Load(config, heap_path, &heap).ok());
  std::unique_ptr<serve::FrozenModel> mapped;
  ASSERT_TRUE(
      serve::FrozenModel::LoadMapped(config, mapped_path, &mapped).ok());

  // Identical snapshots...
  EXPECT_TRUE(SameBytes(mapped->snapshot().a_s, heap->snapshot().a_s));
  EXPECT_TRUE(
      SameBytes(mapped->snapshot().inv_deg, heap->snapshot().inv_deg));
  EXPECT_EQ(mapped->snapshot().index_set, heap->snapshot().index_set);

  // ...and memcmp-identical forecasts, via the plan replay AND the eager
  // path, for a couple of batch sizes.
  utils::Rng rng(17);
  for (int64_t batch : {1, 3}) {
    Tensor x = Tensor::Normal(
        Shape({batch, config.history, config.num_nodes, config.input_dim}),
        rng);
    Tensor tod = Tensor::Uniform(Shape({batch, config.horizon}), rng);
    EXPECT_TRUE(SameBytes(mapped->Predict(x, tod), heap->Predict(x, tod)));
    EXPECT_TRUE(
        SameBytes(mapped->model().Predict(x, tod, mapped->snapshot()),
                  heap->model().Predict(x, tod, heap->snapshot())));
  }
}

TEST(FrozenModelMappedTest, RejectsConfigMismatch) {
  const core::SagdfnConfig config = TinyConfig();
  const std::string path = TempPath("frozen_mismatch.sagm");
  auto source = serve::FrozenModel::Freeze(
      std::make_unique<core::SagdfnModel>(config));
  ASSERT_TRUE(source->Save(path).ok());

  core::SagdfnConfig other = config;
  other.hidden_dim += 2;
  std::unique_ptr<serve::FrozenModel> loaded;
  EXPECT_FALSE(serve::FrozenModel::LoadMapped(other, path, &loaded).ok());
  EXPECT_EQ(loaded, nullptr);
}

TEST(FrozenModelMappedTest, SaveIsDeterministic) {
  const core::SagdfnConfig config = TinyConfig();
  const std::string p1 = TempPath("frozen_det_1.sagm");
  const std::string p2 = TempPath("frozen_det_2.sagm");
  auto source = serve::FrozenModel::Freeze(
      std::make_unique<core::SagdfnModel>(config));
  ASSERT_TRUE(source->Save(p1).ok());
  ASSERT_TRUE(source->Save(p2).ok());
  std::ifstream f1(p1, std::ios::binary), f2(p2, std::ios::binary);
  std::string b1((std::istreambuf_iterator<char>(f1)),
                 std::istreambuf_iterator<char>());
  std::string b2((std::istreambuf_iterator<char>(f2)),
                 std::istreambuf_iterator<char>());
  EXPECT_EQ(b1, b2);
  EXPECT_GT(b1.size(), 64u);
}

}  // namespace
}  // namespace sagdfn::nn
