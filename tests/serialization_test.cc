#include <fstream>
#include "nn/serialization.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/sagdfn.h"
#include "nn/mlp.h"
#include "serve/engine.h"
#include "serve/frozen_model.h"
#include "serve/registry.h"
#include "tensor/tensor_ops.h"
#include "test_support.h"
#include "utils/fault.h"
#include "utils/rng.h"

namespace sagdfn::nn {
namespace {

namespace ag = ::sagdfn::autograd;
using tensor::Shape;
using tensor::Tensor;

using test_support::TempPath;

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::vector<Tensor> SnapshotParams(Module& module) {
  std::vector<Tensor> snapshot;
  for (auto& [name, param] : module.NamedParameters()) {
    snapshot.push_back(param.value().Clone());
  }
  return snapshot;
}

bool ParamsMemEqual(Module& module, const std::vector<Tensor>& snapshot) {
  auto params = module.NamedParameters();
  if (params.size() != snapshot.size()) return false;
  for (size_t i = 0; i < params.size(); ++i) {
    const Tensor& value = params[i].second.value();
    if (value.size() != snapshot[i].size() ||
        std::memcmp(value.data(), snapshot[i].data(),
                    value.size() * sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

TEST(SerializationTest, MlpRoundTrip) {
  utils::Rng rng(1);
  Mlp original({3, 5, 2}, Activation::kRelu, rng);
  const std::string path = TempPath("mlp.ckpt");
  ASSERT_TRUE(SaveModule(original, path).ok());

  utils::Rng rng2(99);  // different init
  Mlp restored({3, 5, 2}, Activation::kRelu, rng2);
  ASSERT_TRUE(LoadModule(&restored, path).ok());

  // Identical outputs after loading.
  Tensor x = Tensor::Uniform(Shape({4, 3}), rng);
  Tensor y1 = original.Forward(ag::Variable(x)).value();
  Tensor y2 = restored.Forward(ag::Variable(x)).value();
  EXPECT_TRUE(tensor::AllClose(y1, y2));
  std::remove(path.c_str());
}

TEST(SerializationTest, SagdfnModelRoundTrip) {
  core::SagdfnConfig config;
  config.num_nodes = 8;
  config.embedding_dim = 4;
  config.m = 4;
  config.k = 3;
  config.hidden_dim = 6;
  config.heads = 2;
  config.ffn_hidden = 4;
  config.history = 4;
  config.horizon = 2;
  core::SagdfnModel original(config);
  const std::string path = TempPath("sagdfn.ckpt");
  ASSERT_TRUE(SaveModule(original, path).ok());

  config.seed = 1234;  // different init seed
  core::SagdfnModel restored(config);
  ASSERT_TRUE(LoadModule(&restored, path).ok());
  EXPECT_TRUE(tensor::AllClose(restored.embeddings().value(),
                               original.embeddings().value()));
  std::remove(path.c_str());
}

TEST(SerializationTest, ShapeMismatchRejected) {
  utils::Rng rng(2);
  Mlp small({3, 4, 2}, Activation::kRelu, rng);
  const std::string path = TempPath("mismatch.ckpt");
  ASSERT_TRUE(SaveModule(small, path).ok());
  Mlp bigger({3, 8, 2}, Activation::kRelu, rng);
  utils::Status status = LoadModule(&bigger, path);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), utils::StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(SerializationTest, MissingFileRejected) {
  utils::Rng rng(3);
  Mlp mlp({2, 2}, Activation::kRelu, rng);
  utils::Status status = LoadModule(&mlp, "/nonexistent/model.ckpt");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), utils::StatusCode::kNotFound);
}

using CorruptVariants = std::vector<std::pair<std::string, std::string>>;

/// The corrupt-file matrix of the one reader. `make_variants` turns the
/// pristine bytes of a file into named corrupt variants; it runs over a
/// module file and over a checkpoint whose file ends in meta payloads.
/// Every variant is rejected with InvalidArgument, a failed LoadModule
/// leaves its target untouched, and the pristine bytes still load.
void ExpectCorruptVariantsRejected(
    const std::string& tag, uint64_t seed,
    const std::function<CorruptVariants(const std::string&)>& make_variants) {
  utils::Rng rng(seed);
  Mlp mlp({3, 5, 2}, Activation::kRelu, rng);
  const std::string module_path = TempPath(tag + "_module.ckpt");
  ASSERT_TRUE(SaveModule(mlp, module_path).ok());
  Checkpoint with_meta;
  with_meta.tensors.emplace_back("w", Tensor::Normal(Shape({7, 3}), rng));
  with_meta.meta.emplace_back("steps", std::vector<uint64_t>{1, 2, 3});
  with_meta.meta.emplace_back("empty", std::vector<uint64_t>{});
  const std::string meta_path = TempPath(tag + "_meta.ckpt");
  ASSERT_TRUE(SaveCheckpoint(with_meta, meta_path).ok());

  const std::string path = TempPath(tag + ".ckpt");
  for (const std::string& source : {module_path, meta_path}) {
    const std::string pristine = ReadFileBytes(source);
    ASSERT_GT(pristine.size(), 80u);
    for (const auto& [what, bytes] : make_variants(pristine)) {
      WriteFileBytes(path, bytes);
      Checkpoint ckpt;
      utils::Status status = LoadCheckpoint(&ckpt, path);
      EXPECT_EQ(status.code(), utils::StatusCode::kInvalidArgument)
          << what << " of " << source << ": " << status.ToString();
      Mlp target({3, 5, 2}, Activation::kRelu, rng);
      const std::vector<Tensor> before = SnapshotParams(target);
      EXPECT_FALSE(LoadModule(&target, path).ok()) << what;
      EXPECT_TRUE(ParamsMemEqual(target, before)) << what;
    }
    WriteFileBytes(path, pristine);
    Checkpoint ckpt;
    EXPECT_TRUE(LoadCheckpoint(&ckpt, path).ok()) << source;
  }
  std::remove(path.c_str());
  std::remove(module_path.c_str());
  std::remove(meta_path.c_str());
}

TEST(SerializationTest, CorruptFileRejected) {
  ExpectCorruptVariantsRejected(
      "corrupt", 4, [](const std::string& pristine) {
        std::string future_version = pristine;
        future_version[4] = 99;
        return CorruptVariants{
            {"empty file", ""},
            {"not a checkpoint", "not a checkpoint"},
            {"future version", future_version},
        };
      });
}

TEST(SerializationTest, TruncatedFileRejected) {
  // Every truncation point must be detected.
  ExpectCorruptVariantsRejected(
      "truncated", 7, [](const std::string& pristine) {
        return CorruptVariants{
            {"truncated by 1 byte", pristine.substr(0, pristine.size() - 1)},
            {"truncated by 8 bytes", pristine.substr(0, pristine.size() - 8)},
            {"truncated to half", pristine.substr(0, pristine.size() / 2)},
            {"truncated to 10 bytes", pristine.substr(0, 10)},
        };
      });
}

TEST(SerializationTest, TrailingBytesRejected) {
  ExpectCorruptVariantsRejected(
      "padded", 8, [](const std::string& pristine) {
        return CorruptVariants{
            {"one trailing byte", pristine + std::string(1, '\0')},
            {"trailing garbage", pristine + "xxxx"},
        };
      });
}

TEST(SerializationTest, BadMagicRejected) {
  ExpectCorruptVariantsRejected(
      "badmagic", 9, [](const std::string& pristine) {
        std::string bad_magic = pristine;
        bad_magic[0] = static_cast<char>(bad_magic[0] ^ 0xFF);
        return CorruptVariants{{"bad magic", bad_magic}};
      });
}

TEST(SerializationTest, ShiftedPayloadOffsetRejected) {
  // An offset moved by one alignment step still points at aligned,
  // in-bounds bytes (another entry's payload, or the index). The reader
  // must reject it instead of aliasing one tensor onto another region.
  utils::Rng rng(13);
  Mlp mlp({3, 5, 2}, Activation::kRelu, rng);
  const std::string path = TempPath("shifted_offset.ckpt");
  ASSERT_TRUE(SaveModule(mlp, path).ok());
  const std::string pristine = ReadFileBytes(path);

  // Walk the index: per tensor {u64 name length, name, u64 rank, rank u64
  // dims, u64 payload offset}, starting after the 64-byte header.
  uint64_t tensor_count = 0;
  std::memcpy(&tensor_count, pristine.data() + 8, sizeof(tensor_count));
  ASSERT_GT(tensor_count, 1u);
  std::vector<size_t> offset_fields;
  size_t pos = 64;
  for (uint64_t i = 0; i < tensor_count; ++i) {
    uint64_t name_len = 0;
    std::memcpy(&name_len, pristine.data() + pos, sizeof(name_len));
    pos += 8 + name_len;
    uint64_t rank = 0;
    std::memcpy(&rank, pristine.data() + pos, sizeof(rank));
    pos += 8 + 8 * rank;
    offset_fields.push_back(pos);
    pos += 8;
  }

  for (size_t field : offset_fields) {
    for (int64_t shift : {64, -64}) {
      std::string bytes = pristine;
      uint64_t offset = 0;
      std::memcpy(&offset, bytes.data() + field, sizeof(offset));
      offset += static_cast<uint64_t>(shift);
      std::memcpy(&bytes[field], &offset, sizeof(offset));
      WriteFileBytes(path, bytes);

      Mlp target({3, 5, 2}, Activation::kRelu, rng);
      const std::vector<Tensor> before = SnapshotParams(target);
      utils::Status status = LoadModule(&target, path);
      EXPECT_EQ(status.code(), utils::StatusCode::kInvalidArgument)
          << "offset field at " << field << " shifted by " << shift;
      EXPECT_TRUE(ParamsMemEqual(target, before));
    }
  }
  std::remove(path.c_str());
}

TEST(SerializationTest, ParameterCountMismatchRejected) {
  utils::Rng rng(5);
  Mlp two_layers({2, 3, 2}, Activation::kRelu, rng);
  const std::string path = TempPath("count.ckpt");
  ASSERT_TRUE(SaveModule(two_layers, path).ok());
  Mlp one_layer({2, 2}, Activation::kRelu, rng);
  EXPECT_FALSE(LoadModule(&one_layer, path).ok());
  std::remove(path.c_str());
}

TEST(SerializationTest, CheckpointMetaRoundTrip) {
  utils::Rng rng(6);
  Checkpoint original;
  original.tensors.emplace_back("weights",
                                Tensor::Uniform(Shape({3, 4}), rng));
  original.meta.emplace_back("iteration", std::vector<uint64_t>{42});
  original.meta.emplace_back("rng", rng.SerializeState());
  const std::string path = TempPath("meta.ckpt");
  ASSERT_TRUE(SaveCheckpoint(original, path).ok());

  Checkpoint loaded;
  ASSERT_TRUE(LoadCheckpoint(&loaded, path).ok());
  const Tensor* w = loaded.FindTensor("weights");
  ASSERT_NE(w, nullptr);
  ASSERT_EQ(w->shape(), original.tensors[0].second.shape());
  EXPECT_EQ(std::memcmp(w->data(), original.tensors[0].second.data(),
                        w->size() * sizeof(float)),
            0);
  const std::vector<uint64_t>* iter = loaded.FindMeta("iteration");
  ASSERT_NE(iter, nullptr);
  EXPECT_EQ(*iter, std::vector<uint64_t>{42});
  const std::vector<uint64_t>* rng_words = loaded.FindMeta("rng");
  ASSERT_NE(rng_words, nullptr);
  EXPECT_EQ(*rng_words, original.meta[1].second);
  EXPECT_EQ(loaded.FindTensor("missing"), nullptr);
  EXPECT_EQ(loaded.FindMeta("missing"), nullptr);
  std::remove(path.c_str());
}

TEST(SerializationTest, UnwritableDirectoryRejected) {
  utils::Rng rng(10);
  Mlp mlp({2, 2}, Activation::kRelu, rng);
  utils::Status status =
      SaveModule(mlp, "/nonexistent-dir/model.ckpt");
  EXPECT_FALSE(status.ok());
}

TEST(SerializationTest, InjectedTruncationNeverPublishes) {
  utils::Rng rng(11);
  Mlp mlp({3, 4, 2}, Activation::kRelu, rng);
  const std::string path = TempPath("atomic.ckpt");
  ASSERT_TRUE(SaveModule(mlp, path).ok());
  Checkpoint good;
  ASSERT_TRUE(LoadCheckpoint(&good, path).ok());

  // The truncated write must fail verification, leave the previous
  // checkpoint byte-identical, and clean up its temp file.
  ASSERT_TRUE(
      utils::FaultInjector::Global().Configure("truncate_ckpt").ok());
  utils::Status status = SaveModule(mlp, path);
  utils::FaultInjector::Global().Reset();
  EXPECT_FALSE(status.ok());
  Checkpoint still_good;
  EXPECT_TRUE(LoadCheckpoint(&still_good, path).ok());
  EXPECT_EQ(still_good.tensors.size(), good.tensors.size());
  std::ifstream tmp(path + ".tmp", std::ios::binary);
  EXPECT_FALSE(tmp.good());
  std::remove(path.c_str());
}

TEST(SerializationTest, InjectedIoFailureReported) {
  utils::Rng rng(12);
  Mlp mlp({2, 3}, Activation::kRelu, rng);
  const std::string path = TempPath("iofail.ckpt");
  ASSERT_TRUE(
      utils::FaultInjector::Global().Configure("io_fail@save=1").ok());
  utils::Status save_status = SaveModule(mlp, path);
  EXPECT_FALSE(save_status.ok());

  ASSERT_TRUE(SaveModule(mlp, path).ok());  // 2nd save succeeds
  ASSERT_TRUE(
      utils::FaultInjector::Global().Configure("io_fail@load=1").ok());
  Checkpoint ckpt;
  EXPECT_FALSE(LoadCheckpoint(&ckpt, path).ok());
  EXPECT_TRUE(LoadCheckpoint(&ckpt, path).ok());  // 2nd load succeeds
  utils::FaultInjector::Global().Reset();
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Deterministic corruption corpus: whatever bytes arrive, LoadModule must
// either succeed or fail with a clean Status — never crash, never leave the
// target module partially populated (the loader validates the whole plan
// before copying a single tensor).
// ---------------------------------------------------------------------------

TEST(SerializationFuzzTest, BitFlipsNeverCrashOrPartiallyPopulate) {
  utils::Rng rng(41);
  Mlp source({4, 6, 3}, Activation::kRelu, rng);
  const std::string path = TempPath("fuzz_bitflip.ckpt");
  ASSERT_TRUE(SaveModule(source, path).ok());
  const std::string pristine = ReadFileBytes(path);
  ASSERT_GT(pristine.size(), 64u);

  utils::Rng fuzz(1234);
  for (int trial = 0; trial < 200; ++trial) {
    std::string bytes = pristine;
    const auto pos = static_cast<size_t>(
        fuzz.UniformInt(static_cast<int64_t>(bytes.size())));
    const int bit = static_cast<int>(fuzz.UniformInt(8));
    bytes[pos] = static_cast<char>(bytes[pos] ^ (1 << bit));
    WriteFileBytes(path, bytes);

    Mlp target({4, 6, 3}, Activation::kRelu, fuzz);
    const std::vector<Tensor> before = SnapshotParams(target);
    utils::Status status = LoadModule(&target, path);
    if (status.ok()) {
      // Flip landed in a tensor payload (or was a no-op): full load.
      continue;
    }
    EXPECT_TRUE(ParamsMemEqual(target, before))
        << "failed load mutated the module (trial " << trial << ", byte "
        << pos << ", bit " << bit << "): " << status.ToString();
  }
  std::remove(path.c_str());
}

TEST(SerializationFuzzTest, LengthFieldCorruptionRejectedCleanly) {
  utils::Rng rng(42);
  Mlp source({3, 5, 2}, Activation::kRelu, rng);
  const std::string path = TempPath("fuzz_length.ckpt");
  ASSERT_TRUE(SaveModule(source, path).ok());
  const std::string pristine = ReadFileBytes(path);

  // Stomp every u32-aligned word in the file with values chosen to abuse
  // whichever count/length/dim field lives there: huge (multi-TB
  // allocations if trusted), off-by-one, and zero. The loader's bounds
  // checks must turn each into a clean error or an unchanged full load.
  const std::vector<uint64_t> poisons = {0xFFFFFFFFFFFFFFFFull,
                                         0x7FFFFFFFFFFFFFFFull,
                                         0x0000000100000001ull, 1ull, 0ull};
  int rejected = 0;
  for (size_t pos = 0; pos + sizeof(uint64_t) <= pristine.size(); pos += 4) {
    for (uint64_t poison : poisons) {
      std::string bytes = pristine;
      std::memcpy(&bytes[pos], &poison, sizeof(poison));
      WriteFileBytes(path, bytes);
      Mlp target({3, 5, 2}, Activation::kRelu, rng);
      const std::vector<Tensor> before = SnapshotParams(target);
      utils::Status status = LoadModule(&target, path);
      if (!status.ok()) {
        ++rejected;
        EXPECT_TRUE(ParamsMemEqual(target, before))
            << "failed load mutated the module (byte " << pos << ", poison 0x"
            << std::hex << poison << ")";
      }
    }
  }
  // Sanity: the corpus actually exercised the reject paths.
  EXPECT_GT(rejected, 0);
  std::remove(path.c_str());
}

TEST(SerializationFuzzTest, CorruptNameLengthGivesPrintableMessages) {
  utils::Rng rng(45);
  Mlp source({3, 5, 2}, Activation::kRelu, rng);
  const std::string path = TempPath("fuzz_name_len.ckpt");
  ASSERT_TRUE(SaveModule(source, path).ok());
  const std::string pristine = ReadFileBytes(path);
  // The first index entry starts right after the 64-byte header with its
  // u64 name length. A wrong length makes the name swallow the binary
  // rank/dim fields that follow it (or lose its tail), and the error
  // message quotes that name.
  constexpr size_t kNameLenAt = 64;
  uint64_t name_len = 0;
  std::memcpy(&name_len, &pristine[kNameLenAt], sizeof(name_len));
  std::vector<uint64_t> lengths;
  for (int bit = 0; bit < 12; ++bit) lengths.push_back(name_len ^ (1u << bit));
  for (uint64_t d = 1; d <= 40; ++d) lengths.push_back(name_len + d);
  int rejected = 0;
  int escaped = 0;
  for (uint64_t len : lengths) {
    std::string bytes = pristine;
    std::memcpy(&bytes[kNameLenAt], &len, sizeof(len));
    WriteFileBytes(path, bytes);
    Mlp target({3, 5, 2}, Activation::kRelu, rng);
    const utils::Status status = LoadModule(&target, path);
    if (status.ok()) continue;
    ++rejected;
    const std::string& message = status.message();
    for (char ch : message) {
      const auto byte = static_cast<unsigned char>(ch);
      ASSERT_TRUE(byte >= 0x20 && byte < 0x7f)
          << "non-printable byte 0x" << std::hex << int{byte}
          << " in the message for name length " << std::dec << len;
    }
    if (message.find("\\x") != std::string::npos) ++escaped;
  }
  EXPECT_GT(rejected, 0);
  // Some rejections quote a name that holds binary index bytes.
  EXPECT_GT(escaped, 0);
  std::remove(path.c_str());
}

TEST(SerializationFuzzTest, DuplicatedTensorRecordRejected) {
  utils::Rng rng(43);
  Mlp source({3, 4, 2}, Activation::kRelu, rng);
  const std::string path = TempPath("fuzz_dup.ckpt");
  ASSERT_TRUE(SaveModule(source, path).ok());
  Checkpoint ckpt;
  ASSERT_TRUE(LoadCheckpoint(&ckpt, path).ok());
  ASSERT_FALSE(ckpt.tensors.empty());
  // Duplicate the first record; the loader must refuse the whole file
  // rather than silently let the later copy win.
  ckpt.tensors.push_back(ckpt.tensors.front());
  ASSERT_TRUE(SaveCheckpoint(ckpt, path).ok());

  Mlp target({3, 4, 2}, Activation::kRelu, rng);
  const std::vector<Tensor> before = SnapshotParams(target);
  utils::Status status = LoadModule(&target, path);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), utils::StatusCode::kInvalidArgument);
  EXPECT_TRUE(ParamsMemEqual(target, before));
  std::remove(path.c_str());
}

TEST(SerializationFuzzTest, ReorderedTensorRecordsStillLoadExactly) {
  utils::Rng rng(44);
  Mlp source({3, 4, 2}, Activation::kRelu, rng);
  const std::string path = TempPath("fuzz_reorder.ckpt");
  ASSERT_TRUE(SaveModule(source, path).ok());
  Checkpoint ckpt;
  ASSERT_TRUE(LoadCheckpoint(&ckpt, path).ok());
  ASSERT_GT(ckpt.tensors.size(), 1u);
  // The loader matches records by name, so order must not matter.
  std::reverse(ckpt.tensors.begin(), ckpt.tensors.end());
  ASSERT_TRUE(SaveCheckpoint(ckpt, path).ok());

  utils::Rng rng2(4545);
  Mlp target({3, 4, 2}, Activation::kRelu, rng2);
  ASSERT_TRUE(LoadModule(&target, path).ok());
  EXPECT_TRUE(ParamsMemEqual(target, SnapshotParams(source)));
  std::remove(path.c_str());
}

TEST(SerializationFuzzTest, TruncationSweepNeverCrashes) {
  utils::Rng rng(45);
  Mlp source({3, 5, 2}, Activation::kRelu, rng);
  const std::string path = TempPath("fuzz_trunc.ckpt");
  ASSERT_TRUE(SaveModule(source, path).ok());
  const std::string pristine = ReadFileBytes(path);

  // Every prefix length (byte granularity up to 96, then every 7th) must
  // be rejected without touching the target.
  for (size_t keep = 0; keep < pristine.size();
       keep += (keep < 96 ? 1 : 7)) {
    WriteFileBytes(path, pristine.substr(0, keep));
    Mlp target({3, 5, 2}, Activation::kRelu, rng);
    const std::vector<Tensor> before = SnapshotParams(target);
    utils::Status status = LoadModule(&target, path);
    EXPECT_FALSE(status.ok()) << "keep=" << keep;
    EXPECT_TRUE(ParamsMemEqual(target, before)) << "keep=" << keep;
  }
  std::remove(path.c_str());
}

TEST(SerializationFuzzTest, RegistryGateRejectsCorruptCandidates) {
  // End-to-end corrupt-candidate corpus through the serving registry:
  // bit-flipped and truncated checkpoints published to a live engine must
  // all be turned away by the quality gate without the live FrozenModel
  // pointer ever changing — the serve path inherits the loader's
  // fail-closed contract.
  core::SagdfnConfig config;
  config.num_nodes = 8;
  config.embedding_dim = 4;
  config.m = 4;
  config.k = 2;
  config.hidden_dim = 5;
  config.heads = 1;
  config.ffn_hidden = 4;
  config.diffusion_steps = 1;
  config.history = 3;
  config.horizon = 2;
  config.seed = 7;
  const std::string path = TempPath("fuzz_registry.ckpt");
  {
    core::SagdfnModel candidate(config);
    ASSERT_TRUE(SaveModule(candidate, path).ok());
  }
  const std::string pristine = ReadFileBytes(path);
  ASSERT_GT(pristine.size(), 64u);

  auto live = std::shared_ptr<const serve::FrozenModel>(
      serve::FrozenModel::Freeze(
          std::make_unique<core::SagdfnModel>(config)));
  serve::InferenceEngine engine(live, serve::EngineOptions{});
  serve::ModelRegistry registry(&engine, serve::RegistryOptions{});

  // Bit flips across the structural prefix: the 64-byte header and the
  // index of names, shapes and payload offsets behind it (a flip deep in
  // a payload would load fine and legitimately publish). Only a flip in
  // the header's zero padding [40, 64) leaves the file meaning the same
  // thing; every other flip must be rejected without moving the live
  // pointer.
  uint64_t index_bytes = 0;
  std::memcpy(&index_bytes, pristine.data() + 24, sizeof(index_bytes));
  const int64_t structural = 64 + static_cast<int64_t>(index_bytes);
  ASSERT_LE(structural, static_cast<int64_t>(pristine.size()));
  const serve::FrozenModel* pinned = engine.model_snapshot().get();
  utils::Rng fuzz(5678);
  int64_t rejected = 0;
  for (int trial = 0; trial < 80; ++trial) {
    std::string bytes = pristine;
    const auto pos = static_cast<size_t>(fuzz.UniformInt(structural));
    const int bit = static_cast<int>(fuzz.UniformInt(8));
    bytes[pos] = static_cast<char>(bytes[pos] ^ (1 << bit));
    WriteFileBytes(path, bytes);
    utils::Status status = registry.Publish(path);
    if (!status.ok()) ++rejected;
    if (pos >= 40 && pos < 64) {
      // Padding only: the candidate is the pristine model and may
      // publish; re-pin whatever is live now.
      pinned = engine.model_snapshot().get();
      continue;
    }
    EXPECT_FALSE(status.ok()) << "flip at byte " << pos << ", bit " << bit;
    EXPECT_EQ(engine.model_snapshot().get(), pinned)
        << "flip at byte " << pos << " moved the live model";
  }
  // Truncation sweep: every strict prefix must be rejected, and the live
  // pointer must never move.
  for (size_t keep = 0; keep < pristine.size(); keep += 17) {
    WriteFileBytes(path, pristine.substr(0, keep));
    utils::Status status = registry.Publish(path);
    EXPECT_FALSE(status.ok()) << "keep=" << keep;
    ++rejected;
    EXPECT_EQ(engine.model_snapshot().get(), pinned)
        << "truncated candidate (keep=" << keep << ") moved the live model";
  }
  EXPECT_GT(rejected, 0);
  EXPECT_EQ(registry.stats().rejected, rejected);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sagdfn::nn
