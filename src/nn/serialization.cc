#include "nn/serialization.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <utility>

#include "utils/fault.h"
#include "utils/logging.h"

namespace sagdfn::nn {
namespace {

constexpr uint32_t kMagic = 0x4D474153;  // "SAGM"
constexpr uint64_t kMaxNameLen = 4096;
constexpr uint64_t kMaxRank = 16;
constexpr uint64_t kMaxElements = uint64_t{1} << 40;
constexpr uint64_t kHeaderBytes = 64;
constexpr uint64_t kAlign = 64;

uint64_t Align64(uint64_t v) { return (v + kAlign - 1) & ~(kAlign - 1); }

// ---------------------------------------------------------------------------
// Writing. Every write goes through ByteSink so the file offset is tracked
// exactly (payload placement) and a stream failure (full disk, I/O error)
// is detected.

class ByteSink {
 public:
  explicit ByteSink(std::ostream& out) : out_(out) {}

  void Write(const void* data, size_t bytes) {
    out_.write(static_cast<const char*>(data),
               static_cast<std::streamsize>(bytes));
    written_ += bytes;
  }
  void WriteU32(uint32_t v) { Write(&v, sizeof(v)); }
  void WriteU64(uint64_t v) { Write(&v, sizeof(v)); }
  void WriteString(const std::string& s) {
    WriteU64(s.size());
    Write(s.data(), s.size());
  }

  uint64_t written() const { return written_; }
  bool ok() const { return out_.good(); }

 private:
  std::ostream& out_;
  uint64_t written_ = 0;
};

// Exact byte count of the index region for `checkpoint` (names, ranks,
// dims, word counts, offsets — everything except the aligned payloads).
uint64_t IndexBytes(const Checkpoint& checkpoint) {
  uint64_t bytes = 0;
  for (const auto& [name, value] : checkpoint.tensors) {
    bytes += 8 + name.size();                  // name
    bytes += 8;                                // rank
    bytes += 8 * value.shape().dims().size();  // dims
    bytes += 8;                                // payload offset
  }
  for (const auto& [name, words] : checkpoint.meta) {
    bytes += 8 + name.size();  // name
    bytes += 8;                // word count
    bytes += 8;                // payload offset
  }
  return bytes;
}

// Serializes `checkpoint` into `tmp`. Payload offsets follow the layout
// the reader enforces: one aligned slot per entry in index order.
utils::Status WriteFile(const Checkpoint& checkpoint, const std::string& tmp) {
  const uint64_t index_bytes = IndexBytes(checkpoint);
  uint64_t cursor = Align64(kHeaderBytes + index_bytes);
  std::vector<uint64_t> tensor_offsets;
  tensor_offsets.reserve(checkpoint.tensors.size());
  for (const auto& [name, value] : checkpoint.tensors) {
    tensor_offsets.push_back(cursor);
    cursor = Align64(cursor +
                     static_cast<uint64_t>(value.size()) * sizeof(float));
  }
  std::vector<uint64_t> meta_offsets;
  meta_offsets.reserve(checkpoint.meta.size());
  for (const auto& [name, words] : checkpoint.meta) {
    meta_offsets.push_back(cursor);
    cursor = Align64(cursor + words.size() * sizeof(uint64_t));
  }
  const uint64_t file_bytes = cursor;

  std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
  if (!out.is_open()) {
    return utils::Status::NotFound("cannot open for write: " + tmp);
  }
  ByteSink sink(out);
  sink.WriteU32(kMagic);
  sink.WriteU32(kFormatVersion);
  sink.WriteU64(checkpoint.tensors.size());
  sink.WriteU64(checkpoint.meta.size());
  sink.WriteU64(index_bytes);
  sink.WriteU64(file_bytes);
  const char zeros[kAlign] = {};
  sink.Write(zeros, kHeaderBytes - sink.written());

  for (size_t i = 0; i < checkpoint.tensors.size(); ++i) {
    const auto& [name, value] = checkpoint.tensors[i];
    sink.WriteString(name);
    const auto& dims = value.shape().dims();
    sink.WriteU64(dims.size());
    for (int64_t d : dims) sink.WriteU64(static_cast<uint64_t>(d));
    sink.WriteU64(tensor_offsets[i]);
  }
  for (size_t i = 0; i < checkpoint.meta.size(); ++i) {
    const auto& [name, words] = checkpoint.meta[i];
    sink.WriteString(name);
    sink.WriteU64(words.size());
    sink.WriteU64(meta_offsets[i]);
  }

  // Payloads at their precomputed aligned offsets; the gaps between
  // entries are explicit zeros so the file content is a pure function of
  // the checkpoint (byte-identical re-saves).
  auto pad_to = [&](uint64_t offset) {
    while (sink.written() < offset) {
      const uint64_t gap =
          std::min<uint64_t>(sizeof(zeros), offset - sink.written());
      sink.Write(zeros, gap);
    }
  };
  for (size_t i = 0; i < checkpoint.tensors.size(); ++i) {
    pad_to(tensor_offsets[i]);
    const auto& value = checkpoint.tensors[i].second;
    sink.Write(value.data(),
               static_cast<uint64_t>(value.size()) * sizeof(float));
  }
  for (size_t i = 0; i < checkpoint.meta.size(); ++i) {
    pad_to(meta_offsets[i]);
    const auto& words = checkpoint.meta[i].second;
    sink.Write(words.data(), words.size() * sizeof(uint64_t));
  }
  pad_to(file_bytes);
  out.flush();
  if (!sink.ok() || sink.written() != file_bytes) {
    out.close();
    std::remove(tmp.c_str());
    return utils::Status::ResourceExhausted(
        "write failed (disk full or I/O error): " + tmp);
  }
  return utils::Status::Ok();
}

// ---------------------------------------------------------------------------
// Reading.

// Bounds-checked cursor over the mapped index region. Fields are
// memcpy'd out: the index packs strings between integers, so u64 fields
// are not always 8-aligned in the file and must not be read through a
// reinterpret_cast.
class MemCursor {
 public:
  MemCursor(const uint8_t* data, uint64_t size) : data_(data), size_(size) {}

  bool Read(void* out, uint64_t bytes) {
    if (bytes > size_ - pos_) return false;
    std::memcpy(out, data_ + pos_, bytes);
    pos_ += bytes;
    return true;
  }
  bool ReadU64(uint64_t* v) { return Read(v, sizeof(*v)); }
  bool ReadString(std::string* s) {
    uint64_t len = 0;
    if (!ReadU64(&len) || len > kMaxNameLen || len > size_ - pos_) {
      return false;
    }
    s->assign(reinterpret_cast<const char*>(data_ + pos_),
              static_cast<size_t>(len));
    pos_ += len;
    return true;
  }
  uint64_t pos() const { return pos_; }

 private:
  const uint8_t* data_;
  uint64_t size_;
  uint64_t pos_ = 0;
};

// The parser behind LoadCheckpoint, without its fault-injection site:
// SaveCheckpoint's verification pass reads through it too.
utils::Status ReadFile(Checkpoint* out, const std::string& path) {
  std::shared_ptr<utils::MappedFile> file;
  SAGDFN_RETURN_IF_ERROR(utils::MappedFile::Open(path, &file));
  const uint8_t* base = file->data();
  const uint64_t size = file->size();
  if (size < kHeaderBytes) {
    return utils::Status::InvalidArgument("file too small for header: " +
                                          path);
  }

  uint32_t magic = 0;
  uint32_t version = 0;
  uint64_t tensor_count = 0;
  uint64_t meta_count = 0;
  uint64_t index_bytes = 0;
  uint64_t file_bytes = 0;
  MemCursor header(base, kHeaderBytes);
  header.Read(&magic, sizeof(magic));
  header.Read(&version, sizeof(version));
  header.ReadU64(&tensor_count);
  header.ReadU64(&meta_count);
  header.ReadU64(&index_bytes);
  header.ReadU64(&file_bytes);
  if (magic != kMagic) {
    return utils::Status::InvalidArgument("bad checkpoint magic: " + path);
  }
  if (version != kFormatVersion) {
    return utils::Status::InvalidArgument(
        "unsupported checkpoint version " + std::to_string(version) +
        " (this build reads version " + std::to_string(kFormatVersion) +
        "): " + path);
  }
  if (file_bytes != size) {
    return utils::Status::InvalidArgument(
        "declared size (" + std::to_string(file_bytes) +
        " bytes) does not match file size (" + std::to_string(size) +
        "): " + path);
  }
  if (index_bytes > size - kHeaderBytes) {
    return utils::Status::InvalidArgument("index exceeds file: " + path);
  }
  // Every index entry occupies at least name-length + count + offset.
  if (tensor_count > index_bytes / 24 || meta_count > index_bytes / 24) {
    return utils::Status::InvalidArgument("implausible entry count: " + path);
  }

  Checkpoint result;
  result.file = file;
  result.tensors.reserve(tensor_count);
  result.meta.reserve(meta_count);
  MemCursor index(base + kHeaderBytes, index_bytes);

  // Payloads must sit exactly where WriteFile puts them: a corrupted
  // offset that is merely aligned and in bounds could otherwise alias
  // one entry onto another's bytes and still load.
  uint64_t expected = Align64(kHeaderBytes + index_bytes);
  auto claim_payload = [&](uint64_t offset, uint64_t bytes,
                           const std::string& name) -> utils::Status {
    if (offset != expected) {
      return utils::Status::InvalidArgument(
          "payload for " + name + " at offset " + std::to_string(offset) +
          ", expected " + std::to_string(expected) + ": " + path);
    }
    if (offset > size || bytes > size - offset) {
      return utils::Status::InvalidArgument("payload for " + name +
                                            " exceeds file: " + path);
    }
    expected = Align64(offset + bytes);
    return utils::Status::Ok();
  };

  for (uint64_t i = 0; i < tensor_count; ++i) {
    std::string name;
    if (!index.ReadString(&name)) {
      return utils::Status::InvalidArgument(
          "truncated or corrupt tensor name (entry " + std::to_string(i) +
          "): " + path);
    }
    uint64_t rank = 0;
    if (!index.ReadU64(&rank) || rank > kMaxRank) {
      return utils::Status::InvalidArgument("corrupt rank for " + name +
                                            ": " + path);
    }
    std::vector<int64_t> dims(rank);
    uint64_t elements = 1;
    for (auto& d : dims) {
      uint64_t v = 0;
      if (!index.ReadU64(&v) || v > kMaxElements) {
        return utils::Status::InvalidArgument("corrupt dims for " + name +
                                              ": " + path);
      }
      d = static_cast<int64_t>(v);
      elements *= v == 0 ? 1 : v;
      if (elements > kMaxElements) {
        return utils::Status::InvalidArgument(
            "implausible element count for " + name + ": " + path);
      }
    }
    uint64_t offset = 0;
    if (!index.ReadU64(&offset)) {
      return utils::Status::InvalidArgument("truncated offset for " + name +
                                            ": " + path);
    }
    tensor::Shape shape(dims);
    const uint64_t bytes =
        static_cast<uint64_t>(shape.NumElements()) * sizeof(float);
    SAGDFN_RETURN_IF_ERROR(claim_payload(offset, bytes, name));
    // The mapping is PROT_READ; the const_cast hands out a pointer that
    // must never be written (FromExternal documents the contract).
    float* data = const_cast<float*>(
        reinterpret_cast<const float*>(base + offset));
    result.tensors.emplace_back(
        std::move(name),
        tensor::Tensor::FromExternal(file, data, std::move(shape)));
  }

  for (uint64_t i = 0; i < meta_count; ++i) {
    std::string name;
    if (!index.ReadString(&name)) {
      return utils::Status::InvalidArgument(
          "truncated or corrupt meta name (entry " + std::to_string(i) +
          "): " + path);
    }
    uint64_t words = 0;
    uint64_t offset = 0;
    if (!index.ReadU64(&words) || words > kMaxElements ||
        !index.ReadU64(&offset)) {
      return utils::Status::InvalidArgument("corrupt meta entry for " +
                                            name + ": " + path);
    }
    SAGDFN_RETURN_IF_ERROR(
        claim_payload(offset, words * sizeof(uint64_t), name));
    std::vector<uint64_t> values(words);
    if (words > 0) {
      std::memcpy(values.data(), base + offset, words * sizeof(uint64_t));
    }
    result.meta.emplace_back(std::move(name), std::move(values));
  }

  if (index.pos() != index_bytes) {
    return utils::Status::InvalidArgument(
        "index size mismatch: header declares " +
        std::to_string(index_bytes) + " bytes, entries occupy " +
        std::to_string(index.pos()) + ": " + path);
  }
  if (expected != file_bytes) {
    return utils::Status::InvalidArgument(
        "payloads end at " + std::to_string(expected) + ", file declares " +
        std::to_string(file_bytes) + " bytes: " + path);
  }

  *out = std::move(result);
  return utils::Status::Ok();
}

// fsyncs a path (file or directory) so a rename-published checkpoint
// survives power loss. Best-effort on filesystems without dirsync.
bool SyncPath(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}

std::string DirName(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

}  // namespace

const tensor::Tensor* Checkpoint::FindTensor(const std::string& name) const {
  for (const auto& [n, t] : tensors) {
    if (n == name) return &t;
  }
  return nullptr;
}

const std::vector<uint64_t>* Checkpoint::FindMeta(
    const std::string& name) const {
  for (const auto& [n, w] : meta) {
    if (n == name) return &w;
  }
  return nullptr;
}

utils::Status SaveCheckpoint(const Checkpoint& checkpoint,
                             const std::string& path) {
  utils::FaultInjector& injector = utils::FaultInjector::Global();
  if (injector.FireCounted(utils::FaultSite::kSaveFail)) {
    return utils::Status::Internal("injected I/O failure saving " + path);
  }
  for (const auto& [name, value] : checkpoint.tensors) {
    if (name.size() > kMaxNameLen ||
        value.shape().dims().size() > kMaxRank) {
      return utils::Status::InvalidArgument(
          "tensor not representable in a checkpoint: " + name);
    }
  }
  for (const auto& entry : checkpoint.meta) {
    if (entry.first.size() > kMaxNameLen) {
      return utils::Status::InvalidArgument(
          "meta name too long for a checkpoint: " + entry.first);
    }
  }

  const std::string tmp = path + ".tmp";
  SAGDFN_RETURN_IF_ERROR(WriteFile(checkpoint, tmp));

  if (injector.FireCounted(utils::FaultSite::kTruncate)) {
    // Simulate a torn write: chop the tail third off the temp file. The
    // verification pass below must catch this before the rename.
    std::ifstream probe(tmp, std::ios::binary | std::ios::ate);
    const auto size = static_cast<int64_t>(probe.tellg());
    probe.close();
    if (::truncate(tmp.c_str(), size * 2 / 3) != 0) {
      std::remove(tmp.c_str());
      return utils::Status::Internal("fault injection truncate failed: " +
                                     tmp);
    }
  }

  // Verify-before-publish, through the parser every reader uses. Only a
  // checkpoint that parses cleanly may replace the previous one.
  {
    Checkpoint readback;  // its mapping is dropped before the rename
    utils::Status verify = ReadFile(&readback, tmp);
    if (!verify.ok()) {
      std::remove(tmp.c_str());
      return utils::Status::Internal(
          "checkpoint failed post-write verification (" + verify.message() +
          "); previous checkpoint left intact");
    }
  }

  if (!SyncPath(tmp)) {
    std::remove(tmp.c_str());
    return utils::Status::Internal("fsync failed: " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return utils::Status::Internal("rename failed: " + tmp + " -> " + path);
  }
  if (!SyncPath(DirName(path))) {
    SAGDFN_LOG(Warning) << "directory fsync failed for " << path
                        << " (checkpoint published but may not survive "
                           "power loss)";
  }
  return utils::Status::Ok();
}

utils::Status LoadCheckpoint(Checkpoint* checkpoint,
                             const std::string& path) {
  if (utils::FaultInjector::Global().FireCounted(
          utils::FaultSite::kLoadFail)) {
    return utils::Status::Internal("injected I/O failure loading " + path);
  }
  return ReadFile(checkpoint, path);
}

void AppendModuleState(const Module& module, const std::string& prefix,
                       Checkpoint* checkpoint) {
  for (const auto& [name, var] : module.NamedParameters()) {
    checkpoint->tensors.emplace_back(prefix + name, var.value());
  }
  for (const auto& [name, buffer] : module.NamedBuffers()) {
    checkpoint->tensors.emplace_back(prefix + "buffer:" + name, buffer);
  }
}

utils::Status MatchModuleState(const Module& module,
                               const Checkpoint& checkpoint,
                               const std::string& prefix,
                               std::vector<const tensor::Tensor*>* sources) {
  std::map<std::string, size_t> slot_by_name;
  std::vector<tensor::Shape> shapes;
  for (const auto& [name, var] : module.NamedParameters()) {
    slot_by_name.emplace(name, shapes.size());
    shapes.push_back(var.value().shape());
  }
  for (const auto& [name, buffer] : module.NamedBuffers()) {
    slot_by_name.emplace("buffer:" + name, shapes.size());
    shapes.push_back(buffer.shape());
  }

  std::vector<const tensor::Tensor*> matched(shapes.size(), nullptr);
  size_t found = 0;
  for (const auto& [name, value] : checkpoint.tensors) {
    if (name.compare(0, prefix.size(), prefix) != 0) continue;
    auto it = slot_by_name.find(name.substr(prefix.size()));
    if (it == slot_by_name.end()) {
      return utils::Status::NotFound("unknown entry in checkpoint: " + name);
    }
    const tensor::Tensor*& slot = matched[it->second];
    if (slot != nullptr) {
      return utils::Status::InvalidArgument(
          "duplicate entry in checkpoint: " + name);
    }
    if (!(value.shape() == shapes[it->second])) {
      return utils::Status::InvalidArgument(
          "shape mismatch for " + name + ": file " +
          value.shape().ToString() + " vs module " +
          shapes[it->second].ToString());
    }
    slot = &value;
    ++found;
  }
  if (found != matched.size()) {
    return utils::Status::InvalidArgument(
        "state count mismatch: checkpoint has " + std::to_string(found) +
        " entries under '" + prefix + "', module has " +
        std::to_string(matched.size()));
  }
  *sources = std::move(matched);
  return utils::Status::Ok();
}

utils::Status SaveModule(const Module& module, const std::string& path) {
  Checkpoint checkpoint;
  AppendModuleState(module, /*prefix=*/"", &checkpoint);
  return SaveCheckpoint(checkpoint, path);
}

utils::Status LoadModuleFromCheckpoint(Module* module,
                                       const Checkpoint& checkpoint,
                                       const std::string& prefix) {
  std::vector<const tensor::Tensor*> sources;
  SAGDFN_RETURN_IF_ERROR(
      MatchModuleState(*module, checkpoint, prefix, &sources));
  size_t i = 0;
  for (auto& [name, var] : module->NamedParameters()) {
    var.mutable_value().CopyFrom(*sources[i++]);
  }
  for (auto& [name, buffer] : module->NamedBuffers()) {
    buffer.CopyFrom(*sources[i++]);
  }
  module->OnStateLoaded();
  return utils::Status::Ok();
}

utils::Status LoadModule(Module* module, const std::string& path) {
  Checkpoint checkpoint;
  SAGDFN_RETURN_IF_ERROR(LoadCheckpoint(&checkpoint, path));
  return LoadModuleFromCheckpoint(module, checkpoint, /*prefix=*/"");
}

utils::Status CopyModuleState(const Module& src, Module* dst) {
  Checkpoint checkpoint;
  AppendModuleState(src, /*prefix=*/"", &checkpoint);
  return LoadModuleFromCheckpoint(dst, checkpoint, /*prefix=*/"");
}

}  // namespace sagdfn::nn
