#ifndef SAGDFN_NN_SERIALIZATION_H_
#define SAGDFN_NN_SERIALIZATION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "nn/module.h"
#include "utils/mmap_file.h"
#include "utils/status.h"

namespace sagdfn::nn {

/// Weight-file ("SAGM") format version written and read by this build.
/// Every checkpoint, candidate and frozen model uses this one layout:
///   [0, 64)    header: magic "SAGM", version, tensor count, meta count,
///              index byte count, total file byte count, zero padding
///   [64, ...)  index: per tensor {name, rank, dims..., payload offset},
///              then per meta entry {name, word count, payload offset}
///   aligned    payloads: raw float / u64 arrays in index order, the
///              first at Align64(64 + index bytes), each next one at
///              Align64(previous end), zero-padded between entries; the
///              file ends at the last aligned end
/// All integers are little-endian u32/u64; offsets are absolute file
/// offsets. Readers reject a file whose declared sizes, counts or
/// offsets disagree with that layout or with the actual file.
inline constexpr uint32_t kFormatVersion = 1;

/// A checkpoint: named float tensors (model parameters, buffers,
/// optimizer moment slots) plus named vectors of opaque 64-bit words
/// (iteration counters, RNG streams, bit-cast doubles). Entry order is
/// preserved on disk, so writing the same state twice produces
/// byte-identical files.
struct Checkpoint {
  std::vector<std::pair<std::string, tensor::Tensor>> tensors;
  std::vector<std::pair<std::string, std::vector<uint64_t>>> meta;
  /// Set by LoadCheckpoint: the read-only mapping the loaded `tensors`
  /// alias (zero copy; writing through their data() faults). Each tensor
  /// also keeps it alive, so views may outlive this struct. Meta words
  /// are small and decoded onto the heap.
  std::shared_ptr<utils::MappedFile> file;

  /// Returns the named tensor or nullptr.
  const tensor::Tensor* FindTensor(const std::string& name) const;

  /// Returns the named metadata words or nullptr.
  const std::vector<uint64_t>* FindMeta(const std::string& name) const;
};

/// Atomically writes `checkpoint` to `path`:
///   1. serialize into `path + ".tmp"`, checking the stream after every
///      write (a full disk fails loudly, never silently truncates);
///   2. re-read and validate the temp file through LoadCheckpoint's
///      parser (verify-before-publish, so a corrupted write can never
///      shadow a good checkpoint);
///   3. fsync the file and its directory, then rename() over `path`.
/// On any failure the temp file is removed and an existing `path` is
/// left untouched. Honors FaultInjector's io_fail@save / truncate_ckpt.
utils::Status SaveCheckpoint(const Checkpoint& checkpoint,
                             const std::string& path);

/// Maps a file written by SaveCheckpoint read-only. Validates the header,
/// every name/rank/dim, and that every payload sits exactly where the
/// writer puts it before exposing any view; corrupt, truncated or padded
/// files are rejected without faulting. Honors FaultInjector's
/// io_fail@load.
utils::Status LoadCheckpoint(Checkpoint* checkpoint,
                             const std::string& path);

/// Appends every named parameter and buffer of `module` to `checkpoint`
/// as `prefix` + name (buffers as `prefix` + "buffer:" + name), sharing
/// storage with the module (no copy).
void AppendModuleState(const Module& module, const std::string& prefix,
                       Checkpoint* checkpoint);

/// Matches the tensors of `checkpoint` whose names start with `prefix`
/// against `module`'s state as AppendModuleState names it. Strict: every
/// such entry must name a distinct parameter or buffer with an identical
/// shape, and every parameter and buffer must be present. On success
/// `sources` holds the checkpoint tensor for each parameter
/// (NamedParameters order) followed by each buffer (NamedBuffers order).
/// Touches nothing, so a caller that copies or binds only after it
/// succeeds never leaves a module half loaded.
utils::Status MatchModuleState(const Module& module,
                               const Checkpoint& checkpoint,
                               const std::string& prefix,
                               std::vector<const tensor::Tensor*>* sources);

/// Writes every named parameter and buffer of `module` as a checkpoint
/// (atomically, via SaveCheckpoint).
utils::Status SaveModule(const Module& module, const std::string& path);

/// Loads a checkpoint produced by SaveModule into `module` (strict
/// matching, see MatchModuleState).
utils::Status LoadModule(Module* module, const std::string& path);

/// Copies the module state stored under `prefix` in `checkpoint` into the
/// module's parameters and buffers (strict, see MatchModuleState), then
/// calls OnStateLoaded(). Shared by LoadModule and the trainer's
/// full-state resume.
utils::Status LoadModuleFromCheckpoint(Module* module,
                                       const Checkpoint& checkpoint,
                                       const std::string& prefix);

/// Copies every named parameter and buffer of `src` into `dst` with the
/// same strict name/shape matching as LoadModule, then calls
/// dst->OnStateLoaded() — an in-memory checkpoint round trip without
/// touching disk. The online fine-tuner uses this to seed a trainable
/// clone from a live serving snapshot (the restored SNS index buffer
/// keeps the clone's neighbor structure frozen).
utils::Status CopyModuleState(const Module& src, Module* dst);

}  // namespace sagdfn::nn

#endif  // SAGDFN_NN_SERIALIZATION_H_
