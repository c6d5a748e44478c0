#ifndef SAGDFN_UTILS_ARENA_H_
#define SAGDFN_UTILS_ARENA_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

namespace sagdfn::utils {

/// Per-thread bump allocator for kernel-internal temporaries.
///
/// Hot loops (encoder/decoder rollout steps, fused gconv backward, block
/// reductions) need short-lived buffers every timestep; allocating them
/// through the heap costs a malloc + zero-fill per step. A ScratchArena
/// hands out pointers from reusable chunks: allocation is a pointer bump,
/// deallocation is restoring an offset when a Scope exits. Chunks are
/// never returned to the heap mid-run, so the second and every later
/// rollout step reuses the first step's memory.
///
/// Rules (see DESIGN.md §5f "Arena lifetime"):
///  * Arena pointers are valid only inside the innermost enclosing Scope;
///    anything that outlives the op must be a real Tensor.
///  * Each thread owns its arena (ThreadLocal()); a buffer allocated on
///    the calling thread may be written by pool workers (the pointer is
///    stable), but workers must not allocate from another thread's arena.
///  * Scopes nest; they must be destroyed in LIFO order (automatic with
///    block scoping).
class ScratchArena {
 public:
  ScratchArena() = default;
  ~ScratchArena() = default;

  ScratchArena(const ScratchArena&) = delete;
  ScratchArena& operator=(const ScratchArena&) = delete;

  /// The calling thread's arena.
  static ScratchArena& ThreadLocal();

  /// RAII marker: restores the arena to its construction-time offset on
  /// destruction, releasing every allocation made inside the scope.
  class Scope {
   public:
    explicit Scope(ScratchArena& arena)
        : arena_(arena),
          saved_chunk_(arena.active_),
          saved_used_(arena.chunks_.empty()
                          ? 0
                          : arena.chunks_[arena.active_].used),
          saved_total_(arena.total_used_) {}
    ~Scope() { arena_.RestoreTo(saved_chunk_, saved_used_, saved_total_); }

    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    ScratchArena& arena_;
    int64_t saved_chunk_;
    int64_t saved_used_;
    int64_t saved_total_;
  };

  /// Returns `bytes` of storage aligned to `align` (a power of two).
  /// The memory is uninitialized and owned by the arena.
  void* Alloc(int64_t bytes, int64_t align = 64);

  /// Typed convenience for trivially-destructible element types.
  template <typename T>
  T* AllocArray(int64_t n) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena storage is never destructed");
    return static_cast<T*>(
        Alloc(n * static_cast<int64_t>(sizeof(T)),
              alignof(T) > 64 ? static_cast<int64_t>(alignof(T)) : 64));
  }

  /// Bytes currently handed out (live allocations).
  int64_t bytes_in_use() const { return total_used_; }

  /// Largest bytes_in_use() this arena ever reached.
  int64_t high_water() const { return high_water_; }

  /// Largest high_water() across every thread's arena, process-wide.
  /// Exported as the `arena.high_water_bytes` telemetry gauge.
  static int64_t ProcessHighWater();

 private:
  struct Chunk {
    std::unique_ptr<char[]> data;
    int64_t capacity = 0;
    int64_t used = 0;
  };

  void RestoreTo(int64_t chunk, int64_t used, int64_t total);

  std::vector<Chunk> chunks_;
  int64_t active_ = 0;
  int64_t total_used_ = 0;
  int64_t high_water_ = 0;
};

}  // namespace sagdfn::utils

#endif  // SAGDFN_UTILS_ARENA_H_
