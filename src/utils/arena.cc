#include "utils/arena.h"

#include <algorithm>

#include "utils/check.h"

namespace sagdfn::utils {
namespace {

/// First chunk size; later chunks double until allocations fit.
constexpr int64_t kMinChunkBytes = 1 << 16;  // 64 KiB

std::atomic<int64_t>& ProcessHighWaterAtomic() {
  static std::atomic<int64_t> high_water{0};
  return high_water;
}

}  // namespace

ScratchArena& ScratchArena::ThreadLocal() {
  thread_local ScratchArena arena;
  return arena;
}

void* ScratchArena::Alloc(int64_t bytes, int64_t align) {
  SAGDFN_CHECK_GE(bytes, 0);
  SAGDFN_CHECK_GT(align, 0);
  SAGDFN_CHECK_EQ(align & (align - 1), 0) << "alignment must be a power of 2";
  if (bytes == 0) bytes = 1;  // distinct non-null pointers for empty arrays

  // Try the active chunk, then any later (already-reset) chunk, growing the
  // chunk list only when nothing fits.
  for (;;) {
    if (active_ < static_cast<int64_t>(chunks_.size())) {
      Chunk& chunk = chunks_[active_];
      char* base = chunk.data.get();
      intptr_t cursor = reinterpret_cast<intptr_t>(base) + chunk.used;
      intptr_t aligned_cursor = (cursor + (align - 1)) & ~(align - 1);
      const int64_t padding = aligned_cursor - cursor;
      if (chunk.used + padding + bytes <= chunk.capacity) {
        chunk.used += padding + bytes;
        total_used_ += padding + bytes;
        if (total_used_ > high_water_) {
          high_water_ = total_used_;
          auto& process = ProcessHighWaterAtomic();
          int64_t seen = process.load(std::memory_order_relaxed);
          while (seen < high_water_ &&
                 !process.compare_exchange_weak(seen, high_water_,
                                                std::memory_order_relaxed)) {
          }
        }
        return reinterpret_cast<void*>(aligned_cursor);
      }
      if (active_ + 1 < static_cast<int64_t>(chunks_.size())) {
        ++active_;  // next chunk is reset (used == 0 past the active one)
        continue;
      }
    }
    // Need a new chunk: double the last capacity until the request fits
    // (with headroom for alignment padding).
    int64_t capacity =
        chunks_.empty() ? kMinChunkBytes : chunks_.back().capacity * 2;
    capacity = std::max(capacity, bytes + align);
    Chunk chunk;
    chunk.data = std::make_unique<char[]>(capacity);
    chunk.capacity = capacity;
    chunks_.push_back(std::move(chunk));
    active_ = static_cast<int64_t>(chunks_.size()) - 1;
  }
}

void ScratchArena::RestoreTo(int64_t chunk, int64_t used, int64_t total) {
  for (int64_t c = chunk + 1; c < static_cast<int64_t>(chunks_.size()); ++c) {
    chunks_[c].used = 0;
  }
  if (chunk < static_cast<int64_t>(chunks_.size())) {
    chunks_[chunk].used = used;
  }
  active_ = std::min(chunk,
                     std::max<int64_t>(
                         0, static_cast<int64_t>(chunks_.size()) - 1));
  total_used_ = total;
}

int64_t ScratchArena::ProcessHighWater() {
  return ProcessHighWaterAtomic().load(std::memory_order_relaxed);
}

}  // namespace sagdfn::utils
