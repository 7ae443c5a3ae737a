// Slab/arena allocation for the epoch page pipeline (DESIGN.md §12).
//
// The per-epoch hot path used to hit the general-purpose heap once or twice
// per page: a 4 KiB payload buffer per COW clone plus a radix node per
// first-touch fold. At 100K pages/epoch the allocator metadata and the
// scattered placement dominate cache behaviour — the pipeline goes
// memory-bound (ROADMAP open item 5). This module replaces those calls with
// a size-class slab arena:
//
//  * one process-wide `Arena` owns large slabs (256 KiB each) and carves
//    them into power-of-two blocks (64 B .. 64 KiB);
//  * each thread keeps a small per-class cache of free blocks, refilled and
//    spilled in batches, so steady-state allocation is a thread-local
//    vector pop — no lock, no malloc. Blocks freed on a different thread
//    than they were allocated on simply join the freeing thread's cache
//    (blocks of one class are interchangeable; the slab memory itself is
//    owned by the arena for the process lifetime);
//  * slab carving is a bump pointer, so the payloads/nodes a trial's
//    thread allocates during one harvest/encode/fold burst are contiguous
//    in allocation order — the walks that revisit them scan forward through
//    a few slabs instead of pointer-chasing the heap.
//
// `ArenaAllocator<T>` adapts the arena to standard containers; PageBytes
// (kernel/address_space.hpp) rides it. `arena_make_shared<T>()` is the
// mandated factory for refcounted payloads (control block and object land
// in one arena block; lint bans make_shared<PageBytes> elsewhere). COW semantics are untouched: the
// shared_ptr refcount machinery is exactly std::allocate_shared's.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "util/assert.hpp"

namespace nlc::util {

/// Smallest and largest block the arena serves; requests outside the range
/// (or with extended alignment) fall through to operator new.
inline constexpr std::size_t kArenaMinBlock = 64;
inline constexpr std::size_t kArenaMaxBlock = 64 * 1024;

/// Allocation stats, for benches and tests (process-wide totals).
struct ArenaStats {
  std::uint64_t slab_bytes = 0;       // bytes reserved in slabs
  std::uint64_t slabs = 0;            // slab count
  /// Blocks handed from the central freelists to thread caches. Cache-warm
  /// allocations are served without touching this counter (the hot path is
  /// a thread-local pop), so this tracks refill traffic, not call volume.
  std::uint64_t arena_allocs = 0;
  std::uint64_t fallback_allocs = 0;  // requests routed to operator new
};

namespace detail {
void* arena_allocate(std::size_t bytes);
void arena_deallocate(void* p, std::size_t bytes);
bool arena_serves(std::size_t bytes, std::size_t alignment);
void arena_count_fallback();
}  // namespace detail

ArenaStats arena_stats();

/// Standard allocator over the thread-cached slab arena. Stateless: any
/// instance can free any instance's blocks (all storage is process-wide),
/// so containers move freely across threads.
template <typename T>
struct ArenaAllocator {
  using value_type = T;

  ArenaAllocator() noexcept = default;
  template <typename U>
  ArenaAllocator(const ArenaAllocator<U>&) noexcept {}  // NOLINT

  T* allocate(std::size_t n) {
    const std::size_t bytes = n * sizeof(T);
    if (detail::arena_serves(bytes, alignof(T))) {
      return static_cast<T*>(detail::arena_allocate(bytes));
    }
    detail::arena_count_fallback();
    return static_cast<T*>(::operator new(bytes));
  }

  void deallocate(T* p, std::size_t n) noexcept {
    const std::size_t bytes = n * sizeof(T);
    if (detail::arena_serves(bytes, alignof(T))) {
      detail::arena_deallocate(p, bytes);
      return;
    }
    ::operator delete(p);
  }

  friend bool operator==(const ArenaAllocator&, const ArenaAllocator&) {
    return true;
  }
};

/// The factory for refcounted page payloads (and any other shared hot-path
/// object): control block + object in one arena block via allocate_shared.
/// tools/lint.sh bans make_shared/make_unique of payload/node types outside
/// this header so per-page heap traffic cannot creep back in.
template <typename T, typename... Args>
std::shared_ptr<T> arena_make_shared(Args&&... args) {
  return std::allocate_shared<T>(ArenaAllocator<T>{},
                                 std::forward<Args>(args)...);
}

}  // namespace nlc::util
