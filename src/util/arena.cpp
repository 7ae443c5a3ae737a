#include "util/arena.hpp"

#include <atomic>
#include <bit>
#include <mutex>
#include <vector>

namespace nlc::util {

namespace {

constexpr std::size_t kMinShift = std::bit_width(kArenaMinBlock) - 1;  // 6
constexpr std::size_t kMaxShift = std::bit_width(kArenaMaxBlock) - 1;  // 16
constexpr std::size_t kClasses = kMaxShift - kMinShift + 1;

/// Bytes per slab: every class carves at least four blocks from one.
constexpr std::size_t kSlabBytes = 256 * 1024;
static_assert(kSlabBytes >= 4 * kArenaMaxBlock);

/// Blocks moved between a thread cache and the central freelist per
/// refill/spill, and the cache's high-water mark per class.
constexpr std::size_t kBatch = 32;
constexpr std::size_t kCacheCap = 2 * kBatch;

std::size_t class_of(std::size_t bytes) {
  const std::size_t rounded =
      bytes <= kArenaMinBlock ? kArenaMinBlock : std::bit_ceil(bytes);
  return (std::bit_width(rounded) - 1) - kMinShift;
}

std::size_t class_bytes(std::size_t cls) { return kArenaMinBlock << cls; }

/// Process-wide slab owner + central freelists. Constructed on first use
/// and never destroyed: a thread cache can outlive any static destruction
/// order (the helpers of a WorkerPool static built before the arena exit
/// inside the pool's destructor, after the arena's), and each cache spills
/// into the arena when its thread exits. The slabs go back to the OS with
/// the process.
class Arena {
 public:
  static Arena& instance() {
    // A union never runs its member's destructor unless told to.
    union Immortal {
      Arena arena;
      Immortal() : arena() {}
      ~Immortal() {}
    };
    static Immortal holder;
    return holder.arena;
  }

  /// Moves up to kBatch blocks of `cls` into `out`; carves a fresh slab
  /// when the central list is empty.
  void refill(std::size_t cls, std::vector<void*>& out) {
    std::lock_guard<std::mutex> lock(m_);
    auto& central = central_[cls];
    if (central.empty()) carve_slab(cls);
    const std::size_t take = central.size() < kBatch ? central.size() : kBatch;
    out.insert(out.end(), central.end() - static_cast<std::ptrdiff_t>(take),
               central.end());
    central.resize(central.size() - take);
    arena_allocs_.fetch_add(take, std::memory_order_relaxed);
  }

  /// Returns `blocks` of `cls` to the central freelist.
  void spill(std::size_t cls, std::vector<void*>& blocks, std::size_t keep) {
    std::lock_guard<std::mutex> lock(m_);
    auto& central = central_[cls];
    central.insert(central.end(), blocks.begin() + static_cast<std::ptrdiff_t>(keep),
                   blocks.end());
    blocks.resize(keep);
  }

  ArenaStats stats() const {
    std::lock_guard<std::mutex> lock(m_);
    ArenaStats s;
    s.slab_bytes = slab_bytes_;
    s.slabs = slabs_.size();
    s.arena_allocs = arena_allocs_.load(std::memory_order_relaxed);
    s.fallback_allocs = fallback_allocs_.load(std::memory_order_relaxed);
    return s;
  }

  void count_fallback() {
    fallback_allocs_.fetch_add(1, std::memory_order_relaxed);
  }

 private:
  void carve_slab(std::size_t cls) {
    const std::size_t bsz = class_bytes(cls);
    auto mem = std::make_unique<std::byte[]>(kSlabBytes);
    std::byte* base = mem.get();
    auto& central = central_[cls];
    for (std::size_t off = 0; off + bsz <= kSlabBytes; off += bsz) {
      central.push_back(base + off);
    }
    slab_bytes_ += kSlabBytes;
    slabs_.push_back(std::move(mem));
  }

  mutable std::mutex m_;
  std::vector<std::unique_ptr<std::byte[]>> slabs_;
  std::vector<void*> central_[kClasses];
  std::uint64_t slab_bytes_ = 0;
  std::atomic<std::uint64_t> arena_allocs_{0};
  std::atomic<std::uint64_t> fallback_allocs_{0};
};

/// Per-thread block cache. The arena is never destroyed, so the destructor
/// (thread exit / process exit) can always flush into it.
class ThreadCache {
 public:
  ThreadCache() : arena_(&Arena::instance()) {}

  ~ThreadCache() {
    for (std::size_t cls = 0; cls < kClasses; ++cls) {
      if (!free_[cls].empty()) arena_->spill(cls, free_[cls], 0);
    }
  }

  void* allocate(std::size_t cls) {
    auto& cache = free_[cls];
    if (cache.empty()) arena_->refill(cls, cache);
    void* p = cache.back();
    cache.pop_back();
    return p;
  }

  void deallocate(std::size_t cls, void* p) {
    auto& cache = free_[cls];
    cache.push_back(p);
    if (cache.size() > kCacheCap) arena_->spill(cls, cache, kBatch);
  }

 private:
  Arena* arena_;
  std::vector<void*> free_[kClasses];
};

ThreadCache& local_cache() {
  thread_local ThreadCache cache;
  return cache;
}

}  // namespace

namespace detail {

bool arena_serves(std::size_t bytes, std::size_t alignment) {
  return bytes <= kArenaMaxBlock && alignment <= alignof(std::max_align_t);
}

void* arena_allocate(std::size_t bytes) {
  return local_cache().allocate(class_of(bytes));
}

void arena_deallocate(void* p, std::size_t bytes) {
  local_cache().deallocate(class_of(bytes), p);
}

void arena_count_fallback() { Arena::instance().count_fallback(); }

}  // namespace detail

ArenaStats arena_stats() { return Arena::instance().stats(); }

}  // namespace nlc::util
