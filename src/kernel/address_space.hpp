// Simulated process address space: VMAs, 4 KiB pages, soft-dirty tracking.
//
// Two kinds of pages coexist (DESIGN.md §5.3):
//  * content pages — written through write(); carry real bytes that the
//    checkpoint engine captures, so end-to-end consistency is observable;
//  * accounting pages — dirtied through touch(); carry only a version
//    stamp. They cost a full kPageSize on the wire like real pages but do
//    not occupy 4 KiB of simulator RAM, which keeps 100K-page working sets
//    cheap.
//
// Page payloads are immutable refcounted buffers (DESIGN.md §7): content()
// hands out a shared handle, and the whole checkpoint pipeline (harvest ->
// image -> wire -> page store -> restore) passes that handle around instead
// of deep-copying 4 KiB per stage. write() copies-on-write only when the
// payload is shared, so a post-thaw write can never mutate bytes already
// captured in an in-flight or committed checkpoint image.
//
// The page table is per VMA, like /proc/pid/pagemap: each VMA owns a
// directory of 512-page leaves, allocated on first use, and a page's state
// is found by a binary search over the start-sorted VMAs plus an index
// (DESIGN.md §12).
//
// Soft-dirty tracking mirrors Linux's /proc/pid/clear_refs + pagemap
// protocol: clear_soft_dirty() arms tracking and clears the bits, which
// live in a per-leaf bitmap; for_each_dirty() walks the set a pagemap scan
// would report, in page order. The *cost* of the scan (per mapped page) is
// charged by the checkpoint engine, not here.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "kernel/ids.hpp"
#include "util/arena.hpp"
#include "util/bytes.hpp"

namespace nlc::kern {

/// One page's content bytes (always kPageSize once materialized). The
/// buffer rides the slab arena (util/arena.hpp, DESIGN.md §12): every
/// materialization and COW clone pulls a recycled 4 KiB block from the
/// allocating thread's cache instead of the heap.
using PageBytes = std::vector<std::byte, util::ArenaAllocator<std::byte>>;
/// Immutable shared handle to a page payload; the unit the checkpoint
/// pipeline passes instead of copies. Null for accounting pages.
using PagePayload = std::shared_ptr<const PageBytes>;

enum class VmaKind : std::uint8_t {
  kAnon,      // heap / anonymous mmap
  kStack,
  kFileMap,   // memory-mapped file (e.g. a dynamically linked library)
  kShared,    // shared memory region (parasite <-> agent channel)
};

struct Vma {
  std::uint64_t id = 0;
  PageNum start = 0;        // first page number
  std::uint64_t npages = 0;
  VmaKind kind = VmaKind::kAnon;
  std::string backing_file;  // for kFileMap
  std::uint64_t version = 0; // bumped when the mapping itself changes

  PageNum end() const { return start + npages; }
  bool contains(PageNum p) const { return p >= start && p < end(); }
};

class AddressSpace {
 public:
  /// Per-page resident state: monotone version plus the (possibly null)
  /// content payload. A page is resident iff its version is non-zero.
  /// Exposed so the checkpoint engine reads a page's version and payload
  /// from one slot instead of separate version/content probes. The
  /// soft-dirty bit lives in the leaf's bitmap, not here (24 bytes a page).
  struct PageState {
    std::uint64_t version = 0;
    std::shared_ptr<PageBytes> payload;  // null for accounting pages
  };

  /// Maps a new VMA of `npages`; returns its descriptor. Page numbers are
  /// allocated from a monotone bump allocator (no reuse; simulated
  /// processes are short-lived enough).
  Vma map(std::uint64_t npages, VmaKind kind,
          std::string backing_file = {});

  /// Unmaps the VMA with id `vma_id` (drops its pages and content).
  void unmap(std::uint64_t vma_id);

  /// Restore path: recreates a VMA at its checkpointed page range so page
  /// numbers keep their identity across failover.
  void install_vma(const Vma& v);

  /// Moves the allocation cursor to at least `base`. The kernel gives each
  /// process a disjoint page-number range (pid-keyed) so page numbers are
  /// globally unique within a host — required for container-wide page
  /// images.
  void set_page_base(PageNum base) {
    if (next_page_ < base) next_page_ = base;
  }

  const std::vector<Vma>& vmas() const { return vmas_; }
  const Vma* find_vma(std::uint64_t vma_id) const;

  std::uint64_t mapped_pages() const { return mapped_pages_; }
  std::uint64_t mapped_bytes() const { return mapped_pages_ * kPageSize; }

  /// Dirties `page` without content. Returns true if the page transitioned
  /// clean->dirty under tracking (i.e. a soft-dirty write fault occurred,
  /// which costs runtime overhead).
  bool touch(PageNum page);

  /// Dirties `count` pages starting at `start`; returns the number of
  /// clean->dirty transitions (write faults).
  std::uint64_t touch_range(PageNum start, std::uint64_t count);

  /// Content write within one page; dirties it. Returns true on a write
  /// fault (as touch()). Clones the payload first iff a checkpoint handle
  /// to it is still live (copy-on-write).
  bool write(PageNum page, std::uint32_t offset, std::span<const std::byte> data);

  /// Reads content previously written to `page`. Unwritten bytes read as 0.
  std::vector<std::byte> read(PageNum page, std::uint32_t offset,
                              std::uint32_t len) const;

  /// Full-page content handle for the checkpoint engine; null for
  /// accounting pages (no stored bytes). The returned payload is immutable:
  /// holding it pins the bytes as of this call regardless of later writes.
  PagePayload content(PageNum page) const;

  /// Installs page content wholesale (restore path). Zero-copy: adopts the
  /// shared payload; a later write() clones before mutating while the
  /// source image still holds the handle.
  void install_content(PageNum page, PagePayload data);

  /// Arms soft-dirty tracking and clears all soft-dirty bits
  /// (/proc/pid/clear_refs). Idempotent.
  void clear_soft_dirty();

  /// Disables tracking (stock execution: no write-fault overhead).
  void disable_tracking();

  bool tracking() const { return tracking_; }

  /// Number of pages dirtied since the last clear_soft_dirty().
  std::uint64_t dirty_count() const { return dirty_count_; }

  /// Calls f(page, state) for every page dirtied since the last
  /// clear_soft_dirty(), each once, in ascending page order: the
  /// incremental harvest's walk, so its image needs no sort. Leaves with
  /// no dirty page are skipped on their count alone.
  template <typename F>
  void for_each_dirty(F&& f) const {
    if (dirty_count_ == 0) return;
    for (std::size_t i = 0; i < vmas_.size(); ++i) {
      const Directory& dir = dirs_[i];
      for (std::uint64_t l = 0; l < dir.size(); ++l) {
        const Leaf* leaf = dir[l].get();
        if (leaf == nullptr || leaf->dirty_count == 0) continue;
        const PageNum base = vmas_[i].start + l * kLeafPages;
        for (std::size_t w = 0; w < kMaskWords; ++w) {
          for (std::uint64_t bits = leaf->dirty_mask[w]; bits != 0;
               bits &= bits - 1) {
            const std::size_t s =
                w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
            f(base + s, leaf->slots[s]);
          }
        }
      }
    }
  }

  /// Calls f(page, state) for every resident page (ever touched, written
  /// or installed) in ascending page order. Full dumps walk this instead
  /// of probing every page of every VMA; unallocated leaves are skipped
  /// whole.
  template <typename F>
  void for_each_resident(F&& f) const {
    for (std::size_t i = 0; i < vmas_.size(); ++i) {
      const Vma& v = vmas_[i];
      const Directory& dir = dirs_[i];
      for (std::uint64_t l = 0; l < dir.size(); ++l) {
        if (!dir[l]) continue;
        const std::uint64_t base = l * kLeafPages;
        const std::uint64_t n = std::min(kLeafPages, v.npages - base);
        for (std::uint64_t s = 0; s < n; ++s) {
          const PageState& st = dir[l]->slots[s];
          if (st.version != 0) f(v.start + base + s, st);
        }
      }
    }
  }

  /// Page-table leaves currently allocated (each covers kLeafPages pages
  /// of one VMA); a leaf is allocated by the first touch(), write() or
  /// install_content() to any of its pages. Counts by walking the
  /// directories, so it is for tests and diagnostics, not hot paths.
  std::uint64_t leaf_count() const;

  /// Per-page monotone version, for tests asserting incremental semantics.
  std::uint64_t page_version(PageNum page) const;

  /// Number of copy-on-write payload clones performed (a write hit a page
  /// whose payload was still referenced by a checkpoint image/store).
  std::uint64_t cow_clones() const { return cow_clones_; }

  /// Pages per page-table leaf (as in an x86-64 page table).
  static constexpr std::uint64_t kLeafPages = 512;

 private:
  /// 64-bit words in a leaf's soft-dirty bitmap.
  static constexpr std::size_t kMaskWords = kLeafPages / 64;

  /// One leaf of a VMA's page table: the states of kLeafPages consecutive
  /// pages behind their soft-dirty bitmap (slot s is bit s % 64 of word
  /// s / 64) and its population count, so a walk skips a clean leaf on
  /// its first cache line. Heap-allocated on first use and never moved
  /// until its VMA is unmapped, so state pointers into it stay valid.
  struct Leaf {
    std::uint64_t dirty_count = 0;
    std::array<std::uint64_t, kMaskWords> dirty_mask{};
    std::array<PageState, kLeafPages> slots;
  };
  /// A VMA's leaves, indexed by (page - start) / kLeafPages; null until a
  /// page in the leaf is first touched, written or installed.
  using Directory = std::vector<std::unique_ptr<Leaf>>;

  /// Inserts `v` at its start-sorted position with an empty directory.
  void insert_vma(Vma v);
  /// Position in vmas_ of the VMA containing `page`, or vmas_.size().
  std::size_t vma_index(PageNum page) const;
  /// The leaf holding a mapped page and the page's slot in it, allocating
  /// the leaf if needed. Throws on a page outside every VMA.
  std::pair<Leaf&, std::size_t> mapped_slot(PageNum page);
  /// The state slot of `page`, or null if it is unmapped or its leaf was
  /// never allocated. Never allocates.
  const PageState* slot(PageNum page) const;
  /// Sets slot `s`'s soft-dirty bit; returns true on the clean->dirty
  /// transition (a soft-dirty write fault).
  bool mark_dirty(Leaf& leaf, std::size_t s);
  /// Zeroes every leaf's soft-dirty bitmap.
  void clear_dirty_bits();

  /// Sorted by start; dirs_[i] is the page table of vmas_[i].
  std::vector<Vma> vmas_;
  std::vector<Directory> dirs_;
  std::uint64_t next_vma_id_ = 1;
  PageNum next_page_ = 0x1000;  // arbitrary non-zero base
  std::uint64_t mapped_pages_ = 0;
  bool tracking_ = false;
  std::uint64_t dirty_count_ = 0;  // sum of the leaves' dirty_count
  std::uint64_t cow_clones_ = 0;
};

}  // namespace nlc::kern
