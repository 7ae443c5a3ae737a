// Backup-side committed-page stores.
//
// Stock CRIU keeps incremental checkpoints as a linked list of directories;
// for every received page it walks the list to find and drop a previous
// copy, so per-page cost grows with the number of checkpoints taken — fatal
// at one checkpoint every 30 ms. NiLiCon replaces this with a four-level
// radix tree mimicking hardware page tables (§V-A), making the per-page
// cost constant. Both are implemented for the Table I ablation; store()
// returns the number of node/directory visits so the backup agent can
// charge simulated time per visit.
//
// Both stores are copyable through clone(): re-silvering a surviving
// replica installs a copy of the promoted winner's store (DESIGN.md §16).
// Records hold shared payload handles, so a copy takes records, never
// page bytes.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <new>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "criu/image.hpp"
#include "util/simd.hpp"

namespace nlc::criu {

class PageStore {
 public:
  virtual ~PageStore() = default;

  /// Opens a new incremental checkpoint (a new directory / generation).
  virtual void begin_checkpoint(std::uint64_t epoch) = 0;

  /// Inserts/overwrites one page; returns the number of structure visits
  /// performed (the unit the backup CPU cost model charges). Storing a
  /// record copies its shared payload handle, not the page bytes.
  virtual std::uint64_t store(const PageRecord& rec) = 0;

  /// Stores one epoch's records in image order; returns the visit total
  /// store()ing each of them would.
  virtual std::uint64_t store_batch(const std::vector<PageRecord>& recs) {
    std::uint64_t visits = 0;
    for (const PageRecord& rec : recs) visits += store(rec);
    return visits;
  }

  /// Latest committed copy of `page`, or nullptr.
  virtual const PageRecord* lookup(kern::PageNum page) const = 0;

  /// Number of distinct pages held.
  virtual std::uint64_t page_count() const = 0;

  /// All pages in ascending page order (restore walks this to materialize
  /// memory images). The pointers stay valid until the store is destroyed
  /// or the page is stored again.
  virtual std::vector<const PageRecord*> all_pages() const = 0;

  /// An independent copy holding the same records (payload handles shared,
  /// bytes not copied); storing into either leaves the other unchanged.
  virtual std::unique_ptr<PageStore> clone() const = 0;
};

/// Stock CRIU: linked list of per-checkpoint directories.
class ListPageStore final : public PageStore {
 public:
  void begin_checkpoint(std::uint64_t epoch) override {
    dirs_.push_back(Dir{epoch, {}});
  }

  std::uint64_t store(const PageRecord& rec) override {
    NLC_CHECK_MSG(!dirs_.empty(), "store before begin_checkpoint");
    // Walk earlier checkpoint directories newest-first looking for the
    // previous copy of this page to drop. At most one earlier directory
    // can hold it (every store drops the older copy), so the walk stops
    // at the first hit: the O(#checkpoints) behaviour of §V-A remains for
    // pages not stored recently (the walk reaches the oldest directory),
    // while a page rewritten every checkpoint costs a constant 2 visits.
    std::uint64_t visits = 0;
    auto last = std::prev(dirs_.end());
    for (auto it = std::make_reverse_iterator(last); it != dirs_.rend();
         ++it) {
      ++visits;
      if (it->pages.erase(rec.page) > 0) break;
    }
    ++visits;
    last->pages[rec.page] = rec;
    return visits;
  }

  const PageRecord* lookup(kern::PageNum page) const override {
    for (auto it = dirs_.rbegin(); it != dirs_.rend(); ++it) {
      auto p = it->pages.find(page);
      if (p != it->pages.end()) return &p->second;
    }
    return nullptr;
  }

  std::uint64_t page_count() const override {
    std::uint64_t n = 0;
    for (const auto& d : dirs_) n += d.pages.size();
    return n;
  }

  std::unique_ptr<PageStore> clone() const override {
    return std::make_unique<ListPageStore>(*this);
  }

  std::vector<const PageRecord*> all_pages() const override {
    std::vector<const PageRecord*> out;
    for (const auto& d : dirs_) {
      // NLC_LINT_OK(unordered-iter): hash-order collection; sorted below
      for (const auto& [num, rec] : d.pages) out.push_back(&rec);
    }
    // A page lives in at most one directory, so sorting by page number
    // yields one globally ascending walk — the same order RadixPageStore
    // produces — instead of leaking the hash order to restore and to every
    // store-equivalence mirror.
    std::sort(out.begin(), out.end(),
              [](const PageRecord* a, const PageRecord* b) {
                return a->page < b->page;
              });
    return out;
  }

 private:
  struct Dir {
    std::uint64_t epoch;
    std::unordered_map<kern::PageNum, PageRecord> pages;
  };
  std::list<Dir> dirs_;
};

/// NiLiCon: four-level radix tree, 2^9 fan-out per level (like x86-64 page
/// tables); constant kLevels modeled visits per store.
///
/// Layout (DESIGN.md §12). The leaves hold the committed PageRecords
/// themselves: 512 record slots in page order plus a 512-bit occupancy
/// mask. A slot's record is constructed by the first store to its page
/// and only occupied slots are ever copied or destroyed, so a fresh leaf
/// costs one 64-byte mask write, not 20 KiB of zeroing. Leaves are
/// heap-allocated one by one and never move, so the pointers lookup() and
/// all_pages() hand out stay valid across later stores to other pages.
/// The two interior levels are u32 child tables of 512 entries in one
/// vector; the level above them is keyed by the page number's remaining
/// high bits, kept sorted, so every 64-bit page number has its own slot
/// and all_pages() is one in-order walk.
///
/// The fold memoizes the leaf of the last stored page, so folding a
/// dense sorted range resolves ~1 level per page instead of walking all
/// 4. Modeled visit accounting stays the paper's constant kLevels per
/// store whatever the fold resolves.
class RadixPageStore final : public PageStore {
 public:
  RadixPageStore() = default;

  RadixPageStore(const RadixPageStore& other)
      : tops_(other.tops_), tables_(other.tables_), count_(other.count_) {
    leaves_.reserve(other.leaves_.size());
    for (const std::unique_ptr<Leaf>& leaf : other.leaves_) {
      leaves_.push_back(std::make_unique<Leaf>(*leaf));
    }
  }
  RadixPageStore& operator=(const RadixPageStore&) = delete;

  void begin_checkpoint(std::uint64_t /*epoch*/) override {}

  std::uint64_t store(const PageRecord& rec) override {
    count_ += put(leaf_for(rec.page), rec);
    return kLevels;
  }

  std::uint64_t store_batch(const std::vector<PageRecord>& recs) override {
    for (std::size_t k = 0; k < recs.size(); ++k) {
      // Records arrive page-sorted, so a record a few ahead usually lands
      // in the memoized leaf: pull its slot in while this one folds.
      if (k + kPrefetchAhead < recs.size()) {
        const kern::PageNum ahead = recs[k + kPrefetchAhead].page;
        if ((ahead >> kBits) == last_prefix_) {
          util::prefetch_read(last_leaf_->place(index_at(ahead, 0)));
        }
      }
      store(recs[k]);
    }
    return kLevels * recs.size();
  }

  const PageRecord* lookup(kern::PageNum page) const override {
    const Leaf* leaf = find_leaf(page);
    return leaf == nullptr ? nullptr : leaf->find(index_at(page, 0));
  }

  std::uint64_t page_count() const override { return count_; }

  std::vector<const PageRecord*> all_pages() const override {
    std::vector<const PageRecord*> out;
    out.reserve(count_);
    for (const Top& top : tops_) {
      for (std::size_t i2 = 0; i2 < kFanout; ++i2) {
        const std::uint32_t mid = tables_[slot_at(top.table, i2)];
        if (mid == kNil) continue;
        for (std::size_t i1 = 0; i1 < kFanout; ++i1) {
          const std::uint32_t l = tables_[slot_at(mid, i1)];
          if (l == kNil) continue;
          const Leaf& leaf = *leaves_[l];
          leaf.for_each([&](std::size_t i) { out.push_back(leaf.slot(i)); });
        }
      }
    }
    return out;
  }

  std::unique_ptr<PageStore> clone() const override {
    return std::make_unique<RadixPageStore>(*this);
  }

  static constexpr std::uint64_t kLevels = 4;

 private:
  static constexpr std::uint64_t kBits = 9;
  static constexpr std::size_t kFanout = 1u << kBits;
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;
  /// Records the inline fold looks ahead to prefetch a destination slot.
  static constexpr std::size_t kPrefetchAhead = 4;

  /// 512 committed records of consecutive pages, in page order.
  struct Leaf {
    /// Bit i set iff slot i holds a live record.
    std::array<std::uint64_t, kFanout / 64> used{};
    /// Raw storage: a record is constructed by the first store to its
    /// page and destroyed with the leaf.
    alignas(PageRecord) std::byte raw[kFanout * sizeof(PageRecord)];

    // User-provided, so even a value-initializing allocation leaves the
    // slots raw instead of zeroing 20 KiB per leaf.
    Leaf() noexcept {}
    Leaf(const Leaf& other) noexcept : used(other.used) {
      for_each([&](std::size_t i) {
        std::construct_at(place(i), *other.slot(i));
      });
    }
    Leaf& operator=(const Leaf&) = delete;
    ~Leaf() {
      for_each([&](std::size_t i) { std::destroy_at(slot(i)); });
    }

    bool occupied(std::size_t i) const {
      return ((used[i / 64] >> (i % 64)) & 1u) != 0;
    }
    PageRecord* place(std::size_t i) {
      return reinterpret_cast<PageRecord*>(raw + i * sizeof(PageRecord));
    }
    PageRecord* slot(std::size_t i) { return std::launder(place(i)); }
    const PageRecord* slot(std::size_t i) const {
      return std::launder(reinterpret_cast<const PageRecord*>(
          raw + i * sizeof(PageRecord)));
    }
    const PageRecord* find(std::size_t i) const {
      return occupied(i) ? slot(i) : nullptr;
    }
    /// f(i) for every occupied slot, ascending.
    template <typename F>
    void for_each(F&& f) const {
      for (std::size_t w = 0; w < used.size(); ++w) {
        for (std::uint64_t m = used[w]; m != 0; m &= m - 1) {
          f(w * 64 + static_cast<std::size_t>(std::countr_zero(m)));
        }
      }
    }
  };
  static_assert(std::is_nothrow_copy_constructible_v<PageRecord>,
                "Leaf's copy constructs records one by one and cannot unwind");

  /// One level-3 entry: the page numbers sharing `key` = page >> 27 hang
  /// off level-2 table `table`.
  struct Top {
    kern::PageNum key;
    std::uint32_t table;
  };

  static std::size_t index_at(kern::PageNum page, int level) {
    return static_cast<std::size_t>((page >> (kBits * level)) & (kFanout - 1));
  }
  static std::size_t slot_at(std::uint32_t table, std::size_t idx) {
    return static_cast<std::size_t>(table) * kFanout + idx;
  }

  /// Stores `rec` into its slot of `leaf`; returns 1 iff the page is new.
  static std::uint64_t put(Leaf& leaf, const PageRecord& rec) {
    const std::size_t i = index_at(rec.page, 0);
    std::uint64_t& word = leaf.used[i / 64];
    const std::uint64_t bit = std::uint64_t{1} << (i % 64);
    if ((word & bit) != 0) {
      *leaf.slot(i) = rec;
      return 0;
    }
    std::construct_at(leaf.place(i), rec);
    word |= bit;
    return 1;
  }

  /// Appends an all-nil interior table; returns its number.
  std::uint32_t new_table() {
    const auto t = static_cast<std::uint32_t>(tables_.size() / kFanout);
    tables_.resize(tables_.size() + kFanout, kNil);
    return t;
  }

  static kern::PageNum top_key(kern::PageNum page) {
    return page >> (3 * kBits);
  }
  /// The first level-3 entry whose key is not below `key`.
  std::vector<Top>::const_iterator top_pos(kern::PageNum key) const {
    return std::lower_bound(
        tops_.begin(), tops_.end(), key,
        [](const Top& t, kern::PageNum k) { return t.key < k; });
  }

  const Leaf* find_leaf(kern::PageNum page) const {
    const kern::PageNum key = top_key(page);
    const auto it = top_pos(key);
    if (it == tops_.end() || it->key != key) return nullptr;
    const std::uint32_t mid = it->table;
    const std::uint32_t low = tables_[slot_at(mid, index_at(page, 2))];
    if (low == kNil) return nullptr;
    const std::uint32_t l = tables_[slot_at(low, index_at(page, 1))];
    return l == kNil ? nullptr : leaves_[l].get();
  }

  /// The leaf of `page`, created with its path if absent. Memoized on the
  /// last page's leaf; leaves never move, so the memo never dangles.
  Leaf& leaf_for(kern::PageNum page) {
    const kern::PageNum prefix = page >> kBits;
    if (prefix == last_prefix_) return *last_leaf_;
    const kern::PageNum key = top_key(page);
    auto it = top_pos(key);
    if (it == tops_.end() || it->key != key) {
      it = tops_.insert(it, Top{key, new_table()});
    }
    // Indices, not references: new_table() may grow tables_.
    const std::size_t at2 = slot_at(it->table, index_at(page, 2));
    if (tables_[at2] == kNil) {
      const std::uint32_t t = new_table();
      tables_[at2] = t;
    }
    const std::size_t at1 = slot_at(tables_[at2], index_at(page, 1));
    if (tables_[at1] == kNil) {
      tables_[at1] = static_cast<std::uint32_t>(leaves_.size());
      leaves_.push_back(std::make_unique<Leaf>());
    }
    last_leaf_ = leaves_[tables_[at1]].get();
    last_prefix_ = prefix;
    return *last_leaf_;
  }

  /// Level 3, sorted by key.
  std::vector<Top> tops_;
  /// Levels 2 and 1: kFanout entries per table. A level-2 entry names a
  /// level-1 table, a level-1 entry a leaf in leaves_; kNil if absent.
  std::vector<std::uint32_t> tables_;
  std::vector<std::unique_ptr<Leaf>> leaves_;
  std::uint64_t count_ = 0;
  /// Fold memo: the leaf of the last stored page and its page >> 9. A copy
  /// starts without one.
  Leaf* last_leaf_ = nullptr;
  kern::PageNum last_prefix_ = ~kern::PageNum{0};
};

}  // namespace nlc::criu
