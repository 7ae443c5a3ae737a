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
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>
#include <list>
#include <memory>
#include <unordered_map>

#include "criu/image.hpp"
#include "criu/shard.hpp"
#include "util/arena.hpp"
#include "util/simd.hpp"
#include "util/worker_pool.hpp"

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

  /// Latest committed copy of `page`, or nullptr.
  virtual const PageRecord* lookup(kern::PageNum page) const = 0;

  /// Number of distinct pages held.
  virtual std::uint64_t page_count() const = 0;

  /// All pages (restore walks this to materialize memory images).
  virtual std::vector<const PageRecord*> all_pages() const = 0;
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
/// tables); constant 4 modeled visits per store.
///
/// The tree is a forest of independent subtrees, one per page-number shard
/// (shard_of, DESIGN.md §10). store() and store_batch() only touch the
/// owning shard's subtree and counters, so a large epoch fold fans out
/// across the worker pool with no locks on the hot path. Modeled visit
/// accounting stays the paper's constant kLevels per store for every
/// shard count; internally each shard memoizes the leaf directory of the
/// last stored page, so folding a dense sorted range resolves ~1 level per
/// page instead of walking all 4.
///
/// Memory layout (DESIGN.md §12): nodes are 4-byte headers in one dense
/// per-shard vector; each node's 512 child/leaf slots are 32-bit indices in
/// one contiguous per-shard slot table (arena-backed), and the PageRecords
/// themselves live in a per-shard arena-backed deque — stable addresses for
/// lookup()/all_pages(), no per-page heap allocation anywhere, and a fold
/// or walk touches a handful of dense arrays instead of chasing 8 KiB
/// heap-scattered nodes.
class RadixPageStore final : public PageStore {
 public:
  explicit RadixPageStore(int shards = 1)
      : shards_(static_cast<std::size_t>(shards < 1 ? 1 : shards)) {
    for (Shard& sh : shards_) sh.root = new_node(sh);
  }

  int shards() const { return static_cast<int>(shards_.size()); }

  void begin_checkpoint(std::uint64_t /*epoch*/) override {}

  std::uint64_t store(const PageRecord& rec) override {
    return store_into(shards_[shard_of(rec.page, shards())], rec);
  }

  /// Folds one epoch's records, fanning the per-shard work out on `pool`
  /// for a batch of kFanOutMinPages records or more (null or a smaller
  /// batch = inline shard loop). Produces exactly the state and modeled
  /// visit total that store()ing every record in image order would.
  std::uint64_t store_batch(const std::vector<PageRecord>& recs,
                            util::WorkerPool* pool) {
    // A fold of zero or one record skips the shard plan and the pool
    // dispatch; the backup commits many such epochs.
    if (recs.size() < 2) {
      std::uint64_t visits = 0;
      for (const PageRecord& r : recs) visits += store(r);
      return visits;
    }
    ShardPlan plan = ShardPlan::build(recs, shards());
    auto fold_one = [&](std::size_t s) {
      Shard& sh = shards_[s];
      const std::vector<std::uint32_t>& bucket = plan.buckets[s];
      for (std::size_t k = 0; k < bucket.size(); ++k) {
        // The bucket is a contiguous index list, so the walk itself is a
        // linear scan; pull the next record (and its payload handle) while
        // this one folds.
        if (k + 1 < bucket.size()) {
          util::prefetch_read(&recs[bucket[k + 1]]);
        }
        store_into(sh, recs[bucket[k]]);
      }
    };
    pool = fan_out_pool(pool, recs.size());
    if (pool != nullptr) {
      pool->run(shards_.size(), fold_one);
    } else {
      for (std::size_t s = 0; s < shards_.size(); ++s) fold_one(s);
    }
    return kLevels * recs.size();
  }

  const PageRecord* lookup(kern::PageNum page) const override {
    const Shard& sh = shards_[shard_of(page, shards())];
    std::uint32_t node = sh.root;
    for (int level = 3; level >= 1; --level) {
      node = sh.slot(sh.nodes[node].table, index_at(page, level));
      if (node == kNil) return nullptr;
    }
    const std::uint32_t rec = sh.slot(sh.nodes[node].table, index_at(page, 0));
    return rec == kNil ? nullptr : &sh.records[rec];
  }

  std::uint64_t page_count() const override {
    std::uint64_t n = 0;
    for (const Shard& sh : shards_) n += sh.count;
    return n;
  }

  std::vector<const PageRecord*> all_pages() const override {
    // Deterministic merge: each shard's walk is ascending by page number;
    // a k-way merge yields one globally ascending order for any shard
    // count.
    std::vector<std::vector<const PageRecord*>> per(shards_.size());
    std::size_t total = 0;
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      per[s].reserve(shards_[s].count);
      collect(shards_[s], shards_[s].root, 3, per[s]);
      total += per[s].size();
    }
    std::vector<const PageRecord*> out;
    out.reserve(total);
    std::vector<std::size_t> cur(per.size(), 0);
    while (out.size() < total) {
      std::size_t best = per.size();
      for (std::size_t s = 0; s < per.size(); ++s) {
        if (cur[s] == per[s].size()) continue;
        if (best == per.size() ||
            per[s][cur[s]]->page < per[best][cur[best]]->page) {
          best = s;
        }
      }
      out.push_back(per[best][cur[best]++]);
    }
    return out;
  }

  static constexpr std::uint64_t kLevels = 4;

 private:
  static constexpr std::uint64_t kBits = 9;
  static constexpr std::size_t kFanout = 1u << kBits;
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;

  /// Node header. The 512 child (interior) or record (leaf) slots are u32
  /// indices at offset table * kFanout of the owning shard's slot array —
  /// half the footprint of 64-bit pointers, and dense. The header itself
  /// must stay within one cache line (ISSUE 6 satellite).
  struct Node {
    std::uint32_t table = kNil;
  };
  static_assert(sizeof(Node) <= 64, "radix node header must fit a cache line");

  struct Shard {
    /// Dense node headers; element 0..root created at construction.
    std::vector<Node, util::ArenaAllocator<Node>> nodes;
    /// All slot tables, kFanout entries per node, arena-backed.
    std::vector<std::uint32_t, util::ArenaAllocator<std::uint32_t>> slots;
    /// Committed records; deque keeps addresses stable across growth while
    /// drawing its blocks from the arena.
    std::deque<PageRecord, util::ArenaAllocator<PageRecord>> records;
    std::uint32_t root = kNil;
    std::uint64_t count = 0;
    /// Fold fast path: leaf directory of the last stored page and its
    /// page-number prefix (node indices never move, so the memo stays
    /// valid for the store's lifetime).
    std::uint32_t last_leaf = kNil;
    kern::PageNum last_prefix = ~0ull;

    std::uint32_t slot(std::uint32_t table, std::size_t idx) const {
      return slots[static_cast<std::size_t>(table) * kFanout + idx];
    }
    void set_slot(std::uint32_t table, std::size_t idx, std::uint32_t v) {
      slots[static_cast<std::size_t>(table) * kFanout + idx] = v;
    }
  };

  /// Appends a node with a fresh all-nil slot table; returns its index.
  static std::uint32_t new_node(Shard& sh) {
    const auto table =
        static_cast<std::uint32_t>(sh.slots.size() / kFanout);
    sh.slots.resize(sh.slots.size() + kFanout, kNil);
    sh.nodes.push_back(Node{table});
    return static_cast<std::uint32_t>(sh.nodes.size() - 1);
  }

  std::uint64_t store_into(Shard& sh, const PageRecord& rec) {
    const kern::PageNum prefix = rec.page >> kBits;
    std::uint32_t leaf;
    if (sh.last_leaf != kNil && prefix == sh.last_prefix) {
      leaf = sh.last_leaf;
    } else {
      std::uint32_t node = sh.root;
      for (int level = 3; level >= 1; --level) {
        const std::size_t idx = index_at(rec.page, level);
        std::uint32_t child = sh.slot(sh.nodes[node].table, idx);
        if (child == kNil) {
          child = new_node(sh);
          sh.set_slot(sh.nodes[node].table, idx, child);
        }
        node = child;
      }
      leaf = node;
      sh.last_leaf = leaf;
      sh.last_prefix = prefix;
    }
    const std::size_t idx = index_at(rec.page, 0);
    const std::uint32_t slot = sh.slot(sh.nodes[leaf].table, idx);
    if (slot == kNil) {
      sh.set_slot(sh.nodes[leaf].table, idx,
                  static_cast<std::uint32_t>(sh.records.size()));
      sh.records.push_back(rec);
      ++sh.count;
    } else {
      sh.records[slot] = rec;
    }
    // The paper's cost model charges the full level walk per store; the
    // memoized walk is a wall-clock optimization, not a model change.
    return kLevels;
  }

  static std::size_t index_at(kern::PageNum page, int level) {
    return static_cast<std::size_t>((page >> (kBits * level)) & (kFanout - 1));
  }

  static void collect(const Shard& sh, std::uint32_t node, int level,
                      std::vector<const PageRecord*>& out) {
    const std::uint32_t table = sh.nodes[node].table;
    if (level == 0) {
      for (std::size_t i = 0; i < kFanout; ++i) {
        const std::uint32_t rec = sh.slot(table, i);
        if (rec != kNil) out.push_back(&sh.records[rec]);
      }
      return;
    }
    for (std::size_t i = 0; i < kFanout; ++i) {
      const std::uint32_t child = sh.slot(table, i);
      if (child != kNil) collect(sh, child, level - 1, out);
    }
  }

  std::vector<Shard> shards_;
};

}  // namespace nlc::criu
