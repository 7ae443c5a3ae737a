// Page-number sharding for the intra-epoch page pipeline (DESIGN.md §10).
//
// One epoch's dirty-page work — harvest record fill, delta encoding,
// backup-side radix fold — is partitioned into NLC_SHARDS independent
// shards. The count sets the partition; whether a stage hands its shards
// to the shared util::WorkerPool is a separate rule, fan_out_pool():
// a batch of kFanOutMinPages pages or more fans out, a smaller one runs
// in order on the calling thread. Three partition schemes are used, all
// deterministic:
//
//  * by page number (shard_of(page)): low-bit interleave, so a dense
//    working set spreads evenly. Used by the delta codec, which keeps
//    per-page reference maps across epochs — a page's shard is a
//    permanent home, which is what makes the per-shard maps lock-free on
//    the hot path.
//  * by radix leaf (shard_of(page >> 9)): the backup's RadixPageStore is
//    one tree whose leaves hold 512 pages' records; a fanned-out fold
//    resolves every leaf on the caller first, then each shard writes only
//    the leaves it owns.
//  * by contiguous index range (chunk bounds inside the stage): used by
//    the harvest fill, which streams over an already-ordered record
//    vector, so the chunks write disjoint slots of the same image.
//
// The merge/aggregation step of every stage folds per-shard results in
// shard-index order; all shipped bytes, visit counts and EpochDeltaStats
// are byte-identical for any shard count and on either side of the gate
// (tests/shard_determinism_test).
#pragma once

#include <cstdint>
#include <vector>

#include "criu/image.hpp"

namespace nlc::util {
class WorkerPool;
}  // namespace nlc::util

namespace nlc::criu {

/// Smallest batch, in pages, that a page stage hands to its worker pool.
/// A NiLiCon epoch's dirty set is far smaller (the paper's Table III runs
/// from ~50 to ~6K pages at 30 ms epochs): waking the helpers and waiting
/// for them costs more than such a batch saves, so those batches run on
/// the caller. From here up the fan-out pays (DESIGN.md §10).
inline constexpr std::size_t kFanOutMinPages = 16384;

/// The pool a stage of `pages` pages runs its shards on: `pool` from
/// kFanOutMinPages pages up, null (the shards in order on the caller)
/// below. Only the thread changes, never the partition or the output.
inline util::WorkerPool* fan_out_pool(util::WorkerPool* pool,
                                      std::size_t pages) {
  return pages >= kFanOutMinPages ? pool : nullptr;
}

/// Deterministic page → shard mapping (low-bit interleave).
inline std::size_t shard_of(kern::PageNum page, int nshards) {
  return static_cast<std::size_t>(page %
                                  static_cast<kern::PageNum>(nshards));
}

/// Index partition of one epoch's page records by shard_of(), preserving
/// the image (ascending page) order within each bucket.
struct ShardPlan {
  std::vector<std::vector<std::uint32_t>> buckets;

  static ShardPlan build(const std::vector<PageRecord>& pages, int nshards) {
    ShardPlan plan;
    plan.buckets.resize(static_cast<std::size_t>(nshards < 1 ? 1 : nshards));
    // Presize: an even split is the common case (interleaved numbering).
    std::size_t guess = pages.size() / plan.buckets.size() + 1;
    for (auto& b : plan.buckets) b.reserve(guess);
    for (std::uint32_t i = 0; i < pages.size(); ++i) {
      plan.buckets[shard_of(pages[i].page, nshards)].push_back(i);
    }
    return plan;
  }
};

}  // namespace nlc::criu
