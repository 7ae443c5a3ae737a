// Page-number sharding for the intra-epoch page pipeline (DESIGN.md §10).
//
// One epoch's dirty-page work — harvest record fill, delta encoding,
// backup-side radix fold — is partitioned into NLC_SHARDS independent
// shards so the stages can run on the shared util::WorkerPool. One shard
// runs the same code with no fan-out. Two partition schemes are used,
// both deterministic:
//
//  * by page number (shard_of): low-bit interleave, so a dense working set
//    spreads evenly. Used by the stages that keep per-page state across
//    epochs (delta reference maps, radix subtrees) — a page's shard is a
//    permanent home, which is what makes the per-shard structures
//    lock-free on the hot path.
//  * by contiguous index range (chunk bounds inside the stage): used by
//    the harvest fill, which streams over an already-ordered record
//    vector, so the chunks write disjoint slots of the same image.
//
// The merge/aggregation step of every stage folds per-shard results in
// shard-index order; all shipped bytes, visit counts and EpochDeltaStats
// are byte-identical for any shard count (tests/shard_determinism_test).
#pragma once

#include <cstdint>
#include <vector>

#include "criu/image.hpp"

namespace nlc::criu {

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
