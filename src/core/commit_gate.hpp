// K-of-N output commit (DESIGN.md §16): the one release rule behind every
// buffered-output path.
//
// NiLiCon releases epoch k's output once the backup acks epoch k (§IV);
// HyCoR does the same for a replay-log segment. With N replicas both are
// one rule over per-replica cursors: a position commits once K replicas
// have acked it or something later, i.e. once the K-th largest cursor
// reaches it. A cursor is empty until its replica's first ack, so "acked
// 0" and "no ack yet" differ. ack() runs in the caller's scheduler step
// and returns exactly the positions that ack committed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "util/assert.hpp"

namespace nlc::core {

class CommitGate {
 public:
  /// The positions one ack made quorate, [begin, end) = (prev, q]; empty
  /// when the ack left the quorum cursor where it was.
  struct Advance {
    std::uint64_t begin = 0;
    std::uint64_t end = 0;
    bool empty() const { return begin == end; }
  };

  CommitGate(std::size_t replicas, int k)
      : cursors_(replicas), k_(static_cast<std::size_t>(k)) {
    NLC_CHECK_MSG(k >= 1 && k_ <= replicas,
                  "quorum K must lie in 1..replicas");
  }

  /// Replica `r` acked `pos`; each replica's acks must be monotone.
  Advance ack(std::size_t r, std::uint64_t pos) {
    std::optional<std::uint64_t>& cur = cursors_.at(r);
    NLC_CHECK_MSG(!cur || pos >= *cur, "acks must be monotone");
    cur = pos;
    const std::optional<std::uint64_t> q = kth_largest();
    if (!q || (quorum_ && *q == *quorum_)) return {};
    const Advance adv{quorum_ ? *quorum_ + 1 : 0, *q + 1};
    quorum_ = q;
    return adv;
  }

  /// The quorum cursor: the K-th largest replica cursor, empty until K
  /// replicas have acked.
  std::optional<std::uint64_t> quorum() const { return quorum_; }
  /// Whether `pos` is committed.
  bool quorate(std::uint64_t pos) const { return quorum_ && *quorum_ >= pos; }
  /// Replica `r`'s cursor: its newest ack, empty before its first.
  std::optional<std::uint64_t> cursor(std::size_t r) const {
    return cursors_.at(r);
  }

 private:
  /// The largest acked position that at least K cursors have reached.
  /// N is a handful of replicas, so counting beats sorting a copy.
  std::optional<std::uint64_t> kth_largest() const {
    std::optional<std::uint64_t> q;
    for (const std::optional<std::uint64_t>& c : cursors_) {
      if (!c || (q && *c <= *q)) continue;
      std::size_t reached = 0;
      for (const std::optional<std::uint64_t>& d : cursors_) {
        reached += d && *d >= *c ? 1 : 0;
      }
      if (reached >= k_) q = c;
    }
    return q;
  }

  std::vector<std::optional<std::uint64_t>> cursors_;
  std::size_t k_;
  std::optional<std::uint64_t> quorum_;
};

}  // namespace nlc::core
