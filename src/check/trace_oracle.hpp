// Stream ordering rules (DESIGN.md §11).
//
// Five commit orderings, checked over the recorded protocol event stream:
//
//   * output commit — an epoch's buffered output may be released only
//     after the primary saw that epoch's ack (release-before-ack is the
//     §IV violation NiLiCon exists to prevent);
//   * epoch commit — the backup may begin committing an epoch only after
//     that epoch's DRBD barrier arrived (commit-before-barrier would let a
//     failover restore memory state ahead of the disk);
//   * log-segment release (replay commit mode, DESIGN.md §14) — a
//     segment's buffered output may be released only after that segment's
//     log ack reached the primary (the HyCoR-style output-commit rule that
//     replaces the per-epoch one; epoch runs emit no log instants, replay
//     runs emit no epoch releases, so the rules never cross-fire);
//   * quorum release (N > 1, DESIGN.md §16) — with `quorum_k` replica
//     acks required per epoch, an epoch's release may fire only after K
//     kReplicaAck instants for that epoch or a later one (each replica
//     acks each epoch at most once and its acks are cumulative, so K acks
//     of one epoch are K replicas that committed everything up to it);
//   * promotion-before-resilver — a re-silver span can open only after
//     the arbiter recorded its kPromote instant (a survivor must never be
//     overwritten with full state before a winner has been elected).
//
// One rule object holds them. The live InvariantAuditor feeds it every
// emission the recorder keeps, as it happens; audit_trace_ordering() replays
// the same object over a drained (or hand-forged) stream. Event order is
// emission order — Recorder seq numbers in a drained stream — so a correct
// run always passes, and a reordered stream raises the same InvariantError
// live and in replay.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "trace/events.hpp"

namespace nlc::check {

struct TraceOrderStats {
  std::uint64_t release_checks = 0;  // release-after-ack orderings verified
  std::uint64_t commit_checks = 0;   // commit-after-barrier orderings verified
  /// Replay mode: segment-release-after-log-ack orderings verified.
  std::uint64_t log_release_checks = 0;
  /// N > 1: release-after-K-replica-acks orderings verified.
  std::uint64_t quorum_release_checks = 0;
  /// N > 1: resilver-after-promotion orderings verified.
  std::uint64_t promotion_checks = 0;

  std::uint64_t total() const {
    return release_checks + commit_checks + log_release_checks +
           quorum_release_checks + promotion_checks;
  }
};

class OrderingRules {
 public:
  /// `quorum_k` is the run's resolved quorum size: when > 1 every epoch
  /// release is additionally checked against the per-epoch kReplicaAck
  /// count (two-node streams carry no kReplicaAck instants).
  explicit OrderingRules(int quorum_k = 1);

  /// Applies one recorded event; throws nlc::InvariantError on a violated
  /// ordering.
  void observe(const trace::Event& e);

  const TraceOrderStats& stats() const { return stats_; }

 private:
  int quorum_k_;
  TraceOrderStats stats_;
  // High-water marks mirror the live checkers' epoch-0 discipline: the
  // boolean, not the counter, distinguishes "epoch 0 done" from "nothing
  // yet" (epochs are 0-based).
  std::uint64_t acked_ = 0;
  bool any_ack_ = false;
  std::uint64_t barrier_ = 0;
  bool any_barrier_ = false;
  std::uint64_t log_acked_ = 0;
  bool any_log_ack_ = false;
  /// Newest epoch that collected K replica acks.
  std::uint64_t quorate_ = 0;
  bool any_quorate_ = false;
  /// Per-epoch kReplicaAck count for epochs above quorate_. Once an epoch
  /// reaches K the counts below it can no longer license anything, so the
  /// map holds only the epochs acked but not yet quorate — in replay mode
  /// too, where no epoch release ever retires them.
  std::map<std::uint64_t, int> replica_acks_;
  bool promoted_ = false;
};

/// Replays `events` (as drained from a trace::Recorder: sorted by seq)
/// through the ordering rules and returns the per-ordering check counts.
TraceOrderStats audit_trace_ordering(const std::vector<trace::Event>& events,
                                     int quorum_k = 1);

}  // namespace nlc::check
