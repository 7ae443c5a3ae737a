// Invariant checkers for the NiLiCon replication protocol.
//
// Each class audits one of the paper's correctness properties from a
// stream of observation events (fed by the InvariantAuditor in audit.hpp
// from the protocol event stream, or directly by tests). They keep their own mirror of the protocol state
// they audit — the point is to catch the real components lying, so nothing
// here trusts a component's own bookkeeping. A violated invariant throws
// InvariantError via NLC_CHECK; a clean run only bumps check counters.
//
// The checkers are deliberately free of simulation/cluster dependencies so
// negative tests can drive a violation in a few lines.
#pragma once

#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/protocol.hpp"
#include "criu/delta.hpp"
#include "criu/image.hpp"
#include "criu/pagestore.hpp"
#include "kernel/address_space.hpp"
#include "util/assert.hpp"

namespace nlc::check {

/// FNV-1a fingerprint of a page payload — the freeze stamp the COW audit
/// compares against.
std::uint64_t fnv1a_page(const kern::PageBytes& bytes);

/// Counters the auditor reports after a run (one per invariant family).
struct AuditStats {
  std::uint64_t output_commit_checks = 0;
  std::uint64_t epoch_commit_checks = 0;
  std::uint64_t payload_pins = 0;
  std::uint64_t payload_verifications = 0;
  std::uint64_t store_equivalence_checks = 0;
  std::uint64_t delta_replay_checks = 0;
  std::uint64_t restore_equivalence_checks = 0;
  /// Replay commit mode (DESIGN.md §14): event-chain continuity, checkpoint
  /// stamps, backup accept decisions and failover replay re-verified
  /// against independent primary/backup chain mirrors.
  std::uint64_t replay_equivalence_checks = 0;
  std::uint64_t sweeps = 0;
  /// Stream orderings verified by the ordering rules (trace_oracle.hpp),
  /// live, over the emissions the flight recorder keeps.
  std::uint64_t trace_order_checks = 0;
  /// N-way quorum replication (DESIGN.md §16): per-replica cursor
  /// monotonicity, quorum-cursor re-derivation, K-of-N release gating and
  /// the promotion decision.
  std::uint64_t quorum_checks = 0;

  std::uint64_t total() const {
    return output_commit_checks + epoch_commit_checks +
           payload_verifications + store_equivalence_checks +
           delta_replay_checks + restore_equivalence_checks +
           replay_equivalence_checks + trace_order_checks + quorum_checks;
  }
};

/// §IV output commit, per packet: buffered output of epoch k may reach the
/// wire only after the backup acknowledged epoch k. Mirrors the plug
/// buffer as (epoch, marker, packet-count) segments and checks every
/// release against the newest ack the primary received.
class OutputCommitChecker {
 public:
  static constexpr std::uint64_t kAnyEpoch =
      std::numeric_limits<std::uint64_t>::max();

  /// A packet entered the plug buffer (current, still unmarked epoch).
  void packet_buffered() { ++open_packets_; }

  /// Marker `marker` closed epoch `epoch`'s output window.
  void marker_inserted(std::uint64_t epoch, std::uint64_t marker);

  /// The primary received an ack for `epoch`.
  void ack_received(std::uint64_t epoch);

  /// The plug released everything up to `marker`, transmitting `packets`
  /// packets. `expected_epoch` is the epoch the agent believes it is
  /// committing (kAnyEpoch when unknown to the caller).
  void released(std::uint64_t marker, std::uint64_t packets,
                std::uint64_t expected_epoch = kAnyEpoch);

  /// Failover: the plug dropped `packets` uncommitted packets.
  void discarded(std::uint64_t packets);

  /// Packets the mirror believes are buffered (cross-checked against
  /// PlugQdisc::pending_packets() by the auditor's sweep).
  std::uint64_t mirrored_packets() const;

  std::uint64_t checks() const { return checks_; }

 private:
  struct Segment {
    std::uint64_t epoch = 0;
    std::uint64_t marker = 0;
    std::uint64_t packets = 0;
  };
  std::deque<Segment> segments_;
  std::uint64_t open_packets_ = 0;
  std::uint64_t acked_ = 0;
  bool has_ack_ = false;
  std::uint64_t checks_ = 0;
};

/// Backup-side epoch lifecycle: acks sequential and after the epoch's DRBD
/// barrier; state commits sequential, exactly once, only for acknowledged
/// epochs; buffered disk writes applied only inside the fold of their
/// epoch; uncommitted writes discarded only during failover.
class EpochCommitChecker {
 public:
  void ack_sent(std::uint64_t epoch, std::uint64_t last_barrier);
  void commit_begin(std::uint64_t epoch);
  void committed(std::uint64_t epoch);
  void drbd_applied(std::uint64_t epoch);
  void drbd_discarded();
  void recovery_started(std::uint64_t committed_epoch);
  void recovered(std::uint64_t committed_epoch);
  /// Re-silvering (DESIGN.md §16): this survivor adopted the promoted
  /// winner's committed state at `committed_epoch`. Fast-forwards the
  /// mirror (the winner is at least as caught up) and authorizes exactly
  /// one DRBD-tail discard outside a recovery bracket.
  void resilver_adopted(std::uint64_t committed_epoch);

  std::uint64_t committed_count() const { return next_commit_; }
  bool in_recovery() const { return in_recovery_; }
  std::uint64_t checks() const { return checks_; }

 private:
  std::uint64_t next_ack_ = 0;
  std::uint64_t next_commit_ = 0;
  std::uint64_t fold_epoch_ = 0;
  std::uint64_t last_applied_ = 0;
  bool folding_ = false;
  bool in_recovery_ = false;
  bool recovered_ = false;
  bool resilver_discard_ok_ = false;
  std::uint64_t checks_ = 0;
};

/// COW payload freeze audit (DESIGN.md §7): once a payload handle enters
/// the checkpoint pipeline its bytes must never change. pin() fingerprints
/// a payload on first sight; verify_all() re-hashes every still-live
/// pinned payload. Holds weak references only, so pinning never perturbs
/// the copy-on-write sharing it audits.
class PayloadFreezeGuard {
 public:
  void pin(const kern::PagePayload& payload);
  void verify_all();
  /// Re-hashes at most `budget` pinned payloads, rotating through the pin
  /// set across calls so repeated budgeted sweeps reach every payload.
  /// Bounds per-sweep cost on working sets whose every page stays live in
  /// the backup store.
  void verify_budget(std::uint64_t budget);

  std::uint64_t live() const { return entries_.size(); }
  std::uint64_t pins() const { return pins_; }
  std::uint64_t verifications() const { return verifications_; }

 private:
  struct Entry {
    std::weak_ptr<const kern::PageBytes> ref;
    std::uint64_t fingerprint = 0;
    std::uint64_t seq = 0;  // pins_ at this pin: the entry's place in order_
  };
  // Keyed by payload identity: one page can have several generations of
  // payloads alive at once (image, store, delta reference). Identity
  // lookups only — every iteration order the guard exposes (verify_all,
  // the verify_budget rotation) walks order_, the pin-order list, so
  // verification order never depends on allocation addresses.
  // NLC_LINT_OK(ptr-key): identity-lookup map; iteration goes via order_
  using EntryMap = std::unordered_map<const kern::PageBytes*, Entry>;
  /// One pin in order_: a key plus the seq it was pinned with. A pair is
  /// stale once its entry is erased or re-pinned under a later seq (a new
  /// payload at a reused address), so a reused address takes its own pin's
  /// place, never its predecessor's.
  struct Pin {
    const kern::PageBytes* key;
    std::uint64_t seq;
  };
  /// The live entry `pin` refers to, or entries_.end() if it is stale.
  EntryMap::iterator live_entry(const Pin& pin);
  void verify_entry(EntryMap::iterator it);
  /// Drops stale pins from order_. Keeps pin order.
  void compact_order();

  EntryMap entries_;
  /// Pins in pin order; a superset of entries_ between compactions. The
  /// single source of iteration order.
  std::vector<Pin> order_;
  /// Rotation cursor for verify_budget(): order_ position drained across
  /// budgeted sweeps, refreshed by compact_order() on wrap.
  std::size_t cycle_pos_ = 0;
  std::uint64_t pins_ = 0;
  std::uint64_t verifications_ = 0;
};

/// Primary-delta / backup-fold byte equivalence, store side: after the
/// fold of an epoch, every shipped page record must be retrievable from
/// the committed page store with the same version and byte-identical
/// payload. After a re-silver, the survivor's store must equal the
/// promoted winner's record for record.
class StoreEquivalenceChecker {
 public:
  void check(const criu::PageStore& store, const criu::CheckpointImage& img);
  /// `survivor` was just re-silvered from `winner`: same page count, and
  /// the same page, version, wire size and payload handle at every
  /// position of the two ascending walks. Counts as one check.
  void resilvered(const criu::PageStore& survivor,
                  const criu::PageStore& winner);
  std::uint64_t checks() const { return checks_; }

 private:
  std::uint64_t checks_ = 0;
};

/// Replay-equivalence audit (DESIGN.md §14, commit_mode = kReplay). Keeps
/// two independent mirrors of the nondeterministic-event chain — the
/// primary's shipped prefix and the backup's accepted prefix — folding
/// every segment entry-by-entry with its own nd_chain_fold, and checks:
///
///   * every shipped segment continues the primary mirror exactly (seq,
///     start index, start fingerprint, refold to the stamped end_fp);
///   * every checkpoint's (nd_entries, nd_fp) stamp lies on the primary
///     chain (immediately, or when the covering segment later ships);
///   * the backup accepts a segment iff it continues the accepted chain,
///     per an independent revalidation;
///   * failover replay covers exactly committed stamp → accepted end and
///     lands on the accepted end fingerprint.
class ReplayEquivalenceChecker {
 public:
  /// The primary shipped `seg` (after its marker went into the plug).
  void log_shipped(const core::LogSegmentMsg& seg);
  /// A checkpoint stamped chain position (nd_entries, nd_fp); may cover
  /// entries the primary has not flushed into a segment yet.
  void checkpoint_stamped(std::uint64_t nd_entries, std::uint64_t nd_fp);
  /// The backup validated `seg` and decided to accept or reject it.
  void log_ingested(const core::LogSegmentMsg& seg, bool accepted);
  /// The backup committed an epoch whose image carries this chain stamp.
  void committed(std::uint64_t nd_entries, std::uint64_t nd_fp);
  /// Failover replay finished with this end fingerprint and entry count.
  void replayed(std::uint64_t final_fp, std::uint64_t entries_replayed);

  std::uint64_t checks() const { return checks_; }

 private:
  // Primary mirror: the chain as far as shipped segments extend it.
  std::uint64_t p_entries_ = 0;
  std::uint64_t p_fp_ = core::kNdChainSeed;
  std::uint64_t next_seq_ = 0;
  /// Checkpoint stamps ahead of the shipped prefix, verified when the
  /// covering segment ships. (entries, fp), non-decreasing in entries.
  std::deque<std::pair<std::uint64_t, std::uint64_t>> pending_stamps_;
  // Backup mirror: the accepted prefix.
  std::uint64_t b_seq_ = 0;
  std::uint64_t b_entries_ = 0;
  std::uint64_t b_fp_ = core::kNdChainSeed;
  // Last committed checkpoint's chain stamp (the replay start point).
  std::uint64_t committed_entries_ = 0;
  std::uint64_t committed_fp_ = core::kNdChainSeed;
  std::uint64_t checks_ = 0;
};

/// N-way quorum output commit (DESIGN.md §16). Mirrors every replica's ack
/// cursor independently and re-derives the quorum cursor (the K-th largest
/// per-replica cursor) at every advance the primary declares; epoch or
/// log-segment output may release only once K replicas cover it. Also
/// audits the failover election: the promoted replica's catch-up key must
/// be maximal among the surviving candidates AND cover the last quorum
/// release — the "zero client-visible output loss" property.
class QuorumCommitChecker {
 public:
  QuorumCommitChecker(int replicas, int quorum_k);

  /// Replica `r` acked `epoch`. Cursors are monotone (FIFO channel,
  /// sequential backup).
  void replica_ack(int r, std::uint64_t epoch);
  /// The primary declared the quorum cursor advanced to `epoch`.
  void quorum_advanced(std::uint64_t epoch);
  /// Replica `r` acked log segment `seq` (replay commit mode).
  void replica_log_ack(int r, std::uint64_t seq);
  /// The primary released segment `seq`'s plugged output.
  void log_release(std::uint64_t seq);

  /// Election-close key of one surviving replica (mirror of
  /// core::PromotionCandidate, kept sim-free here).
  struct Candidate {
    int index = 0;
    bool any_ack = false;
    std::uint64_t acked_epoch = 0;
    std::uint64_t nd_entries = 0;
  };
  /// The arbiter promoted `winner` out of `candidates`.
  void promoted(int winner, const std::vector<Candidate>& candidates);

  int replicas() const { return n_; }
  int quorum() const { return k_; }
  std::uint64_t checks() const { return checks_; }

 private:
  int n_;
  int k_;
  std::vector<std::uint64_t> cursor_;
  std::vector<bool> any_;
  std::uint64_t quorum_cursor_ = 0;
  bool any_quorum_ = false;
  /// Per-segment replica-ack bitmask + release flag; retired once fully
  /// acked and released (a dead replica leaves a bounded remainder, like
  /// the agent's own seg_recs_).
  struct Seg {
    std::uint32_t acks = 0;
    bool released = false;
  };
  std::unordered_map<std::uint64_t, Seg> segs_;
  std::uint64_t checks_ = 0;
};

/// Primary-delta byte equivalence, wire side: shadow-replays the delta
/// codec over each shipped image with an independently tracked reference
/// set, checking that the stamped per-page wire sizes match a fresh encode
/// and that decode reconstructs the shipped bytes exactly.
class DeltaReplayChecker {
 public:
  void replay(const criu::CheckpointImage& img, bool delta_enabled);
  std::uint64_t checks() const { return checks_; }

 private:
  std::unordered_map<kern::PageNum, kern::PagePayload> prev_;
  std::uint64_t checks_ = 0;
};

}  // namespace nlc::check
