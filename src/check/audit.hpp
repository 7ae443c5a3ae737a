// InvariantAuditor: the runtime audit layer over a protected Cluster.
//
// One auditor observes one protected container end to end. It subscribes
// to the Cluster's protocol event streams (trace/stream.hpp) — the egress
// plug, the agent pair's commit points, the backup DRBD buffer, the
// promotion arbiter — and routes every emission into the checkers in
// invariants.hpp:
//
//   * output commit: no sch_plug release before the backup's ack, checked
//     per packet against an independent mirror of the plug buffer;
//   * epoch monotonicity and exactly-once commit on the backup, including
//     DRBD's buffered-write ordering inside the fold window;
//   * COW payload freeze: page payloads captured by a checkpoint never
//     change bytes while any pipeline stage still references them;
//   * page-store/image equivalence after every fold, restored-memory/
//     store equivalence after failover, and survivor/winner store
//     equivalence after every re-silver;
//   * delta-codec shadow replay (wire-size stamps + byte-exact decode);
//   * the stream ordering rules (trace_oracle.hpp), over exactly the
//     emissions the flight recorder keeps.
//
// Cost is governed by Options::audit_level: kCommitPoints checks ordering
// and equivalence at every epoch commit and at failover; kContinuous adds
// COW re-fingerprinting (budgeted, via a periodic simulation probe) and
// the per-epoch delta replay. The auditor holds no strong references to
// page payloads and never mutates observed components, so an audited run
// takes the exact same protocol decisions as an unaudited one.
//
// A violated invariant throws nlc::InvariantError, which escapes
// Simulation::run() — an audited experiment either finishes clean or dies
// loudly at the first broken property.
#pragma once

#include <memory>
#include <vector>

#include "check/invariants.hpp"
#include "check/trace_oracle.hpp"
#include "core/cluster.hpp"
#include "net/qdisc.hpp"
#include "trace/stream.hpp"

namespace nlc::check {

/// Backup-side audit of one replica: the epoch lifecycle against its own
/// DRBD buffer and page store, and the restore-equivalence walk when it is
/// the one that takes over. Every replica gets its own mirrors — routing
/// all replicas into one would interleave their (independent) epoch
/// streams. Each subscribes to its replica's own stream (DESIGN.md §16);
/// replica 0's is the main stream, where it runs ahead of the
/// InvariantAuditor.
class ReplicaAudit final : public trace::Subscriber {
 public:
  ReplicaAudit(core::Cluster& cluster, int index, kern::ContainerId cid)
      : cluster_(&cluster), index_(index), cid_(cid) {}

  void on_event(const trace::Event& e, const trace::Detail& d) override;

  /// The arbiter promoted replica `winner` (its kPromote is on the main
  /// stream): a later re-silver of this replica copies that one's store.
  void promoted(int winner) { winner_ = winner; }

  std::uint64_t epoch_checks() const { return epoch_.checks(); }
  std::uint64_t store_checks() const { return store_.checks(); }
  std::uint64_t restore_checks() const { return restore_equiv_checks_; }

 private:
  core::Cluster* cluster_;
  int index_;
  kern::ContainerId cid_;
  EpochCommitChecker epoch_;
  StoreEquivalenceChecker store_;
  std::uint64_t restore_equiv_checks_ = 0;
  int winner_ = -1;
};

class InvariantAuditor final : public trace::Subscriber {
 public:
  /// Both agents of `cluster` must exist (construct from the
  /// Cluster::on_agents_created callback). `opts` must be the Options the
  /// container is protected with.
  InvariantAuditor(core::Cluster& cluster, kern::ContainerId cid,
                   const core::Options& opts);
  ~InvariantAuditor() override;

  InvariantAuditor(const InvariantAuditor&) = delete;
  InvariantAuditor& operator=(const InvariantAuditor&) = delete;

  /// Subscribes to the cluster's streams (idempotent). Call before
  /// protect() attaches them, i.e. from Cluster::on_agents_created.
  void attach();
  /// Unsubscribes; safe to call while the simulation still runs.
  void detach();

  /// End-of-run audit: full re-fingerprint of every live pinned payload
  /// plus the cross-component mirror checks. Call after Simulation::run()
  /// returns.
  void final_audit();

  AuditStats stats() const;
  core::AuditLevel level() const { return level_; }

  /// The main stream: primary agent and plug, replica 0, the arbiter.
  void on_event(const trace::Event& e, const trace::Detail& d) override;

 private:
  void on_state_ready(const core::EpochStateMsg& msg, bool initial);
  /// The agent's marker must be the plug's last one; `what` names the lie.
  void expect_plug_marker(std::uint64_t marker, const char* what) const;
  void on_promoted(int winner,
                   const std::vector<core::PromotionCandidate>& cs);
  /// Periodic probe body (kContinuous): budgeted payload re-fingerprint
  /// plus the plug-mirror cross-check.
  void sweep();

  /// Payloads re-hashed per budgeted verification call. Bounds the audit's
  /// per-commit/per-probe cost on working sets that keep every page of the
  /// container alive in the page store.
  static constexpr std::uint64_t kVerifyBudget = 256;
  /// Continuous-level probe period, in simulation events.
  static constexpr std::uint64_t kProbeEveryEvents = 512;

  core::Cluster* cluster_;
  kern::ContainerId cid_;
  core::AuditLevel level_;
  bool delta_enabled_;
  /// Replay commit mode: output commits per log segment, so occ_ runs on
  /// segment seq numbers and epoch acks must stay out of it (the two
  /// number spaces would interleave).
  bool replay_mode_;
  net::PlugQdisc* plug_;
  bool attached_ = false;

  OutputCommitChecker occ_;
  PayloadFreezeGuard freeze_;
  DeltaReplayChecker delta_;
  ReplayEquivalenceChecker replay_;
  QuorumCommitChecker quorum_;
  OrderingRules rules_;
  /// One backup-side audit per replica, index i at position i, each
  /// subscribed to its replica's stream.
  std::vector<std::unique_ptr<ReplicaAudit>> replica_audits_;

  /// Marker id the plug reported last, cross-checked against the agent's
  /// marker emission.
  std::uint64_t last_plug_marker_ = 0;
  bool saw_plug_marker_ = false;
  /// Epoch the primary declared it is releasing, consumed by the plug's
  /// release emission.
  std::uint64_t pending_release_epoch_ = OutputCommitChecker::kAnyEpoch;

  std::uint64_t sweeps_ = 0;
};

}  // namespace nlc::check
