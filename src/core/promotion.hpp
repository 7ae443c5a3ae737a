// Promotion arbiter for N-way replication (DESIGN.md §16).
//
// With a single backup, the watchdog that detects the primary's death IS
// the failover decision. With N replicas each watchdog only *reports* the
// detection here; the arbiter holds the election open for two heartbeat
// intervals (long enough for every surviving watchdog to weigh in), then
// promotes the most caught-up live replica — the one whose acked cursor is
// highest, i.e. whose committed-or-in-flight state covers every epoch a
// quorum may have released output for. After the winner's restore
// completes, the survivors are re-silvered: each receives a full-state
// copy of the winner's committed stores, metered on the shared
// replication link (kReplicationLinkBps, kReplicationLinkLatency).
//
// The sim has no real consensus protocol underneath this (the model is
// fail-stop hosts on a reliable fabric, not partitions); the arbiter is
// the simulation stand-in for the leader-election piece a production
// deployment would run, and the invariant it must uphold — promote a
// replica whose cursor is >= every other live cursor — is what the
// auditor mirrors.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/simulation.hpp"
#include "trace/stream.hpp"

namespace nlc::core {

class BackupAgent;

/// One replica's election key as sampled at election close; the kPromote
/// emission carries the whole set so the checker can independently re-run
/// the election.
struct PromotionCandidate {
  int index = 0;
  bool any_ack = false;
  std::uint64_t acked_epoch = 0;
  std::uint64_t committed_nd_entries = 0;
};

class PromotionArbiter {
 public:
  explicit PromotionArbiter(sim::Simulation& sim) : sim_(&sim) {}

  /// Registers one replica (call in replica-index order, before start).
  void register_replica(BackupAgent& agent, sim::DomainPtr domain) {
    replicas_.push_back(Entry{&agent, std::move(domain)});
  }

  /// Attaches (or clears) the protocol event stream (observer only). The
  /// election emits kPromote at close, before the winner's restore is
  /// spawned, with the full candidate set.
  void set_stream(trace::Stream* s) { obs_.attach(s); }

  /// Watchdog entry point: replica `reporter` detected the primary's
  /// death. Every reporter spawns its own (idempotent) election closer, so
  /// the election still closes if a reporter dies while it is open.
  void report(int reporter);

  bool election_closed() const { return closed_; }
  /// Promoted replica index; -1 until the election closed.
  int winner() const { return winner_; }
  std::uint64_t reports() const { return reports_; }
  std::uint64_t resilvered() const { return resilvered_; }

 private:
  struct Entry {
    BackupAgent* agent;
    sim::DomainPtr domain;
  };

  sim::task<> close_election();
  sim::task<> resilver_survivors();

  sim::Simulation* sim_;
  std::vector<Entry> replicas_;
  trace::Observer obs_;
  bool closed_ = false;
  int winner_ = -1;
  std::uint64_t reports_ = 0;
  std::uint64_t resilvered_ = 0;
};

}  // namespace nlc::core
