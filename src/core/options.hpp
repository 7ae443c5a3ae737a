// NiLiCon configuration: epoch timing, failure detection, and one flag per
// optimization so Table I's ablation runs real alternative code paths.
#pragma once

#include <cstdint>
#include <string>

#include "topo/topology.hpp"
#include "util/time.hpp"

namespace nlc::core {

/// How aggressively the invariant auditor (src/check) validates the
/// replication protocol at runtime.
///  kOff          — no auditor subscribed; zero cost.
///  kCommitPoints — ordering and equivalence invariants checked at every
///                  epoch commit and at failover.
///  kContinuous   — additionally re-fingerprints frozen COW payloads on
///                  every commit and on a periodic simulation probe, and
///                  shadow-replays the delta codec per shipped epoch.
enum class AuditLevel : std::uint8_t { kOff, kCommitPoints, kContinuous };

/// Flight-recorder tracing level (src/trace).
///  kOff  — no recorder subscribed; with auditing off too, every protocol
///          point is a single null-pointer test (bench_trace_overhead
///          gates this at <= 1%).
///  kFull — record every epoch- and failover-pipeline event into the
///          run's recorder. Tracing is an observer only: all simulated
///          observables stay byte-identical with tracing on or off.
enum class TraceLevel : std::uint8_t { kOff, kFull };

/// Output-commit discipline (DESIGN.md §14).
///  kEpoch  — NiLiCon: client output is held until the whole epoch's dirty
///            state is shipped and acknowledged (p99 tracks epoch length).
///  kReplay — HyCoR: nondeterministic events are logged and shipped on a
///            small side channel; output is released as soon as the event
///            log covering it is acknowledged, while the page delta commits
///            asynchronously. On failover the backup replays the committed
///            log on top of the restored checkpoint.
enum class CommitMode : std::uint8_t { kEpoch, kReplay };

/// Epoch-length policy (DESIGN.md §15).
///  kFixed    — the paper's behaviour: every epoch runs Options::epoch_length.
///  kAdaptive — core::EpochController retunes the length at runtime from the
///              per-epoch critical-path segments. In epoch commit mode it
///              minimizes p99 response time subject to the stop-time budget;
///              in replay commit mode (where the latency sweep is flat) it
///              stretches epochs toward epochctl::kReplayEpochTarget to cut
///              page wire bytes, bounded by the recovery-replay and
///              log-memory budgets.
enum class EpochPolicy : std::uint8_t { kFixed, kAdaptive };

/// Failure detection (§IV): the primary's heartbeat period, and how many
/// consecutive silent periods make a backup declare it dead.
inline constexpr Time kHeartbeatInterval = nlc::milliseconds(30);
inline constexpr int kHeartbeatMissThreshold = 3;

/// The dedicated 10 GbE replication link (§VI): the primary's replication
/// NIC, every replica's ack return, each chain hop, the event-log lanes and
/// the arbiter's re-silver transfers.
inline constexpr double kReplicationLinkBps = 10e9;
inline constexpr Time kReplicationLinkLatency = nlc::microseconds(20);

struct Options {
  /// Execution-phase length per epoch (paper: 30 ms). With
  /// epoch_policy = kAdaptive this is only the starting point.
  Time epoch_length = nlc::milliseconds(30);

  // ---- Adaptive epoch control (DESIGN.md §15) ------------------------------
  /// The controller's clamp range and budgets are epochctl constants
  /// (core/epoch_controller.hpp).
  EpochPolicy epoch_policy = EpochPolicy::kFixed;

  // ---- Table I optimizations (cumulative rows) ----------------------------
  /// §V-A: radix-tree page store on the backup, polling freezer instead of
  /// the 100 ms sleep, and direct agent-to-agent transfer (no proxies).
  bool optimize_criu = true;
  /// §V-B: cache infrequently-modified in-kernel state, invalidated via
  /// ftrace hooks.
  bool cache_infrequent_state = true;
  /// §V-C: block network input by buffering (sch_plug) instead of firewall
  /// drops.
  bool plug_input_blocking = true;
  /// §V-D(1): VMA discovery via the task-diag netlink patch.
  bool vma_via_netlink = true;
  /// §V-D(2): copy dirty pages to a local staging buffer and resume the
  /// container before shipping them.
  bool staging_buffer = true;
  /// §V-D(3): parasite hands pages over shared memory instead of a pipe.
  bool pages_via_shared_memory = true;
  /// Extension beyond the paper: XOR/run-length delta-compress each dirty
  /// content page against its last shipped version before putting it on
  /// the replication wire (criu/delta.hpp). Off by default so the stock
  /// configuration matches the paper's Table I calibration.
  bool delta_compress_pages = false;

  // ---- Other mechanisms ----------------------------------------------------
  /// §V-E: clamp the repaired-socket retransmission timeout to 200 ms.
  bool rto_repair_fix = true;
  /// §III: harvest the fs cache via DNC/fgetfc (false = flush-to-NAS
  /// ablation).
  bool fs_cache_via_dnc = true;
  /// §III/§IV: keep ingress blocked during recovery until sockets exist.
  bool block_input_during_recovery = true;

  // ---- Output commit (DESIGN.md §14) ---------------------------------------
  /// kEpoch reproduces the paper; kReplay releases output on event-log ack.
  CommitMode commit_mode = CommitMode::kEpoch;

  // ---- N-way replication (DESIGN.md §16) -----------------------------------
  /// Backup replica count. 1 reproduces the paper's two-node testbed
  /// byte-identically; N > 1 spreads the backups across the cluster's two
  /// racks and releases output on a K-of-N quorum.
  int replicas = 1;
  /// Acks required before plugged output (and, in replay mode, the log
  /// segment) releases. 0 = auto: a majority, replicas / 2 + 1.
  int quorum_k = 0;
  /// How epoch state and the nd-event log reach the replicas: star fan-out
  /// from the primary's replication NIC, or a store-and-forward chain
  /// through the backups (topo/topology.hpp).
  topo::Topology topology = topo::Topology::kStar;

  int resolved_quorum() const {
    int k = quorum_k > 0 ? quorum_k : replicas / 2 + 1;
    if (k < 1) k = 1;
    return k > replicas ? replicas : k;
  }

  std::uint64_t seed = 1;

  /// Runtime invariant auditing (src/check). The harness subscribes an
  /// InvariantAuditor to the Cluster's protocol event streams when this is
  /// not kOff.
  AuditLevel audit_level = AuditLevel::kOff;

  /// Flight-recorder tracing (src/trace, DESIGN.md §11). The Cluster creates
  /// a trace::Recorder and subscribes it to its protocol event stream when
  /// this is not kOff.
  TraceLevel trace_level = TraceLevel::kOff;

  /// Read by nothing: the page pipeline runs on the trial's thread.
  int page_shards = 0;

  /// The seven cumulative configurations of Table I, row index 0..6.
  /// Row 7 is our ablation extension: everything plus page delta
  /// compression.
  static Options table1_row(int row) {
    Options o;
    o.set_table1_row(row);
    return o;
  }

  /// Sets only the Table I optimization flags to row `row`; every other
  /// field keeps its value.
  void set_table1_row(int row) {
    optimize_criu = row >= 1;
    cache_infrequent_state = row >= 2;
    plug_input_blocking = row >= 3;
    vma_via_netlink = row >= 4;
    staging_buffer = row >= 5;
    pages_via_shared_memory = row >= 6;
    delta_compress_pages = row >= 7;
  }

  static const char* table1_row_name(int row) {
    switch (row) {
      case 0: return "Basic implementation";
      case 1: return "+ Optimize CRIU";
      case 2: return "+ Cache infrequently-modified state";
      case 3: return "+ Optimize blocking network input";
      case 4: return "+ Obtain VMAs from netlink";
      case 5: return "+ Add memory staging buffer";
      case 6: return "+ Transfer dirty pages via shared memory";
      case 7: return "+ Delta-compress dirty pages (extension)";
    }
    return "?";
  }
};

}  // namespace nlc::core
