// Measurement collectors for the evaluation harness (Tables III-V).
#pragma once

#include <cstdint>
#include <vector>

#include "util/simd.hpp"
#include "util/stats.hpp"
#include "util/time.hpp"

namespace nlc::core {

/// Wall clock per page-pipeline stage (util::wall_now_ns nanoseconds,
/// DESIGN.md §10). Observability only: these never feed back into
/// simulated time or the cost model.
struct ShardStageNanos {
  std::uint64_t harvest = 0;  // frozen-state page-record fill
  std::uint64_t encode = 0;   // delta encode + wire-size stamping
  std::uint64_t fold = 0;     // backup radix-store fold
};

struct ReplicationMetrics {
  /// Per-epoch container stop time (Table III / IV).
  Samples stop_time_ms;
  /// Per-epoch transferred state size in bytes (Table IV).
  Samples state_bytes;
  /// Per-epoch dirty page count (Table III).
  Samples dirty_pages;
  /// Per-epoch time from pause begin to buffered-output release
  /// (checkpoint commit latency; bounds added response delay).
  Samples commit_latency_ms;

  std::uint64_t epochs_completed = 0;
  std::uint64_t bytes_shipped = 0;

  // ---- Event-log stream (commit_mode = kReplay, DESIGN.md §14) ------------
  /// Event-log wire bytes, accounted separately from `bytes_shipped` (the
  /// page-delta stream) so overhead reports show both streams.
  std::uint64_t log_bytes_shipped = 0;
  std::uint64_t log_segments_shipped = 0;
  std::uint64_t log_entries_recorded = 0;
  /// Per-segment time from log cut to buffered-output release — the
  /// client-visible output-commit delay in replay mode (compare against
  /// `commit_latency_ms`, which still tracks the full epoch commit).
  Samples log_commit_latency_ms;
  /// High-water mark of log bytes the backup holds accepted but not yet
  /// pruned. Checkpoint-commit truncation keeps this bounded (≈ 2 epochs
  /// of segments) regardless of run length — regression-tested with 1 s
  /// epochs.
  std::uint64_t log_retained_bytes_peak = 0;
  /// Segments the backup dropped because a committed checkpoint already
  /// contained their effects.
  std::uint64_t log_pruned_segments = 0;

  // ---- N-way quorum replication (DESIGN.md §16) ---------------------------
  /// Per-replica ack cursor lag behind the quorum cursor (epochs), sampled
  /// at every quorum advance. Empty in the two-node configuration (N = 1),
  /// so existing reports are untouched.
  std::vector<Samples> replica_ack_lag;
  /// Per epoch: time from the first replica's ack to the K-th (the quorum
  /// wait the slowest needed replica adds). N > 1 only.
  Samples quorum_wait_ms;
  /// State + log bytes actually placed on replication links, counting every
  /// fan-out copy (primary sends per direct replica; chain forwards add
  /// theirs). At N = 1 this equals bytes_shipped + log_bytes_shipped.
  std::uint64_t wire_bytes_fanout = 0;

  // ---- Adaptive epoch controller (DESIGN.md §15) --------------------------
  /// Execute-phase length each completed epoch actually ran (constant
  /// under EpochPolicy::kFixed; nlc_run renders the histogram).
  Samples epoch_len_ms;
  std::uint64_t ctl_grow_steps = 0;
  std::uint64_t ctl_shrink_steps = 0;
  /// Epoch of the controller's last length change (0 = never adapted):
  /// the convergence point.
  std::uint64_t ctl_last_change_epoch = 0;
  /// Length the controller had converged to when the run ended.
  Time ctl_final_epoch_len = 0;

  // ---- Zero-copy page pipeline + delta compression (extension) ------------
  /// Per-epoch page-payload compression ratio (wire / raw; 1.0 = no gain).
  Samples compression_ratio;
  /// Page bytes the delta stage kept off the replication wire.
  std::uint64_t wire_bytes_saved = 0;

  // ---- Page pipeline (DESIGN.md §10/§12) ----------------------------------
  /// Delta-codec scan-kernel tier the primary ran with (resolved from
  /// NLC_SIMD; util::simd_tier_name() renders it).
  /// Observability only — observables are tier-independent.
  util::SimdTier simd_tier_used = util::SimdTier::kScalar;
  /// Per-stage wall-clock accounting (not simulated time).
  ShardStageNanos shard_stage_ns;

  /// Simulated CPU time the backup agent spent processing state (Table V).
  Time backup_busy = 0;
};

struct RecoveryMetrics {
  bool triggered = false;
  Time detection_started = 0;   // primary declared dead
  Time detection_latency = 0;   // silence until declaration
  Time restore_time = 0;        // image build + restore engine
  Time arp_time = 0;
  Time misc_time = 0;
  Time total_unavailability = 0;  // as seen by the recovery driver
  std::uint64_t pages_restored = 0;
  std::uint64_t sockets_restored = 0;
  std::uint64_t committed_epoch = 0;
  // ---- Replay commit mode (DESIGN.md §14) ---------------------------------
  /// Logged events re-executed on top of the restored checkpoint to reach
  /// the released-output point.
  std::uint64_t events_replayed = 0;
  std::uint64_t segments_replayed = 0;
  /// Client inputs re-injected into repaired sockets from log sidecars
  /// (inputs whose server ACK escaped before the crash are never
  /// retransmitted by the client, so the log must carry them).
  std::uint64_t inputs_reinjected = 0;
  Time replay_time = 0;
  // ---- N-way quorum replication (DESIGN.md §16) ---------------------------
  /// Replica index the arbiter promoted (-1 = the lone backup / none).
  int promoted_replica = -1;
  /// Full-state catch-up stream to the surviving backups after promotion.
  std::uint64_t resilver_bytes = 0;
  std::uint64_t replicas_resilvered = 0;
  Time resilver_time = 0;
};

}  // namespace nlc::core
