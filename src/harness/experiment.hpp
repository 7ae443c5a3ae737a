// Experiment harness: runs one benchmark in one protection mode on a fresh
// Cluster and returns everything the paper's tables report.
//
// Protection modes: stock (no replication), NiLiCon (the paper's system,
// with per-optimization toggles), MC (the Remus-on-KVM baseline).
// Optional fail-stop fault injection at a random point of the middle 80 %
// of the measurement window (§VII-A), with KV/content validation.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "apps/spec.hpp"
#include "check/invariants.hpp"
#include "core/metrics.hpp"
#include "core/options.hpp"
#include "trace/recorder.hpp"
#include "util/stats.hpp"
#include "util/time.hpp"

namespace nlc::harness {

enum class Mode { kStock, kNiLiCon, kMc };

inline const char* mode_name(Mode m) {
  switch (m) {
    case Mode::kStock: return "stock";
    case Mode::kNiLiCon: return "NiLiCon";
    case Mode::kMc: return "MC";
  }
  return "?";
}

/// What fails when RunConfig::inject_fault is set (DESIGN.md §16). The
/// non-primary kinds need mode == kNiLiCon with Options::replicas > 1
/// (fault_kind_fits); run_experiment rejects them otherwise.
enum class FaultKind {
  kPrimary,     // fail-stop primary crash (the paper's §VII-A scenario)
  kBackup,      // fail-stop crash of one backup replica — no failover;
                //   the quorum must absorb it with zero client-visible loss
  kRack,        // correlated failure of the primary's whole rack (takes
                //   every backup the alternating placement put beside it)
  kDouble,      // one backup crashes, the primary follows 50 ms later —
                //   the surviving replicas must still elect and recover
};

/// The backup replica kBackup and kDouble crash (0 is the first backup);
/// both kinds need a second replica, so it always exists.
inline constexpr int kFaultBackupReplica = 1;

inline const char* fault_kind_name(FaultKind f) {
  switch (f) {
    case FaultKind::kPrimary: return "primary";
    case FaultKind::kBackup: return "backup";
    case FaultKind::kRack: return "rack";
    case FaultKind::kDouble: return "double";
  }
  return "?";
}

struct RunConfig {
  apps::AppSpec spec;
  Mode mode = Mode::kNiLiCon;
  core::Options nilicon;           // used when mode == kNiLiCon
  std::uint64_t seed = 1;

  // Interactive (server) runs.
  Time warmup = nlc::milliseconds(500);
  Time measure = nlc::seconds(8);
  std::optional<int> client_connections;  // default: spec.saturation_clients
  std::optional<int> client_pipeline;     // default: spec.client_pipeline
  bool kv_validation = false;             // real content payloads + checks
  std::uint64_t prefill_kv_pages = 0;     // pre-uploaded records (§VII-B)

  // Batch runs.
  Time batch_work = nlc::seconds(3);      // per-thread CPU quota

  // Fault injection (§VII-A): at a uniform-random point of the middle 80 %
  // of the measurement window. After recovery the run continues to the end
  // of the window so post-failover progress is observable.
  bool inject_fault = false;
  /// Which host(s) the injected fault takes (N-way runs can crash backups
  /// and whole racks, not just the primary).
  FaultKind fault_kind = FaultKind::kPrimary;
  /// Run a diskstress process alongside (first validation microbenchmark).
  bool with_diskstress = false;
};

/// Whether the cluster `cfg` builds has what cfg.fault_kind crashes: every
/// kind but kPrimary needs a second NiLiCon replica.
inline bool fault_kind_fits(const RunConfig& cfg) {
  return cfg.fault_kind == FaultKind::kPrimary ||
         (cfg.mode == Mode::kNiLiCon && cfg.nilicon.replicas > 1);
}

struct RunResult {
  // Interactive.
  double throughput_rps = 0;
  std::uint64_t requests_completed = 0;
  Samples latencies_ms;
  double mean_latency_ms = 0;

  // Batch.
  Time batch_runtime = 0;
  Time batch_ideal = 0;

  // Replication internals (empty for stock runs).
  core::ReplicationMetrics metrics;

  /// Checkpoint (page/state) wire bytes shipped inside the measurement
  /// window only — metrics.bytes_shipped also counts warmup, including an
  /// adaptive controller's ramp, so wire-rate comparisons between epoch
  /// policies use this steady-state figure (bench_epoch_sweep).
  std::uint64_t wire_bytes_window = 0;
  std::uint64_t epochs_window = 0;
  /// Latencies of requests *sent* inside the measurement window only —
  /// latencies_ms spans the whole run including warmup, which an adaptive
  /// controller's ramp pollutes (a handful of pre-convergence samples can
  /// own the p99 tail). Percentile comparisons between epoch policies use
  /// this steady-state set.
  Samples latencies_window_ms;

  // Table V.
  double active_cores = 0;
  double backup_cores = 0;

  // Fault injection.
  bool fault_injected = false;
  bool recovered = false;
  core::RecoveryMetrics recovery;
  std::uint64_t requests_after_fault = 0;
  std::uint64_t kv_errors = 0;
  std::uint64_t broken_connections = 0;
  /// Replies whose tag did not match the oldest outstanding request.
  std::uint64_t protocol_errors = 0;
  std::uint64_t diskstress_errors = 0;
  std::uint64_t diskstress_post_failover_mismatches = 0;
  /// Client-observed service interruption (max latency spike minus the
  /// pre-fault median), for Table II.
  Time interruption = 0;

  /// Invariant-audit results (cfg.nilicon.audit_level != kOff). A run that
  /// returns at all passed: a violation throws InvariantError out of
  /// run_experiment.
  bool audited = false;
  check::AuditStats audit;

  /// Flight recorder (cfg.nilicon.trace_level != kOff): the cluster's
  /// tracer, kept alive past the Cluster so the caller can export the
  /// stream (trace/export.hpp) or run the critical-path analyzer.
  std::shared_ptr<trace::Recorder> trace;

  /// Events processed by this trial's simulation loop — the TrialRunner
  /// aggregates these into events/sec, and the determinism tests compare
  /// them across serial/parallel and fast-path/generic runs.
  std::uint64_t sim_events = 0;
};

/// Runs one experiment. Deterministic for a given config+seed.
RunResult run_experiment(const RunConfig& cfg);

/// Convenience: overhead of `mode` versus a stock run with the same seed.
/// For servers: relative throughput reduction; for batch: relative runtime
/// increase (§VII-C definitions).
double measure_overhead(const RunConfig& protected_cfg);

}  // namespace nlc::harness
