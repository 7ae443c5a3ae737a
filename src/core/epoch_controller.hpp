// Adaptive epoch-length controller (DESIGN.md §15).
//
// Closes the loop the flight recorder opened: the primary agent feeds one
// EpochObservation per committed epoch — pause-side work, stop time,
// pause-to-pause wall time, released output, container busy time and
// log-stream growth — and the controller retunes the next execute-phase
// length instead of running the paper's fixed 30 ms.
//
// Two policies (Options::epoch_policy):
//   kFixed    — epoch_length() always returns Options::epoch_length, the
//               paper's cadence; observations never move it.
//   kAdaptive — epoch commit mode: minimize p99 response time subject to
//               the stop-time budget. Client latency tracks the epoch
//               length (output is held until the next commit), so the
//               controller shrinks while the freeze/dump overhead fraction
//               stays low AND most epochs actually release client output —
//               when a typical request spans many epochs (heavy services),
//               the commit cadence is on no response's path and shrinking
//               only stretches service time with extra pauses. It grows
//               back when the overhead fraction — pause-side work over
//               pause-to-pause wall time — crosses the ceiling or the stop
//               budget is exceeded.
//               Replay commit mode: client latency is decoupled from epoch
//               length (released on log acks), so the controller stretches
//               epochs toward kReplayEpochTarget to cut page wire bytes,
//               as long as the stop budget, the estimated failover replay
//               time and the estimated backup-retained log bytes (post
//               checkpoint-commit truncation, ≈ 2 epochs of segments) all
//               stay inside their budgets.
//
// Everything in this namespace is a pure function of simulated-time
// observables: no wall clock, no ambient randomness (enforced by the
// nlc_lint `replay-wallclock` rule, which covers `epochctl` regions), so
// every byte-determinism guarantee (any NLC_JOBS × NLC_SIMD) survives
// adaptation.
#pragma once

#include <cstdint>

#include "core/event_log.hpp"
#include "core/options.hpp"
#include "util/time.hpp"

namespace nlc::core::epochctl {

// The clamp range and budgets of the law. The feedback constants (EWMA
// weight, steps, bands) sit in epoch_controller.cpp.

/// Clamp range for adapted lengths (epoch commit mode; replay mode may
/// grow past kEpochMax up to kReplayEpochTarget).
inline constexpr Time kEpochMin = nlc::milliseconds(5);
inline constexpr Time kEpochMax = nlc::milliseconds(240);
/// Replay mode: the HyCoR-style long-epoch target (second-scale
/// checkpoints). 2 s is where the paper benchmarks' dirty-set saturation
/// pays off: every locality app re-dirties enough of its working set
/// that page wire bytes drop >= 3x vs the fixed 30 ms epochs.
inline constexpr Time kReplayEpochTarget = nlc::seconds(2);
/// Hard ceiling on the per-epoch container stop time; the controller
/// shrinks whenever the observed stop EWMA exceeds it. Calibrated just
/// above the paper's worst Table III stop (node: 38.2 ms at the default
/// 30 ms epochs) — a budget below what the fixed-epoch baseline already
/// incurs would misread the workload as over-length and shrink into
/// pure capacity loss (the stop is base-dominated there, so shrinking
/// cannot buy it back).
inline constexpr Time kStopBudget = nlc::milliseconds(40);
/// Replay mode: bound on the estimated failover replay time implied by
/// the un-checkpointed log backlog (≤ 2 epochs of entries).
inline constexpr Time kReplayBudget = nlc::milliseconds(150);
/// Replay mode: bound on the estimated backup-retained log bytes
/// (checkpoint-commit truncation keeps ~2 epochs of segments alive).
inline constexpr std::uint64_t kLogRetainedBudget = 16ull << 20;

/// One committed epoch as the controller sees it. All fields are simulated
/// time or simulated counters stamped by the primary agent.
struct EpochObservation {
  std::uint64_t epoch = 0;
  /// Pause begin to harvest end: the freeze, input block, barrier and
  /// harvest of this epoch's checkpoint (the freeze + harvest + encode
  /// segments of trace::CriticalPath; encode takes no simulated time). The
  /// numerator of the overhead fraction.
  Time pause_work = 0;
  /// Container stop time of this epoch's checkpoint.
  Time stop = 0;
  /// Pause-begin to pause-begin wall time (execute + stop + pipeline
  /// stalls); the denominator of the overhead fraction.
  Time epoch_wall = 0;
  /// Client output packets released since the previous observation, and
  /// whether that release left the plug empty. Together they form the
  /// epoch-mode shrink gate: a release that emits output AND drains the
  /// plug is the request-response idiom (the whole response waited on the
  /// commit cadence); a release that leaves output pending is a response
  /// streaming across epochs (or a saturated pipeline), whose latency the
  /// cadence does not bound.
  std::uint64_t output_packets = 0;
  bool plug_drained = false;
  /// Container CPU time consumed since the previous observation. The busy
  /// fraction (busy / epoch_wall) is the second epoch-mode shrink gate:
  /// extra pauses cost capacity, so shrinking is only safe while the
  /// container has idle headroom — a busy container (saturated clients, a
  /// pipelined connection, heavy per-request work) pays every added pause
  /// as stretched service time.
  Time busy = 0;
  /// Nondeterministic-event log growth during this epoch (replay mode).
  std::uint64_t log_entries = 0;
  std::uint64_t log_bytes = 0;
};

class EpochController {
 public:
  explicit EpochController(const Options& opts, LogCostModel log_costs = {});

  /// The execute-phase length the next epoch should run.
  Time epoch_length() const { return len_; }
  bool adaptive() const { return adaptive_; }
  bool replay_mode() const { return replay_; }

  /// Feeds one committed epoch; may retune epoch_length(). Observations
  /// must arrive in epoch order (the ack pipeline guarantees it).
  void observe(const EpochObservation& o);

  std::uint64_t grow_steps() const { return grow_steps_; }
  std::uint64_t shrink_steps() const { return shrink_steps_; }
  /// Epoch of the last length change; 0 = never adapted. The convergence
  /// point nlc_run's controller summary reports.
  std::uint64_t last_change_epoch() const { return last_change_epoch_; }

 private:
  void decide(const EpochObservation& o);
  Time clamp_quantize(double ns) const;
  void apply(Time next, std::uint64_t epoch);

  // Config (copied, not referenced: the controller outlives no one).
  bool adaptive_ = false;
  bool replay_ = false;
  /// kEpochMax, or kReplayEpochTarget in replay commit mode.
  Time max_len_ = 0;
  Time quantum_ = 0;
  LogCostModel log_costs_;

  Time len_ = 0;

  // EWMA state (alpha = 1/4 after the seeding sample). Doubles are fine
  // for determinism: IEEE arithmetic over the same observation sequence
  // is bit-identical on every job/tier configuration.
  double stop_ewma_ = -1.0;
  double wall_ewma_ = -1.0;
  double pause_side_ewma_ = -1.0;  // pause_work, ns
  double entry_rate_ewma_ = -1.0;  // log entries per simulated ns
  double byte_rate_ewma_ = -1.0;   // log wire bytes per simulated ns
  double drain_ewma_ = -1.0;  // fraction of epochs with a full output drain
  double busy_ewma_ = -1.0;   // container busy fraction of the epoch wall

  std::uint64_t observations_ = 0;
  std::uint64_t since_decision_ = 0;
  std::uint64_t grow_steps_ = 0;
  std::uint64_t shrink_steps_ = 0;
  std::uint64_t last_change_epoch_ = 0;
};

}  // namespace nlc::core::epochctl
