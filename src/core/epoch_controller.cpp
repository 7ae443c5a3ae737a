#include "core/epoch_controller.hpp"

#include <cmath>

namespace nlc::core::epochctl {

namespace {

// Feedback constants (DESIGN.md §15 gives the stability argument):
// multiplicative steps with an EWMA-smoothed input and a settle period
// give hysteresis — a change must survive several smoothed observations
// before the next one, so the controller cannot chatter on per-epoch
// noise, and the geometric step bounds convergence to O(log(range))
// decisions.
constexpr double kAlpha = 0.25;           // EWMA weight of a new sample
constexpr std::uint64_t kWarmup = 2;      // observations before deciding
constexpr std::uint64_t kEpochSettle = 4; // decision cadence, epoch mode
constexpr std::uint64_t kReplaySettle = 1;  // replay mode decides per epoch
constexpr double kShrinkStep = 0.8;
constexpr double kGrowStep = 1.25;
constexpr double kReplayShrinkStep = 0.75;
constexpr double kReplayGrowStep = 2.0;
// Freeze/dump overhead band (pause-side work over pause-to-pause wall).
// Below the band the commit cadence — not the dump — bounds client
// latency, so shrink; above it the dump overhead eats the execute phase,
// so grow. Equilibrium: pause work between ~35% and ~50% of one epoch.
constexpr double kOverheadShrink = 0.35;
constexpr double kOverheadGrow = 0.50;
// Epoch-mode shrink additionally requires that at least half of the
// observed releases emitted output AND drained the plug: only then is the
// workload in the request-response regime where a whole response waits on
// the commit cadence. Requests that span many epochs — heavy service
// times streaming partial output (lighttpd, djcms, ssdb), or a saturated
// pipeline — leave output pending at every release, and for them a
// shorter epoch cannot improve latency: it only adds pauses that stretch
// the service itself.
constexpr double kDrainShrink = 0.5;
// ... and that the container is idle at least half the time: every added
// pause is paid out of capacity, so a busy container (saturated client
// population, a pipelined connection, heavy per-request work) sees any
// shrink purely as stretched service time. Only shrink into slack.
constexpr double kBusyShrink = 0.5;
// Replay mode only doubles when the stop EWMA leaves headroom under the
// budget. Stop grows strongly sublinearly with length (dirty-set
// saturation — doubling the epoch adds far less than 2x the pages), so a
// thin 10% pre-step margin is enough; the hard budget check above shrinks
// back if a probe step does overshoot.
constexpr double kStopGrowMargin = 0.9;
// The ack pipeline keeps ≤ 2 un-checkpointed epochs alive, so failover
// replay backlog and backup-retained log are estimated at 2 epochs of the
// observed rates.
constexpr double kBacklogEpochs = 2.0;

void ewma(double& acc, double sample) {
  acc = acc < 0.0 ? sample : acc + (sample - acc) * kAlpha;
}

}  // namespace

EpochController::EpochController(const Options& opts, LogCostModel log_costs)
    : adaptive_(opts.epoch_policy == EpochPolicy::kAdaptive),
      replay_(opts.commit_mode == CommitMode::kReplay),
      max_len_(replay_ ? kReplayEpochTarget : kEpochMax),
      quantum_(replay_ ? nlc::milliseconds(10) : nlc::milliseconds(1)),
      log_costs_(log_costs),
      len_(opts.epoch_length) {
  if (adaptive_) {
    if (len_ < kEpochMin) len_ = kEpochMin;
    if (len_ > max_len_) len_ = max_len_;
  }
}

Time EpochController::clamp_quantize(double ns) const {
  Time t = static_cast<Time>(std::llround(ns / static_cast<double>(quantum_)))
           * quantum_;
  if (t < kEpochMin) t = kEpochMin;
  if (t > max_len_) t = max_len_;
  return t;
}

void EpochController::apply(Time next, std::uint64_t epoch) {
  if (next == len_) return;
  if (next > len_) ++grow_steps_; else ++shrink_steps_;
  len_ = next;
  last_change_epoch_ = epoch;
}

void EpochController::observe(const EpochObservation& o) {
  ++observations_;
  ewma(stop_ewma_, static_cast<double>(o.stop));
  // First steady epoch follows the initial full sync, whose wall time is
  // no epoch's: callers pass epoch_wall = 0 there and the fallback
  // (execute length + stop) seeds the EWMA instead.
  const double wall = o.epoch_wall > 0
                          ? static_cast<double>(o.epoch_wall)
                          : static_cast<double>(len_ + o.stop);
  ewma(wall_ewma_, wall);
  ewma(pause_side_ewma_, static_cast<double>(o.pause_work));
  ewma(entry_rate_ewma_, static_cast<double>(o.log_entries) / wall);
  ewma(byte_rate_ewma_, static_cast<double>(o.log_bytes) / wall);
  ewma(drain_ewma_, o.output_packets > 0 && o.plug_drained ? 1.0 : 0.0);
  ewma(busy_ewma_, static_cast<double>(o.busy) / wall);
  if (!adaptive_) return;
  ++since_decision_;
  if (observations_ <= kWarmup) return;
  if (since_decision_ < (replay_ ? kReplaySettle : kEpochSettle)) return;
  since_decision_ = 0;
  decide(o);
}

void EpochController::decide(const EpochObservation& o) {
  const double len = static_cast<double>(len_);
  const double wall = wall_ewma_ > 1.0 ? wall_ewma_ : 1.0;
  const double budget = static_cast<double>(kStopBudget);

  // Step helper: the quantized multiplicative move, forced to advance at
  // least one quantum so a small factor near the grid cannot stall.
  auto stepped = [&](double factor) {
    Time next = clamp_quantize(len * factor);
    if (next == len_ && factor < 1.0 && len_ - quantum_ >= kEpochMin) {
      next = len_ - quantum_;
    }
    if (next == len_ && factor > 1.0 && len_ + quantum_ <= max_len_) {
      next = len_ + quantum_;
    }
    return next;
  };
  auto step = [&](double factor) { apply(stepped(factor), o.epoch); };

  // The stop budget is the hard constraint in both modes: stop time grows
  // with epoch length (larger dirty set per pause), so over budget the
  // only move is down.
  if (stop_ewma_ > budget) {
    step(replay_ ? kReplayShrinkStep : kShrinkStep);
    return;
  }

  if (!replay_) {
    // Epoch mode: freeze/dump overhead fraction. The numerator is the
    // pause-side work (pause begin → harvest end) — in sync-ship
    // configurations the raw stop also contains ship and ack-wait, which
    // are commit-cadence costs, not dump overhead.
    const double overhead = pause_side_ewma_ / wall;
    if (overhead > kOverheadGrow) {
      step(kGrowStep);
    } else if (overhead < kOverheadShrink && drain_ewma_ >= kDrainShrink &&
               busy_ewma_ < kBusyShrink) {
      // Dump overhead is cheap and most releases commit whole responses,
      // so client p99 is bounded by the commit cadence (output waits out
      // the ship/ack side of the next commit): buy latency with more
      // frequent checkpoints. Streaming or output-starved epochs block
      // this move — see kDrainShrink. The step is also
      // checked predictively: pause-side work is mostly length-invariant
      // (freeze base + per-page dump of a saturating dirty set), so its
      // duty cycle at the shorter candidate is ≈ pause / (cand + pause);
      // refuse the move if that estimate would already breach the ceiling
      // — the EWMA would only discover the breach several epochs of
      // stretched service time later.
      const Time cand = stepped(kShrinkStep);
      const double pause = pause_side_ewma_;
      const double duty_est = pause / (static_cast<double>(cand) + pause);
      if (duty_est < kOverheadShrink) apply(cand, o.epoch);
    }
    return;
  }

  // Replay mode: stretch toward the target while every budget holds.
  double cand = len * kReplayGrowStep;
  const double max_len = static_cast<double>(max_len_);
  if (cand > max_len) cand = max_len;
  if (cand <= len) return;  // already at the target
  if (stop_ewma_ > kStopGrowMargin * budget) return;
  // Failover replays ≤ kBacklogEpochs of log entries at the candidate
  // length; the estimate must stay inside the recovery budget.
  const double replay_est =
      static_cast<double>(log_costs_.replay_base) +
      kBacklogEpochs * entry_rate_ewma_ * cand *
          static_cast<double>(log_costs_.replay_per_entry);
  if (replay_est > static_cast<double>(kReplayBudget)) return;
  // Checkpoint-commit truncation leaves ≈ kBacklogEpochs of segments
  // retained at the backup; bound that memory at the candidate length.
  const double retained_est = kBacklogEpochs * byte_rate_ewma_ * cand;
  if (retained_est > static_cast<double>(kLogRetainedBudget)) return;
  apply(clamp_quantize(cand), o.epoch);
}

}  // namespace nlc::core::epochctl
