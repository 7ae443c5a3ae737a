// Adaptive epoch controller (DESIGN.md §15): unit tests for the
// EpochController's feedback law (shrink/grow bands, the drain/busy/duty
// shrink gates, the replay-mode stretch and its three budget caps), plus
// the end-to-end contracts: observables — including the controller's own
// trajectory — are byte-identical for any NLC_JOBS value, a fault
// injected mid-adaptation recovers losslessly in both commit modes, and
// checkpoint-commit truncation bounds the backup's retained log even at
// second-scale epochs.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "apps/catalog.hpp"
#include "core/epoch_controller.hpp"
#include "core/options.hpp"
#include "harness/experiment.hpp"
#include "harness/parallel.hpp"

namespace nlc {
namespace {

using core::CommitMode;
using core::EpochPolicy;
using core::Options;
namespace epochctl = core::epochctl;
using core::epochctl::EpochController;
using core::epochctl::EpochObservation;
using harness::Mode;
using harness::RunConfig;
using harness::RunResult;
using harness::TrialRunner;

// --------------------------------------------------------- EpochController --

/// Builds one steady-state observation from the knobs the decision law
/// actually reads: the pause-side overhead fraction, the stop time, the
/// output-drain flag and the busy fraction. epoch_wall is len + stop (no
/// pipeline stall), matching what the primary agent stamps in the common
/// case.
EpochObservation obs(std::uint64_t epoch, Time len, double overhead,
                     Time stop, bool drained, double busy) {
  EpochObservation o;
  o.epoch = epoch;
  o.stop = stop;
  o.epoch_wall = len + stop;
  const double wall = static_cast<double>(o.epoch_wall);
  o.pause_work = static_cast<Time>(overhead * wall);
  o.output_packets = 1;
  o.plug_drained = drained;
  o.busy = static_cast<Time>(busy * wall);
  return o;
}

/// Drives `n` identical observations through the controller, tracking the
/// current length so the overhead fraction stays consistent as it adapts.
void feed(EpochController& ctl, std::uint64_t n, double overhead, Time stop,
          bool drained, double busy, std::uint64_t* epoch) {
  for (std::uint64_t i = 0; i < n; ++i) {
    ctl.observe(obs(++*epoch, ctl.epoch_length(), overhead, stop, drained,
                    busy));
  }
}

TEST(EpochControllerTest, FixedPolicyIsAPassThroughPacer) {
  Options o;  // epoch_policy defaults to kFixed
  EpochController ctl(o);
  EXPECT_FALSE(ctl.adaptive());
  std::uint64_t epoch = 0;
  // Wildly over-budget stops and saturated overhead: a fixed pacer must
  // not move regardless.
  feed(ctl, 20, 0.9, nlc::milliseconds(500), true, 1.0, &epoch);
  EXPECT_EQ(ctl.epoch_length(), o.epoch_length);
  EXPECT_EQ(ctl.grow_steps() + ctl.shrink_steps(), 0u);
  EXPECT_EQ(ctl.last_change_epoch(), 0u);
}

TEST(EpochControllerTest, EpochModeShrinksIntoIdleRequestResponseSlack) {
  Options o;
  o.epoch_policy = EpochPolicy::kAdaptive;
  EpochController ctl(o);
  EXPECT_TRUE(ctl.adaptive());
  EXPECT_FALSE(ctl.replay_mode());
  std::uint64_t epoch = 0;
  // Cheap dump, full drains, mostly idle: the commit cadence bounds p99,
  // so the controller must walk the length down.
  feed(ctl, 40, 0.05, nlc::milliseconds(2), true, 0.1, &epoch);
  EXPECT_GT(ctl.shrink_steps(), 2u);
  EXPECT_EQ(ctl.grow_steps(), 0u);
  EXPECT_LT(ctl.epoch_length(), o.epoch_length);
  EXPECT_GE(ctl.epoch_length(), epochctl::kEpochMin);
  EXPECT_GT(ctl.last_change_epoch(), 0u);
  // Epoch-mode lengths land on the 1 ms quantum.
  EXPECT_EQ(ctl.epoch_length() % nlc::milliseconds(1), 0u);
}

TEST(EpochControllerTest, EpochModeGrowsOutOfDumpOverhead) {
  Options o;
  o.epoch_policy = EpochPolicy::kAdaptive;
  EpochController ctl(o);
  std::uint64_t epoch = 0;
  // Pause-side work above the 50% ceiling: every decision must be a grow
  // until the fraction would fall back into the band (it never does here —
  // the fed overhead is constant — so the length rails at kEpochMax).
  feed(ctl, 60, 0.7, nlc::milliseconds(2), true, 0.1, &epoch);
  EXPECT_GT(ctl.grow_steps(), 2u);
  EXPECT_EQ(ctl.shrink_steps(), 0u);
  EXPECT_EQ(ctl.epoch_length(), epochctl::kEpochMax);
}

TEST(EpochControllerTest, StopBudgetOverrunForcesShrinkInBothModes) {
  for (CommitMode mode : {CommitMode::kEpoch, CommitMode::kReplay}) {
    Options o;
    o.epoch_policy = EpochPolicy::kAdaptive;
    o.commit_mode = mode;
    EpochController ctl(o);
    std::uint64_t epoch = 0;
    // Otherwise-growable conditions (high overhead in epoch mode; cold
    // log rates in replay mode) — but the stop EWMA is over budget, and
    // that constraint is hard in both modes.
    feed(ctl, 20, 0.7, epochctl::kStopBudget * 2, true, 0.1, &epoch);
    EXPECT_GT(ctl.shrink_steps(), 0u) << static_cast<int>(mode);
    EXPECT_EQ(ctl.grow_steps(), 0u) << static_cast<int>(mode);
    EXPECT_LT(ctl.epoch_length(), o.epoch_length) << static_cast<int>(mode);
  }
}

TEST(EpochControllerTest, PendingOutputBlocksEpochModeShrink) {
  Options o;
  o.epoch_policy = EpochPolicy::kAdaptive;
  EpochController ctl(o);
  std::uint64_t epoch = 0;
  // Same cheap-dump conditions as the shrink test, but every release
  // leaves output pending: responses stream across epochs, the cadence is
  // on no response's path, and a shrink would only add pauses.
  feed(ctl, 40, 0.05, nlc::milliseconds(2), /*drained=*/false, 0.1, &epoch);
  EXPECT_EQ(ctl.shrink_steps(), 0u);
  EXPECT_EQ(ctl.epoch_length(), o.epoch_length);
}

TEST(EpochControllerTest, BusyContainerBlocksEpochModeShrink) {
  Options o;
  o.epoch_policy = EpochPolicy::kAdaptive;
  EpochController ctl(o);
  std::uint64_t epoch = 0;
  // Full drains and a cheap dump, but the container is busy 90% of the
  // wall: there is no idle slack to pay the extra pauses from.
  feed(ctl, 40, 0.05, nlc::milliseconds(2), true, /*busy=*/0.9, &epoch);
  EXPECT_EQ(ctl.shrink_steps(), 0u);
  EXPECT_EQ(ctl.epoch_length(), o.epoch_length);
}

TEST(EpochControllerTest, PredictiveDutyGuardStopsTheShrinkWalk) {
  Options o;
  o.epoch_policy = EpochPolicy::kAdaptive;
  EpochController ctl(o);
  std::uint64_t epoch = 0;
  // 3 ms of length-invariant pause work. At 30 ms that is a 9% duty —
  // well under the shrink band — but the walk must stop before the
  // candidate length would push pause/(cand + pause) past the 35% floor:
  // cand > 3 ms * (1 - 0.35) / 0.35 ≈ 5.57 ms, i.e. the length can never
  // go below 6 ms even though kEpochMin is 5 ms.
  for (std::uint64_t i = 0; i < 60; ++i) {
    EpochObservation ob =
        obs(++epoch, ctl.epoch_length(), 0.0, nlc::milliseconds(2), true,
            0.1);
    ob.pause_work = nlc::milliseconds(3);
    ctl.observe(ob);
  }
  EXPECT_GT(ctl.shrink_steps(), 0u);
  EXPECT_GE(ctl.epoch_length(), nlc::milliseconds(6));
  EXPECT_GT(ctl.epoch_length(), epochctl::kEpochMin);
}

/// Replay-mode observation: log rates ride along with the usual fields.
EpochObservation replay_obs(std::uint64_t epoch, Time len, Time stop,
                            std::uint64_t log_entries,
                            std::uint64_t log_bytes) {
  EpochObservation o = obs(epoch, len, 0.1, stop, true, 0.3);
  o.log_entries = log_entries;
  o.log_bytes = log_bytes;
  return o;
}

TEST(EpochControllerTest, ReplayModeStretchesToTheTarget) {
  Options o;
  o.epoch_policy = EpochPolicy::kAdaptive;
  o.commit_mode = CommitMode::kReplay;
  EpochController ctl(o);
  EXPECT_TRUE(ctl.replay_mode());
  std::uint64_t epoch = 0;
  // Small stop, thin log: every budget holds at every candidate, so the
  // geometric stretch must reach kReplayEpochTarget (doubling from 30 ms
  // needs 7 grows; decisions are per-epoch after the 2-epoch warmup).
  for (std::uint64_t i = 0; i < 16; ++i) {
    ctl.observe(replay_obs(++epoch, ctl.epoch_length(), nlc::milliseconds(5),
                           100, 4096));
  }
  EXPECT_EQ(ctl.epoch_length(), epochctl::kReplayEpochTarget);
  EXPECT_GE(ctl.grow_steps(), 6u);
  EXPECT_EQ(ctl.shrink_steps(), 0u);
  // Replay-mode lengths land on the 10 ms quantum.
  EXPECT_EQ(ctl.epoch_length() % nlc::milliseconds(10), 0u);
}

TEST(EpochControllerTest, ReplayBudgetCapsTheStretch) {
  Options o;
  o.epoch_policy = EpochPolicy::kAdaptive;
  o.commit_mode = CommitMode::kReplay;
  EpochController ctl(o);
  std::uint64_t epoch = 0;
  // A hot log: ~1e6 entries per 30 ms epoch ≈ 0.03 entries/ns. The
  // failover estimate 2 * rate * cand * 150 ns already exceeds the 150 ms
  // replay budget at the first doubling (2 * 0.03 * 60 ms * 150 ≈ 540 ms),
  // so the controller must refuse to grow at all.
  for (std::uint64_t i = 0; i < 12; ++i) {
    ctl.observe(replay_obs(++epoch, ctl.epoch_length(), nlc::milliseconds(5),
                           1'000'000, 4096));
  }
  EXPECT_EQ(ctl.grow_steps(), 0u);
  EXPECT_EQ(ctl.epoch_length(), o.epoch_length);
}

TEST(EpochControllerTest, RetainedLogBudgetCapsTheStretch) {
  Options o;
  o.epoch_policy = EpochPolicy::kAdaptive;
  o.commit_mode = CommitMode::kReplay;
  EpochController ctl(o);
  std::uint64_t epoch = 0;
  // A fat log stream: 8 MiB per 30 ms epoch ≈ 0.26 bytes/ns. Retained
  // estimate 2 * rate * cand hits ~32 MiB at the first doubling — past
  // the 16 MiB budget — so the length must not move even though stop and
  // replay-time budgets are cold.
  for (std::uint64_t i = 0; i < 12; ++i) {
    ctl.observe(replay_obs(++epoch, ctl.epoch_length(), nlc::milliseconds(5),
                           100, 8u << 20));
  }
  EXPECT_EQ(ctl.grow_steps(), 0u);
  EXPECT_EQ(ctl.epoch_length(), o.epoch_length);
}

TEST(EpochControllerTest, IdenticalFeedsGiveIdenticalTrajectories) {
  // The controller is a pure function of its observation sequence — the
  // property every byte-determinism guarantee downstream leans on. Replay
  // the same mixed feed into two instances and compare every output.
  Options o;
  o.epoch_policy = EpochPolicy::kAdaptive;
  EpochController a(o), b(o);
  std::uint64_t ea = 0, eb = 0;
  std::vector<Time> ta, tb;
  auto drive = [](EpochController& c, std::uint64_t* e, std::vector<Time>* t) {
    // Phases: idle request-response (shrink), heavy dump (grow back),
    // over-budget stops (shrink again).
    for (int i = 0; i < 20; ++i) {
      c.observe(obs(++*e, c.epoch_length(), 0.05, nlc::milliseconds(2), true,
                    0.1));
      t->push_back(c.epoch_length());
    }
    for (int i = 0; i < 20; ++i) {
      c.observe(obs(++*e, c.epoch_length(), 0.7, nlc::milliseconds(8), false,
                    0.8));
      t->push_back(c.epoch_length());
    }
    for (int i = 0; i < 20; ++i) {
      c.observe(obs(++*e, c.epoch_length(), 0.2, nlc::milliseconds(90), true,
                    0.2));
      t->push_back(c.epoch_length());
    }
  };
  drive(a, &ea, &ta);
  drive(b, &eb, &tb);
  EXPECT_EQ(ta, tb);
  EXPECT_EQ(a.grow_steps(), b.grow_steps());
  EXPECT_EQ(a.shrink_steps(), b.shrink_steps());
  EXPECT_EQ(a.last_change_epoch(), b.last_change_epoch());
  // The mixed feed actually exercised both directions.
  EXPECT_GT(a.grow_steps(), 0u);
  EXPECT_GT(a.shrink_steps(), 0u);
}

// --------------------------------------------------- jobs byte-equivalence --

/// Everything the adaptive policy can observe or decide is identical
/// across NLC_JOBS: the simulated world, both wire streams, the client
/// view, and the controller's own trajectory.
struct Observables {
  std::uint64_t sim_events, requests, epochs, page_bytes;
  std::uint64_t log_bytes, retained_peak, pruned;
  std::uint64_t lat_count, len_count;
  double lat_mean, len_mean;
  std::uint64_t grow, shrink, last_change;
  Time final_len;

  static Observables of(const RunResult& r) {
    return {r.sim_events,
            r.requests_completed,
            r.metrics.epochs_completed,
            r.metrics.bytes_shipped,
            r.metrics.log_bytes_shipped,
            r.metrics.log_retained_bytes_peak,
            r.metrics.log_pruned_segments,
            static_cast<std::uint64_t>(r.latencies_ms.count()),
            static_cast<std::uint64_t>(r.metrics.epoch_len_ms.count()),
            r.latencies_ms.mean(),
            r.metrics.epoch_len_ms.mean(),
            r.metrics.ctl_grow_steps,
            r.metrics.ctl_shrink_steps,
            r.metrics.ctl_last_change_epoch,
            r.metrics.ctl_final_epoch_len};
  }
  bool operator==(const Observables&) const = default;
};

RunConfig adaptive_cfg(std::uint64_t seed, CommitMode commit) {
  RunConfig cfg;
  cfg.spec = apps::netecho_spec();
  cfg.spec.kv_pages = 128;
  cfg.mode = Mode::kNiLiCon;
  cfg.nilicon.commit_mode = commit;
  cfg.nilicon.epoch_policy = EpochPolicy::kAdaptive;
  // Single closed-loop client: the request-response regime where the
  // epoch-commit controller's drain/busy gates open and it demonstrably
  // adapts (a saturating population keeps it parked by design).
  cfg.client_connections = 1;
  cfg.measure = nlc::seconds(2);
  cfg.seed = seed;
  return cfg;
}

// The name predates the page pipeline's single loop; the shard dimension
// it names is gone, and the jobs dimension remains.
TEST(AdaptiveDeterminismTest, ObservablesIdenticalAcrossShardsAndJobs) {
  std::vector<RunConfig> cfgs;
  for (CommitMode commit : {CommitMode::kEpoch, CommitMode::kReplay}) {
    for (std::uint64_t seed : {5u, 6u}) {
      cfgs.push_back(adaptive_cfg(seed, commit));
    }
  }

  auto trial = [&](std::size_t i) {
    return Observables::of(harness::run_experiment(cfgs[i]));
  };
  TrialRunner serial(1);
  TrialRunner threaded(4);
  std::vector<Observables> a = serial.run(cfgs.size(), trial);
  std::vector<Observables> b = threaded.run(cfgs.size(), trial);

  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    EXPECT_TRUE(a[i] == b[i]) << "jobs changed observables of trial " << i;
    EXPECT_GT(a[i].epochs, 4u);
    // The controller actually adapted in every configuration — this suite
    // guards a moving length, not a fixed one that never exercises the
    // feedback path.
    EXPECT_GT(a[i].last_change, 0u) << "trial " << i << " never adapted";
  }
}

// ------------------------------------------------ failover mid-adaptation --

TEST(AdaptiveFailoverTest, EpochModeFaultDuringAdaptationRecovers) {
  RunConfig cfg = adaptive_cfg(23, CommitMode::kEpoch);
  cfg.measure = nlc::seconds(3);
  cfg.inject_fault = true;
  cfg.kv_validation = true;
  RunResult r = harness::run_experiment(cfg);
  ASSERT_TRUE(r.fault_injected);
  ASSERT_TRUE(r.recovered);
  EXPECT_EQ(r.kv_errors, 0u);
  EXPECT_EQ(r.broken_connections, 0u);
  EXPECT_GT(r.requests_after_fault, 0u);
  // The fault really landed on an adapted schedule.
  EXPECT_GT(r.metrics.ctl_last_change_epoch, 0u);
  EXPECT_LT(r.metrics.ctl_final_epoch_len, Options{}.epoch_length);
}

TEST(AdaptiveFailoverTest, ReplayModeFaultAtLongEpochsRecovers) {
  // Regression for the commit-during-restore race: with second-scale
  // adapted epochs, BackupAgent::recover()'s modeled sleeps are long
  // enough for a NEW checkpoint to drain from the state channel mid-
  // restore, advancing the committed log cursor under a restore built
  // from the older image — the replay filter then skipped inputs the
  // restored TCP state never saw, tripping the rcv_nxt continuity
  // invariant at re-injection. recovering_ now freezes commit-begin for
  // the duration of the restore. This exact configuration (node, replay,
  // adaptive, seed 2, 24 s) reproduced the race before the fix.
  RunConfig cfg;
  cfg.spec = apps::node_spec();
  cfg.mode = Mode::kNiLiCon;
  cfg.nilicon.commit_mode = CommitMode::kReplay;
  cfg.nilicon.epoch_policy = EpochPolicy::kAdaptive;
  cfg.measure = nlc::seconds(24);
  cfg.seed = 2;
  cfg.inject_fault = true;
  RunResult r = harness::run_experiment(cfg);
  ASSERT_TRUE(r.fault_injected);
  ASSERT_TRUE(r.recovered);
  EXPECT_EQ(r.broken_connections, 0u);
  EXPECT_GT(r.requests_after_fault, 0u);
  // The crash interrupted genuinely long epochs, not the 30 ms seed.
  EXPECT_GT(r.metrics.ctl_final_epoch_len, Options{}.epoch_length);
}

// ------------------------------------------------- retained-log truncation --

TEST(AdaptiveLogTruncationTest, CheckpointCommitBoundsRetainedLogAt1sEpochs) {
  // Fixed 1 s epochs, long run: without checkpoint-commit truncation the
  // backup would retain the whole accepted log (every shipped byte); with
  // it the high-water mark stays around two epochs of segments no matter
  // how long the run is.
  RunConfig cfg;
  cfg.spec = apps::netecho_spec();
  cfg.spec.kv_pages = 128;
  cfg.mode = Mode::kNiLiCon;
  cfg.nilicon.commit_mode = CommitMode::kReplay;
  cfg.nilicon.epoch_length = nlc::seconds(1);
  cfg.measure = nlc::seconds(8);
  cfg.seed = 11;
  RunResult r = harness::run_experiment(cfg);
  EXPECT_GT(r.metrics.epochs_completed, 6u);
  EXPECT_GT(r.metrics.log_retained_bytes_peak, 0u);
  EXPECT_GT(r.metrics.log_pruned_segments, 0u);
  // ~2 epochs retained out of ~8: well under half of everything shipped.
  EXPECT_LT(r.metrics.log_retained_bytes_peak,
            r.metrics.log_bytes_shipped / 2);
  EXPECT_LE(r.metrics.log_retained_bytes_peak, epochctl::kLogRetainedBudget);
}

}  // namespace
}  // namespace nlc
