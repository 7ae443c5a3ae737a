// Replay commit mode (DESIGN.md §14): unit tests for the backup-side
// ReplayEngine's segment validation (truncation/corruption/gap rejection,
// checkpoint-boundary replay), plus the end-to-end contracts: observables
// are byte-identical for any NLC_JOBS value, and a failover injected
// mid-epoch replays the accepted log on top of the restored checkpoint to
// the released-output point with no client-visible loss.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "apps/catalog.hpp"
#include "core/event_log.hpp"
#include "core/protocol.hpp"
#include "core/replay.hpp"
#include "harness/experiment.hpp"
#include "harness/parallel.hpp"

namespace nlc {
namespace {

using core::EventLog;
using core::LogSegmentMsg;
using core::NdEvent;
using core::replay::ReplayEngine;
using core::replay::ReplayResult;
using harness::Mode;
using harness::RunConfig;
using harness::RunResult;
using harness::TrialRunner;

// ------------------------------------------------------------ ReplayEngine --

/// Records a deterministic mix of the three event types and cuts one
/// segment, exactly as the primary's flush loop would.
LogSegmentMsg make_segment(EventLog& log, int entries, std::uint64_t salt) {
  for (int i = 0; i < entries; ++i) {
    switch (i % 3) {
      case 0: log.on_net_input(salt, static_cast<std::uint64_t>(i),
                               salt * 31 + static_cast<std::uint64_t>(i));
              break;
      case 1: log.on_timer(salt & 0xff, static_cast<std::uint64_t>(i)); break;
      default: log.on_rng_draw(salt ^ (static_cast<std::uint64_t>(i) << 8));
    }
  }
  return log.cut_segment();
}

TEST(ReplayEngineTest, AcceptsOrderedSegmentsAndReplaysToAcceptedEnd) {
  EventLog log;
  ReplayEngine eng;
  for (std::uint64_t s = 0; s < 4; ++s) {
    EXPECT_TRUE(eng.ingest(make_segment(log, 5, s)));
  }
  EXPECT_EQ(eng.accepted_end_index(), 20u);
  EXPECT_EQ(eng.accepted_end_fp(), log.chain_fp());
  EXPECT_EQ(eng.segments_rejected(), 0u);

  // Full replay from the chain seed re-reaches the primary's fingerprint.
  ReplayResult full = eng.replay(0, core::kNdChainSeed);
  EXPECT_EQ(full.entries_replayed, 20u);
  EXPECT_EQ(full.segments_replayed, 4u);
  EXPECT_EQ(full.final_fp, log.chain_fp());
  EXPECT_GT(full.cost, 0);

  // A checkpoint already at the accepted end leaves nothing to replay.
  ReplayResult none = eng.replay(20, log.chain_fp());
  EXPECT_EQ(none.entries_replayed, 0u);
  EXPECT_EQ(none.final_fp, log.chain_fp());
  EXPECT_EQ(none.cost, 0);
}

TEST(ReplayEngineTest, ReplaysOnlyTheSuffixPastTheCheckpointStamp) {
  EventLog log;
  ReplayEngine eng;
  LogSegmentMsg a = make_segment(log, 6, 1);
  // The mid-segment fingerprint a committed checkpoint would stamp.
  std::uint64_t fp = a.start_fp;
  for (int i = 0; i < 4; ++i) fp = core::nd_chain_fold(fp, a.entries[i]);
  ASSERT_TRUE(eng.ingest(a));
  ASSERT_TRUE(eng.ingest(make_segment(log, 3, 2)));

  ReplayResult r = eng.replay(4, fp);
  EXPECT_EQ(r.entries_replayed, 5u);  // 2 from segment a + 3 from b
  EXPECT_EQ(r.segments_replayed, 2u);
  EXPECT_EQ(r.final_fp, log.chain_fp());

  // Pruning keeps the straddling segment: entries past index 4 live in
  // segment a, so a prune at the checkpoint boundary must not drop it.
  eng.prune_below(4);
  EXPECT_EQ(eng.segments_held(), 2u);
  eng.prune_below(6);
  EXPECT_EQ(eng.segments_held(), 1u);
}

TEST(ReplayEngineTest, RejectsTruncatedSegment) {
  EventLog log;
  ReplayEngine eng;
  LogSegmentMsg seg = make_segment(log, 5, 7);
  seg.entries.pop_back();  // truncated in flight; claimed end_fp kept
  EXPECT_FALSE(eng.ingest(seg));
  EXPECT_EQ(eng.segments_rejected(), 1u);
  EXPECT_EQ(eng.accepted_end_index(), 0u);
  EXPECT_EQ(eng.accepted_end_fp(), core::kNdChainSeed);
  EXPECT_EQ(eng.segments_held(), 0u);
}

TEST(ReplayEngineTest, RejectsCorruptedEntry) {
  EventLog log;
  ReplayEngine eng;
  LogSegmentMsg seg = make_segment(log, 5, 9);
  seg.entries[2].a ^= 1;  // bit flip: chain fold cannot reproduce end_fp
  EXPECT_FALSE(eng.ingest(seg));
  EXPECT_EQ(eng.segments_rejected(), 1u);
  EXPECT_EQ(eng.accepted_end_index(), 0u);
}

TEST(ReplayEngineTest, RejectsSequenceGapAndStaleReplay) {
  EventLog log;
  ReplayEngine eng;
  LogSegmentMsg a = make_segment(log, 4, 3);
  LogSegmentMsg b = make_segment(log, 4, 4);
  EXPECT_FALSE(eng.ingest(b));  // gap: seq 1 before seq 0
  EXPECT_EQ(eng.accepted_end_index(), 0u);
  ASSERT_TRUE(eng.ingest(a));
  EXPECT_FALSE(eng.ingest(a));  // duplicate
  ASSERT_TRUE(eng.ingest(b));
  EXPECT_EQ(eng.segments_rejected(), 2u);
  EXPECT_EQ(eng.accepted_end_fp(), log.chain_fp());
}

// --------------------------------------------------- jobs byte-equivalence --

/// Everything replay mode promises is identical across NLC_JOBS: the
/// simulated world, both wire streams, and the client view.
struct Observables {
  std::uint64_t sim_events, requests, epochs, page_bytes;
  std::uint64_t log_bytes, log_segments, log_entries;
  std::uint64_t lat_count;
  double lat_mean, rps;

  static Observables of(const RunResult& r) {
    return {r.sim_events,
            r.requests_completed,
            r.metrics.epochs_completed,
            r.metrics.bytes_shipped,
            r.metrics.log_bytes_shipped,
            r.metrics.log_segments_shipped,
            r.metrics.log_entries_recorded,
            static_cast<std::uint64_t>(r.latencies_ms.count()),
            r.latencies_ms.mean(),
            r.throughput_rps};
  }
  bool operator==(const Observables&) const = default;
};

RunConfig replay_cfg(std::uint64_t seed) {
  RunConfig cfg;
  cfg.spec = apps::netecho_spec();
  cfg.spec.kv_pages = 128;
  cfg.mode = Mode::kNiLiCon;
  cfg.nilicon.commit_mode = core::CommitMode::kReplay;
  cfg.measure = nlc::seconds(2);
  cfg.seed = seed;
  return cfg;
}

// The name predates the page pipeline's single loop; the shard dimension
// it names is gone, and the jobs dimension remains.
TEST(ReplayDeterminismTest, ObservablesIdenticalAcrossShardsAndJobs) {
  const std::uint64_t kSeeds[] = {5, 6};
  std::vector<RunConfig> cfgs;
  for (std::uint64_t seed : kSeeds) {
    // Each seed twice, the second run with the auditor riding along.
    cfgs.push_back(replay_cfg(seed));
    cfgs.push_back(replay_cfg(seed));
    cfgs.back().nilicon.audit_level = core::AuditLevel::kCommitPoints;
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
    EXPECT_GT(a[i].epochs, 10u);
    EXPECT_GT(a[i].log_entries, 0u);
    EXPECT_GT(a[i].log_bytes, 0u);
    EXPECT_LT(a[i].log_bytes, a[i].page_bytes);  // thin-stream asymmetry
  }
  // The auditor must not leak into any observable (seed-wise pairs).
  for (std::size_t s = 0; s < 2; ++s) {
    EXPECT_TRUE(a[s * 2] == a[s * 2 + 1])
        << "the auditor changed observables, seed set " << s;
  }
}

// ---------------------------------------------------- failover mid-epoch ----

TEST(ReplayFailoverTest, MidEpochFailoverReplaysLogToReleasePoint) {
  std::uint64_t events = 0, segments = 0, inputs = 0;
  for (std::uint64_t seed : {17u, 29u, 41u}) {
    RunConfig cfg = replay_cfg(seed);
    cfg.measure = nlc::seconds(3);
    cfg.inject_fault = true;
    cfg.kv_validation = true;
    cfg.client_connections = 2;
    RunResult r = harness::run_experiment(cfg);
    ASSERT_TRUE(r.fault_injected) << seed;
    ASSERT_TRUE(r.recovered) << seed;
    EXPECT_TRUE(r.recovery.triggered) << seed;
    // Released output is never rolled back: the client sees no corruption
    // and no torn connection even though the crash landed past released
    // acks that only the event log can explain.
    EXPECT_EQ(r.kv_errors, 0u) << seed;
    EXPECT_EQ(r.broken_connections, 0u) << seed;
    EXPECT_GT(r.requests_after_fault, 0u) << seed;
    events += r.recovery.events_replayed;
    segments += r.recovery.segments_replayed;
    inputs += r.recovery.inputs_reinjected;
  }
  // Across the seed set, at least one crash lands mid-epoch with events
  // logged past the committed checkpoint — those must actually replay,
  // and their input sidecars must be re-injected into repaired sockets.
  EXPECT_GT(events, 0u);
  EXPECT_GT(segments, 0u);
  EXPECT_GT(inputs, 0u);
}

}  // namespace
}  // namespace nlc
