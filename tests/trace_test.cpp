// Flight-recorder subsystem tests (DESIGN.md §11): recorder semantics, span
// validation, exporter golden file, the determinism contract (tracing is
// observer-only), failover timeline content, the critical-path analyzer
// and the trace ordering oracle.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "apps/catalog.hpp"
#include "check/trace_oracle.hpp"
#include "harness/experiment.hpp"
#include "harness/parallel.hpp"
#include "trace/critical_path.hpp"
#include "trace/events.hpp"
#include "trace/export.hpp"
#include "trace/recorder.hpp"
#include "trace/stream.hpp"

namespace nlc {
namespace {

using trace::Event;
using trace::EventType;
using trace::Recorder;
using trace::Stage;
using trace::Track;

Event make_event(std::uint64_t seq, Time sim_ns, std::uint64_t arg,
                 EventType type, Track track, Stage stage) {
  return Event{seq, sim_ns, /*wall_ns=*/0, arg, type, track, stage};
}

// -------------------------------------------------------------- Recorder ----

/// A recorder on its own stream, written through an Observer the way the
/// components write it.
struct RecorderRig {
  explicit RecorderRig(std::size_t capacity = Recorder::kDefaultCapacity)
      : rec(capacity) {
    stream.subscribe(&rec);
    obs.attach(&stream);
  }
  Recorder rec;
  trace::Stream stream;
  trace::Observer obs;
};

TEST(RecorderTest, RecordsAndDrainsInOrder) {
  RecorderRig r;
  r.obs.span_begin(Track::kPrimary, Stage::kPause, nlc::milliseconds(30), 0);
  r.obs.instant(Track::kPrimary, Stage::kAckRecv, nlc::milliseconds(31), 0);
  r.obs.counter(Track::kPrimary, Stage::kDirtyPages, nlc::milliseconds(31),
                17);
  r.obs.span_end(Track::kPrimary, Stage::kPause, nlc::milliseconds(32), 0);
  std::vector<Event> ev = r.rec.drain();
  ASSERT_EQ(ev.size(), 4u);
  EXPECT_EQ(r.rec.recorded(), 4u);
  EXPECT_EQ(r.rec.dropped(), 0u);
  for (std::size_t i = 0; i < ev.size(); ++i) {
    EXPECT_EQ(ev[i].seq, i);
  }
  EXPECT_EQ(ev[2].arg, 17u);
  EXPECT_EQ(ev[2].type, EventType::kCounter);
  // Dual stamps: wall clock populated alongside the simulated time.
  EXPECT_GT(ev[0].wall_ns, 0u);
  EXPECT_EQ(ev[0].sim_ns, nlc::milliseconds(30));
}

TEST(RecorderTest, OverflowDropsNewestAndCounts) {
  RecorderRig r(/*capacity=*/8);
  for (int i = 0; i < 20; ++i) {
    r.obs.instant(Track::kPrimary, Stage::kResume, nlc::milliseconds(i),
                  static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(r.rec.recorded(), 8u);
  EXPECT_EQ(r.rec.dropped(), 12u);
  std::vector<Event> ev = r.rec.drain();
  ASSERT_EQ(ev.size(), 8u);
  // Drop-newest: the surviving prefix is the *oldest* 8 events, intact.
  for (std::size_t i = 0; i < ev.size(); ++i) {
    EXPECT_EQ(ev[i].arg, i);
    EXPECT_EQ(ev[i].seq, i);
  }
}

// ---------------------------------------------------------------- Stream ----

TEST(StreamTest, RecorderKeepsAllButAuditorOnlyEmissions) {
  struct Counting : trace::Subscriber {
    int events = 0;
    void on_event(const Event&, const trace::Detail&) override { ++events; }
  };
  Recorder rec;
  Counting all;
  trace::Stream stream;
  stream.subscribe(&rec);
  stream.subscribe(&all);
  trace::Observer obs;
  obs.instant(Track::kPrimary, Stage::kAckRecv, 1, 0);  // detached: dropped
  obs.attach(&stream);
  obs.instant(Track::kPrimary, Stage::kAckRecv, 2, 0);
  obs.instant(Track::kPrimary, Stage::kStateReady, 3, 0);  // auditor-only
  obs.instant(Track::kPrimary, Stage::kReplicaAck, 4, 0, {.ring = false});
  EXPECT_EQ(all.events, 3);
  std::vector<Event> ev = rec.drain();
  ASSERT_EQ(ev.size(), 1u);
  EXPECT_EQ(ev[0].stage, Stage::kAckRecv);
  EXPECT_EQ(ev[0].sim_ns, 2);
  stream.unsubscribe(&all);
  obs.instant(Track::kPrimary, Stage::kAckRecv, 5, 0);
  EXPECT_EQ(all.events, 3);
  EXPECT_EQ(rec.recorded(), 2u);
}

// ------------------------------------------------------- span validation ----

TEST(SpanCheckTest, ValidNestingPasses) {
  std::vector<Event> ev;
  ev.push_back(make_event(0, 0, 1, EventType::kSpanBegin, Track::kBackup,
                          Stage::kCommit));
  ev.push_back(make_event(1, 1, 1, EventType::kSpanBegin, Track::kBackup,
                          Stage::kFold));
  ev.push_back(make_event(2, 2, 1, EventType::kSpanEnd, Track::kBackup,
                          Stage::kFold));
  // A span on another track may interleave freely.
  ev.push_back(make_event(3, 2, 1, EventType::kSpanBegin, Track::kPrimary,
                          Stage::kPause));
  ev.push_back(make_event(4, 3, 1, EventType::kSpanEnd, Track::kBackup,
                          Stage::kCommit));
  ev.push_back(make_event(5, 4, 1, EventType::kSpanEnd, Track::kPrimary,
                          Stage::kPause));
  trace::SpanCheck chk = trace::validate_spans(ev);
  EXPECT_TRUE(chk.ok) << chk.error;
  EXPECT_EQ(chk.unclosed, 0u);
}

TEST(SpanCheckTest, MismatchedEndIsFlagged) {
  std::vector<Event> ev;
  ev.push_back(make_event(0, 0, 1, EventType::kSpanBegin, Track::kBackup,
                          Stage::kCommit));
  ev.push_back(make_event(1, 1, 1, EventType::kSpanEnd, Track::kBackup,
                          Stage::kFold));
  trace::SpanCheck chk = trace::validate_spans(ev);
  EXPECT_FALSE(chk.ok);
  EXPECT_NE(chk.error.find("fold"), std::string::npos);
}

TEST(SpanCheckTest, EndWithoutBeginIsFlagged) {
  std::vector<Event> ev;
  ev.push_back(make_event(0, 0, 1, EventType::kSpanEnd, Track::kPrimary,
                          Stage::kPause));
  trace::SpanCheck chk = trace::validate_spans(ev);
  EXPECT_FALSE(chk.ok);
  EXPECT_NE(chk.error.find("no open span"), std::string::npos);
}

TEST(SpanCheckTest, UnclosedSpansAreToleratedAndCounted) {
  // A flight recorder is truncated by design (e.g. the primary was killed
  // mid-pause): open spans are not an error.
  std::vector<Event> ev;
  ev.push_back(make_event(0, 0, 1, EventType::kSpanBegin, Track::kPrimary,
                          Stage::kPause));
  ev.push_back(make_event(1, 1, 1, EventType::kSpanBegin, Track::kPrimary,
                          Stage::kHarvest));
  trace::SpanCheck chk = trace::validate_spans(ev);
  EXPECT_TRUE(chk.ok) << chk.error;
  EXPECT_EQ(chk.unclosed, 2u);
}

// -------------------------------------------------------------- exporter ----

std::vector<Event> exporter_fixture() {
  std::vector<Event> ev;
  std::uint64_t s = 0;
  ev.push_back(make_event(s++, nlc::milliseconds(30), 1,
                          EventType::kSpanBegin, Track::kPrimary,
                          Stage::kPause));
  ev.push_back(make_event(s++, nlc::milliseconds(30) + nlc::microseconds(200),
                          1, EventType::kSpanBegin, Track::kPrimary,
                          Stage::kHarvest));
  ev.push_back(make_event(s++, nlc::milliseconds(31), 1, EventType::kSpanEnd,
                          Track::kPrimary, Stage::kHarvest));
  ev.push_back(make_event(s++, nlc::milliseconds(31), 42,
                          EventType::kCounter, Track::kPrimary,
                          Stage::kDirtyPages));
  ev.push_back(make_event(s++, nlc::milliseconds(31) + nlc::microseconds(500),
                          1, EventType::kSpanEnd, Track::kPrimary,
                          Stage::kPause));
  ev.push_back(make_event(s++, nlc::milliseconds(32), 1,
                          EventType::kSpanBegin, Track::kPrimaryShip,
                          Stage::kShip));
  ev.push_back(make_event(s++, nlc::milliseconds(34), 1, EventType::kSpanEnd,
                          Track::kPrimaryShip, Stage::kShip));
  ev.push_back(make_event(s++, nlc::milliseconds(35), 1, EventType::kInstant,
                          Track::kDrbd, Stage::kDrbdBarrier));
  ev.push_back(make_event(s++, nlc::milliseconds(36), 1, EventType::kInstant,
                          Track::kPrimary, Stage::kAckRecv));
  ev.push_back(make_event(s++, nlc::milliseconds(36) + nlc::microseconds(100),
                          1, EventType::kInstant, Track::kPrimary,
                          Stage::kRelease));
  return ev;
}

TEST(ExportTest, ChromeTraceJsonMatchesGoldenFile) {
  // Wall stamps are the one nondeterministic field, so the golden export
  // omits them; everything else must be byte-stable. Regenerate with
  // NLC_UPDATE_GOLDEN=1 after an intentional format change.
  trace::ExportOptions opts;
  opts.wall_clock = false;
  std::string json = trace::chrome_trace_json(exporter_fixture(), opts);
  std::string path = std::string(NLC_TRACE_GOLDEN_DIR) + "/trace_golden.json";
  if (std::getenv("NLC_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    out << json;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << path;
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(json, buf.str());
}

TEST(ExportTest, JsonNamesTracksAndPhases) {
  std::string json = trace::chrome_trace_json(exporter_fixture());
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"primary-agent\""), std::string::npos);
  EXPECT_NE(json.find("\"primary-ship\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"B\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"E\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"C\""), std::string::npos);
  EXPECT_NE(json.find("\"wall_ns\""), std::string::npos);
}

TEST(ExportTest, TextTimelineListsEvents) {
  std::string txt = trace::text_timeline(exporter_fixture());
  EXPECT_NE(txt.find("pause"), std::string::npos);
  EXPECT_NE(txt.find("dirty-pages"), std::string::npos);
  EXPECT_NE(txt.find("drbd-barrier"), std::string::npos);
}

// ----------------------------------------------------------- determinism ----

harness::RunConfig traced_config(bool tracing) {
  harness::RunConfig cfg;
  cfg.spec = apps::netecho_spec();
  cfg.spec.kv_pages = 256;
  cfg.mode = harness::Mode::kNiLiCon;
  cfg.warmup = nlc::milliseconds(200);
  cfg.measure = nlc::seconds(2);
  cfg.nilicon.trace_level =
      tracing ? core::TraceLevel::kFull : core::TraceLevel::kOff;
  return cfg;
}

void expect_same_observables(const harness::RunResult& a,
                             const harness::RunResult& b) {
  EXPECT_EQ(a.sim_events, b.sim_events);
  EXPECT_EQ(a.requests_completed, b.requests_completed);
  EXPECT_EQ(a.metrics.epochs_completed, b.metrics.epochs_completed);
  EXPECT_EQ(a.metrics.bytes_shipped, b.metrics.bytes_shipped);
  EXPECT_DOUBLE_EQ(a.throughput_rps, b.throughput_rps);
  EXPECT_DOUBLE_EQ(a.metrics.stop_time_ms.mean(),
                   b.metrics.stop_time_ms.mean());
}

TEST(TraceDeterminismTest, ObservablesIdenticalTraceOnVsOff) {
  // Tracing is observer-only: a traced run's simulated observables are
  // identical to the untraced run's.
  harness::RunResult off = harness::run_experiment(traced_config(false));
  harness::RunResult on = harness::run_experiment(traced_config(true));
  ASSERT_EQ(off.trace, nullptr);
  ASSERT_NE(on.trace, nullptr);
  EXPECT_GT(on.trace->recorded(), 0u);
  expect_same_observables(off, on);
}

TEST(TraceDeterminismTest, ObservablesIdenticalAcrossTrialJobs) {
  // Same contract under the parallel trial runner: 1 job vs 4 jobs.
  auto trial = [](harness::TrialContext& ctx) {
    harness::RunConfig cfg = traced_config(true);
    cfg.seed = 1 + ctx.index;
    harness::RunResult r = harness::run_experiment(cfg);
    ctx.sim_events = r.sim_events;
    return r;
  };
  harness::TrialRunner serial(1);
  harness::TrialRunner wide(4);
  std::vector<harness::RunResult> a = serial.run(4, trial);
  std::vector<harness::RunResult> b = wide.run(4, trial);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    expect_same_observables(a[i], b[i]);
    ASSERT_NE(b[i].trace, nullptr);
    trace::SpanCheck chk = trace::validate_spans(b[i].trace->drain());
    EXPECT_TRUE(chk.ok) << chk.error;
  }
}

// ------------------------------------------------------ failover timeline ----

TEST(TraceFailoverTest, TimelineShowsDetectionRestoreArpRetransmit) {
  harness::RunConfig cfg = traced_config(true);
  cfg.measure = nlc::seconds(4);
  cfg.inject_fault = true;
  cfg.kv_validation = true;
  cfg.client_connections = 3;
  // Seed chosen so the fault lands in the ship/ack window: the backup
  // committed an epoch whose output the primary never released, so the
  // restored sockets hold bytes the client is missing and the
  // shortened-RTO retransmit (§V-E) demonstrably fires. Most seeds kill
  // the primary mid-execute, where the client's own retransmitted request
  // acks everything and the server never needs to resend.
  cfg.seed = 21;
  harness::RunResult r = harness::run_experiment(cfg);
  ASSERT_TRUE(r.recovered);
  ASSERT_NE(r.trace, nullptr);
  std::vector<Event> ev = r.trace->drain();

  auto count = [&](Track t, EventType ty, Stage s) {
    std::size_t n = 0;
    for (const Event& e : ev) {
      if (e.track == t && e.type == ty && e.stage == s) ++n;
    }
    return n;
  };
  // Detection: three consecutive heartbeat misses, then recovery.
  EXPECT_GE(count(Track::kDetector, EventType::kInstant,
                  Stage::kHeartbeatMiss), 3u);
  EXPECT_GE(count(Track::kDetector, EventType::kInstant,
                  Stage::kRecoveryStart), 1u);
  // Restore: full span plus image materialization on the backup.
  EXPECT_EQ(count(Track::kBackup, EventType::kSpanBegin, Stage::kRestore),
            1u);
  EXPECT_EQ(count(Track::kBackup, EventType::kSpanEnd, Stage::kRestore), 1u);
  EXPECT_EQ(count(Track::kBackup, EventType::kSpanBegin, Stage::kMaterialize),
            1u);
  // Takeover: gratuitous ARP, repaired sockets, shortened-RTO retransmits.
  EXPECT_GE(count(Track::kNetBackup, EventType::kInstant,
                  Stage::kGratuitousArp), 1u);
  EXPECT_GE(count(Track::kNetBackup, EventType::kInstant,
                  Stage::kSocketRepair), 1u);
  EXPECT_GE(count(Track::kNetBackup, EventType::kInstant, Stage::kRetransmit),
            1u);
  // Epoch pipeline ran on both agents before the fault.
  EXPECT_GE(count(Track::kPrimary, EventType::kSpanBegin, Stage::kPause), 2u);
  EXPECT_GE(count(Track::kBackup, EventType::kSpanBegin, Stage::kCommit), 2u);
  // The stream itself is structurally sound (open spans at the kill point
  // are fine; mismatched nesting is not).
  trace::SpanCheck chk = trace::validate_spans(ev);
  EXPECT_TRUE(chk.ok) << chk.error;
  // And the ordering oracle accepts what actually happened.
  check::TraceOrderStats stats = check::audit_trace_ordering(ev);
  EXPECT_GT(stats.release_checks, 0u);
  EXPECT_GT(stats.commit_checks, 0u);
}

// ---------------------------------------------------------- critical path ----

TEST(CriticalPathTest, DecomposesSyntheticEpochExactly) {
  std::vector<Event> ev;
  std::uint64_t s = 0;
  auto ms = [](double v) {
    return static_cast<Time>(v * 1e6);
  };
  ev.push_back(make_event(s++, ms(1.0), 5, EventType::kSpanBegin,
                          Track::kPrimary, Stage::kPause));
  ev.push_back(make_event(s++, ms(1.2), 5, EventType::kSpanBegin,
                          Track::kPrimary, Stage::kHarvest));
  ev.push_back(make_event(s++, ms(2.2), 5, EventType::kSpanEnd,
                          Track::kPrimary, Stage::kHarvest));
  ev.push_back(make_event(s++, ms(2.2), 5, EventType::kSpanBegin,
                          Track::kPrimary, Stage::kEncode));
  ev.push_back(make_event(s++, ms(2.4), 5, EventType::kSpanEnd,
                          Track::kPrimary, Stage::kEncode));
  ev.push_back(make_event(s++, ms(3.0), 5, EventType::kSpanEnd,
                          Track::kPrimary, Stage::kPause));
  ev.push_back(make_event(s++, ms(3.5), 5, EventType::kSpanBegin,
                          Track::kPrimaryShip, Stage::kShip));
  ev.push_back(make_event(s++, ms(6.5), 5, EventType::kSpanEnd,
                          Track::kPrimaryShip, Stage::kShip));
  ev.push_back(make_event(s++, ms(8.0), 5, EventType::kInstant,
                          Track::kPrimary, Stage::kRelease));

  trace::CriticalPath cp(ev);
  ASSERT_EQ(cp.epochs().size(), 1u);
  const trace::EpochAttribution* a = cp.find(5);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->commit_latency, ms(7.0));
  EXPECT_EQ(a->stage_ns[trace::kPsFreeze], ms(0.2));
  EXPECT_EQ(a->stage_ns[trace::kPsHarvest], ms(1.0));
  EXPECT_EQ(a->stage_ns[trace::kPsEncode], ms(0.2));
  EXPECT_EQ(a->stage_ns[trace::kPsTail], ms(1.1));
  EXPECT_EQ(a->stage_ns[trace::kPsShip], ms(3.0));
  EXPECT_EQ(a->stage_ns[trace::kPsAckWait], ms(1.5));
  Time sum = 0;
  for (Time t : a->stage_ns) sum += t;
  EXPECT_EQ(sum, a->commit_latency);
  EXPECT_EQ(a->dominant, trace::kPsShip);
  EXPECT_EQ(cp.find(6), nullptr);
  std::string tbl = cp.table();
  EXPECT_NE(tbl.find("ship"), std::string::npos);
}

TEST(CriticalPathTest, AttributesLiveRunAndSkipsTruncatedEpochs) {
  harness::RunResult r = harness::run_experiment(traced_config(true));
  ASSERT_NE(r.trace, nullptr);
  std::vector<Event> ev = r.trace->drain();
  trace::CriticalPath cp(ev);
  ASSERT_GT(cp.epochs().size(), 1u);
  // Every attributed epoch's stages must sum to its commit latency.
  for (const trace::EpochAttribution& a : cp.epochs()) {
    Time sum = 0;
    for (Time t : a.stage_ns) sum += t;
    EXPECT_EQ(sum, a.commit_latency) << "epoch " << a.epoch;
    EXPECT_GT(a.commit_latency, 0) << "epoch " << a.epoch;
  }
  EXPECT_FALSE(cp.table().empty());
}

// ------------------------------------------------------------ trace oracle ----

TEST(TraceOracleTest, AcceptsOrderedStream) {
  std::vector<Event> ev;
  std::uint64_t s = 0;
  ev.push_back(make_event(s++, 1, 0, EventType::kInstant, Track::kDrbd,
                          Stage::kDrbdBarrier));
  ev.push_back(make_event(s++, 2, 0, EventType::kSpanBegin, Track::kBackup,
                          Stage::kCommit));
  ev.push_back(make_event(s++, 3, 0, EventType::kInstant, Track::kPrimary,
                          Stage::kAckRecv));
  ev.push_back(make_event(s++, 4, 0, EventType::kInstant, Track::kPrimary,
                          Stage::kRelease));
  check::TraceOrderStats stats = check::audit_trace_ordering(ev);
  EXPECT_EQ(stats.release_checks, 1u);
  EXPECT_EQ(stats.commit_checks, 1u);
  EXPECT_EQ(stats.total(), 2u);
}

TEST(TraceOracleTest, ReleaseBeforeAckRaises) {
  // Forged stream: epoch 0's output released with no ack recorded — the
  // same violation OutputCommitChecker catches live.
  std::vector<Event> ev;
  ev.push_back(make_event(0, 1, 0, EventType::kInstant, Track::kPrimary,
                          Stage::kRelease));
  EXPECT_THROW(check::audit_trace_ordering(ev), InvariantError);

  // Ack for epoch 1 does not license releasing epoch 2.
  ev.clear();
  ev.push_back(make_event(0, 1, 1, EventType::kInstant, Track::kPrimary,
                          Stage::kAckRecv));
  ev.push_back(make_event(1, 2, 2, EventType::kInstant, Track::kPrimary,
                          Stage::kRelease));
  EXPECT_THROW(check::audit_trace_ordering(ev), InvariantError);
}

TEST(TraceOracleTest, CommitBeforeBarrierRaises) {
  std::vector<Event> ev;
  ev.push_back(make_event(0, 1, 0, EventType::kSpanBegin, Track::kBackup,
                          Stage::kCommit));
  EXPECT_THROW(check::audit_trace_ordering(ev), InvariantError);

  ev.clear();
  ev.push_back(make_event(0, 1, 3, EventType::kInstant, Track::kDrbd,
                          Stage::kDrbdBarrier));
  ev.push_back(make_event(1, 2, 4, EventType::kSpanBegin, Track::kBackup,
                          Stage::kCommit));
  EXPECT_THROW(check::audit_trace_ordering(ev), InvariantError);
}

// ------------------------------------------------------------ stream pin ----

/// FNV-1a over the drained (sim_ns, type, track, stage, arg) sequence in
/// seq order. Seq numbers and wall stamps stay out: the first is implied
/// by the order, the second is the one nondeterministic field.
std::uint64_t stream_digest(const std::vector<Event>& ev) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  };
  for (const Event& e : ev) {
    mix(static_cast<std::uint64_t>(e.sim_ns));
    mix(static_cast<std::uint64_t>(e.type));
    mix(static_cast<std::uint64_t>(e.track));
    mix(static_cast<std::uint64_t>(e.stage));
    mix(e.arg);
  }
  return h;
}

struct PinnedStream {
  std::size_t events = 0;
  std::uint64_t digest = 0;
  std::size_t promotions = 0;
  bool recovered = false;
};

PinnedStream pinned_stream(const harness::RunConfig& cfg) {
  harness::RunResult r = harness::run_experiment(cfg);
  EXPECT_NE(r.trace, nullptr);
  if (r.trace == nullptr) return {};
  EXPECT_EQ(r.trace->dropped(), 0u);
  std::vector<Event> ev = r.trace->drain();
  PinnedStream p{ev.size(), stream_digest(ev), 0, r.recovered};
  for (const Event& e : ev) p.promotions += e.stage == Stage::kPromote;
  return p;
}

TEST(TraceStreamPinTest, RecordedStreamsMatchPinnedDigests) {
  // The exact recorded stream of three canonical runs, pinned: any change
  // to what the rings record, in what order, at what simulated time or
  // with what argument shows up here.
  harness::RunConfig epoch = traced_config(true);
  epoch.measure = nlc::seconds(1);

  harness::RunConfig replay = epoch;
  replay.measure = nlc::milliseconds(500);
  replay.nilicon.commit_mode = core::CommitMode::kReplay;

  harness::RunConfig quorum = epoch;
  quorum.measure = nlc::seconds(2);
  quorum.inject_fault = true;
  quorum.nilicon.replicas = 3;
  quorum.nilicon.quorum_k = 2;
  quorum.nilicon.topology = topo::Topology::kStar;

  const PinnedStream e = pinned_stream(epoch);
  const PinnedStream r = pinned_stream(replay);
  const PinnedStream q = pinned_stream(quorum);
  EXPECT_TRUE(q.recovered);
  EXPECT_EQ(q.promotions, 1u);
  EXPECT_EQ(e.events, 2590u);
  EXPECT_EQ(e.digest, 11795975986828635401ull);
  EXPECT_EQ(r.events, 32186u);
  EXPECT_EQ(r.digest, 12376696440618251570ull);
  EXPECT_EQ(q.events, 1172u);
  EXPECT_EQ(q.digest, 6761571850685701566ull);
}

TEST(TraceStreamPinTest, QuorumSegmentAndChainStreamsMatchPinnedDigests) {
  // Two N = 3 / K = 2 runs the three pins above leave out: replay commit
  // over a star with a primary crash (per-replica log acks, the K-of-N
  // segment release, promotion and re-silver), and an epoch-mode chain
  // (acks of forwarded state reach the quorum out of step).
  harness::RunConfig segments = traced_config(true);
  segments.measure = nlc::milliseconds(400);
  segments.nilicon.commit_mode = core::CommitMode::kReplay;
  segments.inject_fault = true;
  segments.nilicon.replicas = 3;
  segments.nilicon.quorum_k = 2;
  segments.nilicon.topology = topo::Topology::kStar;

  harness::RunConfig chain = traced_config(true);
  chain.measure = nlc::seconds(1);
  chain.nilicon.replicas = 3;
  chain.nilicon.quorum_k = 2;
  chain.nilicon.topology = topo::Topology::kChain;

  const PinnedStream s = pinned_stream(segments);
  const PinnedStream c = pinned_stream(chain);
  EXPECT_TRUE(s.recovered);
  EXPECT_EQ(s.promotions, 1u);
  EXPECT_EQ(c.promotions, 0u);
  EXPECT_EQ(s.events, 18118u);
  EXPECT_EQ(s.digest, 11565209309435203294ull);
  EXPECT_EQ(c.events, 2857u);
  EXPECT_EQ(c.digest, 3290753130840667501ull);
}

TEST(TraceOracleTest, HarnessReportsTraceOrderChecks) {
  harness::RunConfig cfg = traced_config(true);
  cfg.nilicon.audit_level = core::AuditLevel::kCommitPoints;
  harness::RunResult r = harness::run_experiment(cfg);
  ASSERT_TRUE(r.audited);
  EXPECT_GT(r.audit.trace_order_checks, 0u);
}

TEST(TraceOracleTest, ReplayOfRecordedStreamRerunsTheLiveRules) {
  // The auditor runs the ordering rules live over exactly what the rings
  // keep, so replaying the drained stream must count the same checks —
  // in epoch mode, replay commit, and an N=3/K=2 run through a failover.
  harness::RunConfig epoch = traced_config(true);
  epoch.measure = nlc::seconds(1);
  epoch.nilicon.audit_level = core::AuditLevel::kCommitPoints;
  harness::RunConfig replay = epoch;
  replay.nilicon.commit_mode = core::CommitMode::kReplay;
  harness::RunConfig quorum = epoch;
  quorum.inject_fault = true;
  quorum.nilicon.replicas = 3;
  quorum.nilicon.quorum_k = 2;
  for (const harness::RunConfig& cfg : {epoch, replay, quorum}) {
    harness::RunResult r = harness::run_experiment(cfg);
    ASSERT_TRUE(r.audited);
    ASSERT_NE(r.trace, nullptr);
    ASSERT_EQ(r.trace->dropped(), 0u);
    check::TraceOrderStats replayed = check::audit_trace_ordering(
        r.trace->drain(), cfg.nilicon.resolved_quorum());
    EXPECT_GT(replayed.total(), 0u);
    EXPECT_EQ(replayed.total(), r.audit.trace_order_checks);
  }
}

}  // namespace
}  // namespace nlc
