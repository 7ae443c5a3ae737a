// N-way quorum replication (DESIGN.md §16): the CommitGate every output
// release runs through, the QuorumCommitChecker's K-of-N release
// discipline, the trace oracle's quorum and promotion
// rules, and the end-to-end behavior of a 3-replica cluster — backup-lag
// tolerance, single-backup-crash absorption, double failure, correlated
// rack failure, the rack placement and chain wiring, the
// promotion-picks-most-caught-up regression and the in-flight log segment
// bound after a backup crash. The final tests pin the N = 1 degenerate
// case to the two-node seed engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "apps/catalog.hpp"
#include "apps/server_app.hpp"
#include "check/invariants.hpp"
#include "check/trace_oracle.hpp"
#include "clients/closed_loop.hpp"
#include "core/cluster.hpp"
#include "core/commit_gate.hpp"
#include "harness/experiment.hpp"
#include "util/assert.hpp"

namespace nlc {
namespace {

using trace::Event;
using trace::EventType;
using trace::Stage;
using trace::Track;

// ---------------------------------------------------------- CommitGate ----

using core::CommitGate;

void expect_advance(CommitGate::Advance a, std::uint64_t begin,
                    std::uint64_t end) {
  EXPECT_EQ(a.begin, begin);
  EXPECT_EQ(a.end, end);
}

TEST(CommitGateTest, EpochZeroReleasesOnlyAtKthAck) {
  CommitGate g(3, 2);
  EXPECT_FALSE(g.quorum().has_value());
  EXPECT_FALSE(g.quorate(0));
  EXPECT_TRUE(g.ack(2, 0).empty());
  EXPECT_FALSE(g.quorate(0));
  EXPECT_FALSE(g.quorum().has_value());
  expect_advance(g.ack(0, 0), 0, 1);
  EXPECT_EQ(g.quorum(), std::optional<std::uint64_t>{0});
  EXPECT_TRUE(g.quorate(0));
  EXPECT_FALSE(g.quorate(1));
  // The third ack of 0 commits nothing new.
  EXPECT_TRUE(g.ack(1, 0).empty());
}

TEST(CommitGateTest, DeadReplicaNeverHoldsReleaseBack) {
  // N = 3 / K = 2: replica 2 acks 0..2 and dies. Replicas 0 and 1 ack one
  // position each in turn; every position releases at its second ack,
  // exactly as if all three were alive.
  CommitGate g(3, 2);
  for (std::uint64_t p = 0; p <= 2; ++p) EXPECT_TRUE(g.ack(2, p).empty());
  expect_advance(g.ack(0, 0), 0, 1);
  expect_advance(g.ack(0, 1), 1, 2);
  expect_advance(g.ack(0, 2), 2, 3);
  for (std::uint64_t p = 3; p < 20; ++p) {
    EXPECT_TRUE(g.ack(0, p).empty()) << p;
    expect_advance(g.ack(1, p), p, p + 1);
  }
  EXPECT_EQ(g.quorum(), std::optional<std::uint64_t>{19});
  EXPECT_EQ(g.cursor(2), std::optional<std::uint64_t>{2});
}

TEST(CommitGateTest, CursorJumpReleasesEveryCoveredPosition) {
  CommitGate g(3, 2);
  EXPECT_TRUE(g.ack(0, 7).empty());
  // Replica 1's first ack lands on 7: positions 0..7 all become quorate.
  expect_advance(g.ack(1, 7), 0, 8);
  EXPECT_TRUE(g.ack(2, 3).empty());
  EXPECT_TRUE(g.ack(0, 11).empty());
  // Replica 2 jumps from 3 to join replica 0 at 11: 8..11 become quorate.
  expect_advance(g.ack(2, 11), 8, 12);
  EXPECT_EQ(g.quorum(), std::optional<std::uint64_t>{11});
}

TEST(CommitGateTest, NonMonotoneAckTripsTheCheck) {
  CommitGate g(3, 2);
  g.ack(1, 5);
  EXPECT_TRUE(g.ack(1, 5).empty());  // a repeat is not a regression
  EXPECT_THROW(g.ack(1, 4), InvariantError);
  EXPECT_THROW(CommitGate(2, 3), InvariantError);
  EXPECT_THROW(CommitGate(2, 0), InvariantError);
}

TEST(CommitGateTest, SingleReplicaGateReleasesEachAckedPosition) {
  // N = 1 / K = 1 is the two-node gate: every ack that moves the lone
  // cursor releases exactly the positions it moved over.
  CommitGate g(1, 1);
  EXPECT_FALSE(g.quorate(0));
  for (std::uint64_t e = 0; e < 5; ++e) {
    expect_advance(g.ack(0, e), e, e + 1);
    EXPECT_EQ(g.quorum(), std::optional<std::uint64_t>{e});
    EXPECT_EQ(g.cursor(0), g.quorum());
  }
  expect_advance(g.ack(0, 9), 5, 10);
  EXPECT_TRUE(g.quorate(9));
  EXPECT_FALSE(g.quorate(10));
}

// ------------------------------------------------- QuorumCommitChecker ----

TEST(QuorumCheckerTest, QuorumAdvanceNeedsKthLargestCursor) {
  check::QuorumCommitChecker q(3, 2);
  q.replica_ack(0, 0);
  // Only one cursor covers epoch 0: declaring a quorum advance is the
  // release-before-K-acks violation.
  EXPECT_THROW(q.quorum_advanced(0), InvariantError);

  check::QuorumCommitChecker q2(3, 2);
  q2.replica_ack(0, 0);
  q2.replica_ack(2, 0);
  q2.quorum_advanced(0);
  q2.replica_ack(0, 1);
  q2.replica_ack(1, 0);
  q2.replica_ack(1, 1);
  q2.quorum_advanced(1);
  EXPECT_GT(q2.checks(), 0u);
}

TEST(QuorumCheckerTest, ReplicaCursorsAreMonotone) {
  check::QuorumCommitChecker q(2, 1);
  q.replica_ack(0, 3);
  EXPECT_THROW(q.replica_ack(0, 2), InvariantError);
}

TEST(QuorumCheckerTest, LogReleaseNeedsKAcksAndNoDuplicates) {
  check::QuorumCommitChecker q(3, 2);
  q.replica_log_ack(0, 1);
  EXPECT_THROW(q.log_release(1), InvariantError);

  check::QuorumCommitChecker q2(3, 2);
  q2.replica_log_ack(0, 1);
  EXPECT_THROW(q2.replica_log_ack(0, 1), InvariantError);

  check::QuorumCommitChecker q3(3, 2);
  q3.replica_log_ack(0, 1);
  q3.replica_log_ack(2, 1);
  q3.log_release(1);
  EXPECT_THROW(q3.log_release(1), InvariantError);  // not released twice
}

TEST(QuorumCheckerTest, PromotionMustPickMaximalCandidate) {
  using Candidate = check::QuorumCommitChecker::Candidate;
  check::QuorumCommitChecker q(3, 2);
  std::vector<Candidate> cands = {
      {0, true, 7, 10},
      {1, true, 9, 4},
  };
  // Replica 1 has the higher acked cursor; promoting 0 is the
  // lost-progress violation.
  EXPECT_THROW(q.promoted(0, cands), InvariantError);

  check::QuorumCommitChecker q2(3, 2);
  q2.promoted(1, cands);
  EXPECT_GT(q2.checks(), 0u);
}

TEST(QuorumCheckerTest, PromotionWinnerMustCoverQuorumCursor) {
  using Candidate = check::QuorumCommitChecker::Candidate;
  check::QuorumCommitChecker q(3, 2);
  q.replica_ack(0, 5);
  q.replica_ack(1, 5);
  q.quorum_advanced(5);  // output for epoch 5 is released
  // The only survivor stops at epoch 3: promoting it would lose released
  // output — exactly what quorum K > 1 exists to prevent.
  std::vector<Candidate> behind = {{2, true, 3, 0}};
  EXPECT_THROW(q.promoted(2, behind), InvariantError);
}

// ------------------------------------------------------- trace oracle ----

Event make_event(std::uint64_t seq, Time sim_ns, std::uint64_t arg,
                 EventType type, Track track, Stage stage) {
  return Event{seq, sim_ns, /*wall_ns=*/0, arg, type, track, stage};
}

TEST(QuorumTraceOracleTest, ReleaseNeedsKReplicaAcks) {
  std::vector<Event> ev;
  std::uint64_t s = 0;
  ev.push_back(make_event(s++, 1, 0, EventType::kInstant, Track::kPrimary,
                          Stage::kAckRecv));
  ev.push_back(make_event(s++, 1, 0, EventType::kInstant, Track::kPrimary,
                          Stage::kReplicaAck));
  ev.push_back(make_event(s++, 2, 0, EventType::kInstant, Track::kPrimary,
                          Stage::kReplicaAck));
  ev.push_back(make_event(s++, 3, 0, EventType::kInstant, Track::kPrimary,
                          Stage::kRelease));
  check::TraceOrderStats stats = check::audit_trace_ordering(ev, 2);
  EXPECT_EQ(stats.quorum_release_checks, 1u);
  EXPECT_EQ(stats.release_checks, 1u);

  // One replica ack is not a quorum of two.
  std::vector<Event> bad;
  s = 0;
  bad.push_back(make_event(s++, 1, 0, EventType::kInstant, Track::kPrimary,
                           Stage::kAckRecv));
  bad.push_back(make_event(s++, 1, 0, EventType::kInstant, Track::kPrimary,
                           Stage::kReplicaAck));
  bad.push_back(make_event(s++, 2, 0, EventType::kInstant, Track::kPrimary,
                           Stage::kRelease));
  EXPECT_THROW(check::audit_trace_ordering(bad, 2), InvariantError);
}

TEST(QuorumTraceOracleTest, QuorateLaterEpochCoversEarlierRelease) {
  // Acks are cumulative: two replicas acking epoch 1 committed epoch 0.
  std::vector<Event> ev;
  std::uint64_t s = 0;
  ev.push_back(make_event(s++, 1, 1, EventType::kInstant, Track::kPrimary,
                          Stage::kAckRecv));
  for (int r = 0; r < 2; ++r) {
    ev.push_back(make_event(s++, 1, 1, EventType::kInstant, Track::kPrimary,
                            Stage::kReplicaAck));
  }
  for (std::uint64_t epoch = 0; epoch < 2; ++epoch) {
    ev.push_back(make_event(s++, 2, epoch, EventType::kInstant,
                            Track::kPrimary, Stage::kRelease));
  }
  EXPECT_EQ(check::audit_trace_ordering(ev, 2).quorum_release_checks, 2u);

  // A quorate epoch 0 does not cover epoch 1, acked by one replica only.
  std::vector<Event> bad;
  s = 0;
  bad.push_back(make_event(s++, 1, 1, EventType::kInstant, Track::kPrimary,
                           Stage::kAckRecv));
  for (std::uint64_t epoch : {0, 0, 1}) {
    bad.push_back(make_event(s++, 1, epoch, EventType::kInstant,
                             Track::kPrimary, Stage::kReplicaAck));
  }
  bad.push_back(make_event(s++, 2, 1, EventType::kInstant, Track::kPrimary,
                           Stage::kRelease));
  EXPECT_THROW(check::audit_trace_ordering(bad, 2), InvariantError);
}

TEST(QuorumTraceOracleTest, ResilverNeedsPromotionFirst) {
  std::vector<Event> ev;
  ev.push_back(make_event(0, 1, 1, EventType::kSpanBegin, Track::kBackup,
                          Stage::kResilver));
  EXPECT_THROW(check::audit_trace_ordering(ev, 2), InvariantError);

  ev.clear();
  ev.push_back(make_event(0, 1, 0, EventType::kInstant, Track::kDetector,
                          Stage::kPromote));
  ev.push_back(make_event(1, 2, 1, EventType::kSpanBegin, Track::kBackup,
                          Stage::kResilver));
  check::TraceOrderStats stats = check::audit_trace_ordering(ev, 2);
  EXPECT_EQ(stats.promotion_checks, 1u);
}

// --------------------------------------------------------- end to end ----

apps::AppSpec fast_spec() {
  apps::AppSpec s = apps::netecho_spec();
  s.kv_pages = 256;
  return s;
}

harness::RunConfig quorum_config(int replicas, topo::Topology topology) {
  harness::RunConfig cfg;
  cfg.spec = fast_spec();
  cfg.mode = harness::Mode::kNiLiCon;
  cfg.measure = nlc::seconds(2);
  cfg.warmup = nlc::milliseconds(200);
  cfg.nilicon.replicas = replicas;
  cfg.nilicon.quorum_k = replicas > 1 ? 2 : 0;
  cfg.nilicon.topology = topology;
  cfg.nilicon.audit_level = core::AuditLevel::kCommitPoints;
  cfg.kv_validation = true;
  cfg.client_connections = 3;
  return cfg;
}

TEST(QuorumEndToEndTest, KOfNReleasesAndAudits) {
  auto r = run_experiment(quorum_config(3, topo::Topology::kStar));
  EXPECT_GT(r.throughput_rps, 10.0);
  EXPECT_EQ(r.kv_errors, 0u);
  EXPECT_EQ(r.broken_connections, 0u);
  ASSERT_TRUE(r.audited);
  // The quorum mirror saw every advance, and per-replica lag was sampled
  // for all three replicas.
  EXPECT_GT(r.audit.quorum_checks, 0u);
  ASSERT_EQ(r.metrics.replica_ack_lag.size(), 3u);
  EXPECT_FALSE(r.metrics.quorum_wait_ms.empty());
  // Star fan-out puts every replica's copy on the wire.
  EXPECT_GT(r.metrics.wire_bytes_fanout,
            2 * (r.metrics.bytes_shipped + r.metrics.log_bytes_shipped));
}

TEST(QuorumEndToEndTest, ChainToleratesTailLag) {
  // In a chain the tail replica is fed store-and-forward through two hops:
  // its ack cursor must lag the head's, and K = 2 of 3 must keep releasing
  // output without waiting for the tail.
  auto r = run_experiment(quorum_config(3, topo::Topology::kChain));
  EXPECT_GT(r.throughput_rps, 10.0);
  EXPECT_EQ(r.kv_errors, 0u);
  ASSERT_EQ(r.metrics.replica_ack_lag.size(), 3u);
  double head = r.metrics.replica_ack_lag[0].empty()
                    ? 0.0
                    : r.metrics.replica_ack_lag[0].mean();
  double tail = r.metrics.replica_ack_lag[2].empty()
                    ? 0.0
                    : r.metrics.replica_ack_lag[2].mean();
  EXPECT_GE(tail, head);
  ASSERT_TRUE(r.audited);
  EXPECT_GT(r.audit.quorum_checks, 0u);
}

TEST(QuorumEndToEndTest, SingleBackupCrashIsAbsorbed) {
  harness::RunConfig cfg = quorum_config(3, topo::Topology::kStar);
  cfg.measure = nlc::seconds(4);
  cfg.inject_fault = true;
  cfg.fault_kind = harness::FaultKind::kBackup;
  cfg.seed = 11;
  auto r = run_experiment(cfg);
  EXPECT_TRUE(r.fault_injected);
  // The primary is healthy: no failover, no client-visible loss, and the
  // run keeps serving on the surviving 2-of-3 quorum.
  EXPECT_FALSE(r.recovered);
  EXPECT_EQ(r.kv_errors, 0u);
  EXPECT_EQ(r.broken_connections, 0u);
  EXPECT_GT(r.requests_after_fault, 0u);
}

TEST(QuorumEndToEndTest, DoubleFailureStillRecovers) {
  harness::RunConfig cfg = quorum_config(3, topo::Topology::kStar);
  cfg.measure = nlc::seconds(4);
  cfg.inject_fault = true;
  cfg.fault_kind = harness::FaultKind::kDouble;
  cfg.seed = 13;
  auto r = run_experiment(cfg);
  EXPECT_TRUE(r.fault_injected);
  ASSERT_TRUE(r.recovered);
  EXPECT_NE(r.recovery.promoted_replica, 1);  // the dead replica can't win
  EXPECT_EQ(r.kv_errors, 0u);
  EXPECT_EQ(r.broken_connections, 0u);
  EXPECT_GT(r.requests_after_fault, 0u);
}

TEST(QuorumEndToEndTest, RackFailureSurvivedByAntiAffinity) {
  harness::RunConfig cfg = quorum_config(3, topo::Topology::kStar);
  cfg.measure = nlc::seconds(4);
  cfg.inject_fault = true;
  cfg.fault_kind = harness::FaultKind::kRack;
  cfg.seed = 17;
  auto r = run_experiment(cfg);
  EXPECT_TRUE(r.fault_injected);
  // The primary's rack also holds one backup (2 racks, 4 hosts): the
  // election must run among the other rack's survivors.
  ASSERT_TRUE(r.recovered);
  EXPECT_EQ(r.kv_errors, 0u);
  EXPECT_GT(r.requests_after_fault, 0u);
}

/// Which of the primary and backups 0..replicas-1 are alive, in that
/// order.
std::vector<bool> alive_hosts(core::Cluster& cl) {
  std::vector<bool> alive{cl.primary_domain->alive()};
  for (int i = 0; i < cl.replica_count(); ++i) {
    alive.push_back(cl.backup_domain_of(i)->alive());
  }
  return alive;
}

TEST(ClusterPlacementTest, RacksAlternateAndChainsFeedFromThePredecessor) {
  // N = 4 star: the primary and backups 0..3 alternate between the two
  // racks, so rack 0 holds the primary and backups 1 and 3, and rack 1
  // holds backups 0 and 2.
  core::ClusterConfig ccfg;
  ccfg.replicas = 4;
  {
    core::Cluster cl(ccfg);
    cl.fail_rack(0);
    EXPECT_EQ(alive_hosts(cl),
              (std::vector<bool>{false, true, false, true, false}));
  }
  {
    core::Cluster cl(ccfg);
    cl.fail_rack(1);
    EXPECT_EQ(alive_hosts(cl),
              (std::vector<bool>{true, false, true, false, true}));
  }
  // A chain replica is fed by its predecessor and the head by the
  // primary; every star replica is fed by the primary.
  ccfg.replicas = 3;
  ccfg.topology = topo::Topology::kChain;
  core::Cluster chain(ccfg);
  ccfg.topology = topo::Topology::kStar;
  core::Cluster star(ccfg);
  std::vector<int> chain_up;
  std::vector<int> star_up;
  for (const auto& r : chain.backups) chain_up.push_back(r->upstream);
  for (const auto& r : star.backups) star_up.push_back(r->upstream);
  EXPECT_EQ(chain_up, (std::vector<int>{-1, 0, 1}));
  EXPECT_EQ(star_up, (std::vector<int>{-1, -1, -1}));
}

TEST(QuorumEndToEndTest, PromotionPicksMostCaughtUpReplica) {
  // Chain: replica 0 is fed directly and always holds the highest acked
  // cursor; the tail trails by the forwarding hops. The arbiter must
  // promote the head (the auditor's promoted() mirror would throw on any
  // cursor-losing pick; this pins the concrete expected winner too).
  harness::RunConfig cfg = quorum_config(3, topo::Topology::kChain);
  cfg.measure = nlc::seconds(4);
  cfg.inject_fault = true;
  cfg.fault_kind = harness::FaultKind::kPrimary;
  cfg.seed = 19;
  auto r = run_experiment(cfg);
  ASSERT_TRUE(r.recovered);
  EXPECT_EQ(r.recovery.promoted_replica, 0);
  EXPECT_EQ(r.kv_errors, 0u);
  // The winner re-silvered the two survivors over the replication link.
  EXPECT_EQ(r.recovery.replicas_resilvered, 2u);
  EXPECT_GT(r.recovery.resilver_bytes, 0u);
}

TEST(QuorumEndToEndTest, DeadReplicaDoesNotPinLogSegments) {
  // Replay mode, N = 3 / K = 2: a segment releases at its second log ack.
  // After a backup dies only two replicas ack, so a record that waited
  // for all N acks would stay forever, one per segment cut.
  core::ClusterConfig ccfg;
  ccfg.replicas = 3;
  core::Cluster cl(ccfg);
  apps::AppSpec spec = fast_spec();
  kern::ContainerId cid = cl.create_service_container(spec.name).id();
  apps::ServerApp app({&cl.sim, cl.primary_kernel.get(), &cl.primary_tcp,
                       core::kServiceIp, 7},
                      spec);
  app.setup(cid);
  core::Options opts;
  opts.replicas = 3;
  opts.quorum_k = 2;
  opts.commit_mode = core::CommitMode::kReplay;
  bool ready = false;
  cl.sim.spawn([](core::Cluster& c, kern::ContainerId id, core::Options o,
                  bool& r) -> sim::task<> {
    co_await c.protect(id, o);
    r = true;
  }(cl, cid, opts, ready));
  while (!ready && cl.sim.step()) {
  }
  ASSERT_TRUE(ready);

  clients::ClientConfig cc;
  cc.local_ip = core::kClientIp;
  cc.server_ip = core::kServiceIp;
  cc.port = spec.port;
  cc.connections = 3;
  cc.kv_mode = true;
  cc.keys_per_connection = 64;
  clients::ClosedLoopClient client(cl.sim, cl.client_domain, cl.client_tcp,
                                   cc, 29);
  client.start();
  cl.sim.run_until(cl.sim.now() + nlc::milliseconds(300));
  cl.fail_backup(1);
  const std::uint64_t completed_at_fault = client.completed();
  std::size_t peak = 0;
  const Time end = cl.sim.now() + nlc::seconds(2);
  while (cl.sim.now() < end && cl.sim.step()) {
    peak = std::max(peak, cl.primary_agent->log_segments_in_flight());
  }
  client.stop();
  // Hundreds of requests were released by log segments after the crash,
  // yet only the few segments between a cut and its second ack were ever
  // outstanding.
  EXPECT_GT(client.completed(), completed_at_fault + 200);
  EXPECT_EQ(client.kv_errors(), 0u);
  EXPECT_LE(peak, 4u);
}

/// N = 3 / K = 2: a file written and synced on the primary before
/// protect() sits ahead of epoch 0's DRBD barrier, so every replica's disk
/// must hold it once the initial synchronization has committed, whether
/// the primary feeds each replica (star) or only the head (chain).
void expect_pre_protect_write_on_every_replica(topo::Topology topology) {
  core::ClusterConfig ccfg;
  ccfg.replicas = 3;
  ccfg.topology = topology;
  core::Cluster cl(ccfg);
  apps::AppSpec spec = fast_spec();
  kern::ContainerId cid = cl.create_service_container(spec.name).id();
  apps::ServerApp app({&cl.sim, cl.primary_kernel.get(), &cl.primary_tcp,
                       core::kServiceIp, 7},
                      spec);
  app.setup(cid);
  kern::Filesystem& fs = cl.primary_kernel->fs();
  const kern::InodeNum ino = fs.create("/data/before-protect");
  fs.write(ino, 0, std::vector<std::byte>(8192, std::byte{0x5A}), 1);
  fs.sync_all();

  core::Options opts;
  opts.replicas = 3;
  opts.quorum_k = 2;
  opts.topology = topology;
  bool ready = false;
  cl.sim.spawn([](core::Cluster& c, kern::ContainerId id, core::Options o,
                  bool& r) -> sim::task<> {
    co_await c.protect(id, o);
    r = true;
  }(cl, cid, opts, ready));
  while (!ready && cl.sim.step()) {
  }
  ASSERT_TRUE(ready);
  cl.sim.run_until(cl.sim.now() + nlc::milliseconds(300));
  for (int i = 0; i < cl.replica_count(); ++i) {
    const core::Cluster::BackupReplica& r =
        *cl.backups[static_cast<std::size_t>(i)];
    EXPECT_GT(r.drbd->writes_committed(), 0u) << "replica " << i;
    EXPECT_TRUE(cl.primary_disk.same_content(*r.disk)) << "replica " << i;
  }
}

TEST(QuorumEndToEndTest, PreProtectWriteReachesEveryStarReplica) {
  expect_pre_protect_write_on_every_replica(topo::Topology::kStar);
}

TEST(QuorumEndToEndTest, PreProtectWriteReachesEveryChainReplica) {
  expect_pre_protect_write_on_every_replica(topo::Topology::kChain);
}

// ------------------------------------------------ N = 1 degenerate case ----

TEST(QuorumEndToEndTest, SingleReplicaMatchesSeedEngineExactly) {
  // replicas = 1 + star must take the exact same protocol decisions as the
  // untouched two-node engine: same simulation event count, same epochs,
  // same wire bytes, same client-visible results.
  harness::RunConfig base;
  base.spec = fast_spec();
  base.mode = harness::Mode::kNiLiCon;
  base.measure = nlc::seconds(2);
  base.warmup = nlc::milliseconds(200);
  base.kv_validation = true;
  base.client_connections = 3;
  base.seed = 23;

  harness::RunConfig explicit_cfg = base;
  explicit_cfg.nilicon.replicas = 1;
  explicit_cfg.nilicon.quorum_k = 1;
  explicit_cfg.nilicon.topology = topo::Topology::kStar;

  auto a = run_experiment(base);
  auto b = run_experiment(explicit_cfg);
  EXPECT_EQ(a.sim_events, b.sim_events);
  EXPECT_EQ(a.requests_completed, b.requests_completed);
  EXPECT_EQ(a.metrics.epochs_completed, b.metrics.epochs_completed);
  EXPECT_EQ(a.metrics.bytes_shipped, b.metrics.bytes_shipped);
  EXPECT_DOUBLE_EQ(a.throughput_rps, b.throughput_rps);
  // N = 1 books no quorum-only metrics, and the fan-out counter is the
  // same wire both ways. It exceeds bytes_shipped + log_bytes_shipped only
  // by the initial full-sync image and any shipped-but-unacked tail epoch,
  // both of which the per-epoch seed metrics deliberately exclude.
  EXPECT_TRUE(b.metrics.replica_ack_lag.empty());
  EXPECT_TRUE(b.metrics.quorum_wait_ms.empty());
  EXPECT_EQ(a.metrics.wire_bytes_fanout, b.metrics.wire_bytes_fanout);
  EXPECT_GE(b.metrics.wire_bytes_fanout,
            b.metrics.bytes_shipped + b.metrics.log_bytes_shipped);
}

}  // namespace
}  // namespace nlc
