// Tests for the invariant-audit layer (src/check).
//
// Two tiers: unit tests drive each checker's event API directly, including
// negative sequences that must throw InvariantError; integration tests run
// an audited cluster and tamper with live state (mutating a frozen payload,
// releasing plug output behind the agent's back) to prove the auditor
// catches protocol violations end to end, not just in isolation.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "apps/catalog.hpp"
#include "apps/server_app.hpp"
#include "check/audit.hpp"
#include "check/invariants.hpp"
#include "core/cluster.hpp"
#include "core/options.hpp"
#include "criu/delta.hpp"
#include "criu/pagestore.hpp"
#include "util/arena.hpp"
#include "util/assert.hpp"

namespace nlc::check {
namespace {

using namespace nlc::literals;
using sim::task;

kern::PagePayload make_payload(std::byte fill) {
  auto bytes = util::arena_make_shared<kern::PageBytes>(nlc::kPageSize, fill);
  return bytes;
}

// ---------------------------------------------------------------------------
// OutputCommitChecker

TEST(OutputCommitTest, AcceptsReleaseAfterAck) {
  OutputCommitChecker occ;
  occ.packet_buffered();
  occ.packet_buffered();
  occ.marker_inserted(0, 1);
  EXPECT_EQ(occ.mirrored_packets(), 2u);
  occ.ack_received(0);
  occ.released(1, 2, 0);
  EXPECT_EQ(occ.mirrored_packets(), 0u);
}

TEST(OutputCommitTest, AcceptsSyncPathAckBeforeMarker) {
  // Initial-sync ordering: the ack arrives while the container is still
  // paused, before the epoch's marker is inserted.
  OutputCommitChecker occ;
  occ.ack_received(0);
  occ.marker_inserted(0, 1);
  occ.released(1, 0, 0);
}

TEST(OutputCommitTest, RejectsReleaseBeforeAck) {
  OutputCommitChecker occ;
  occ.packet_buffered();
  occ.marker_inserted(0, 1);
  EXPECT_THROW(occ.released(1, 1, 0), InvariantError);
}

TEST(OutputCommitTest, RejectsReleaseOfLaterUnackedEpoch) {
  OutputCommitChecker occ;
  occ.marker_inserted(0, 1);
  occ.ack_received(0);
  occ.packet_buffered();
  occ.marker_inserted(1, 2);
  // Epoch 0 is acked; epoch 1 is not. Releasing up to epoch 1's marker
  // would leak epoch 1's packet.
  EXPECT_THROW(occ.released(2, 1, 1), InvariantError);
}

TEST(OutputCommitTest, RejectsWrongPacketCount) {
  OutputCommitChecker occ;
  occ.packet_buffered();
  occ.packet_buffered();
  occ.marker_inserted(0, 1);
  occ.ack_received(0);
  EXPECT_THROW(occ.released(1, 1, 0), InvariantError);
}

TEST(OutputCommitTest, RejectsUnknownMarker) {
  OutputCommitChecker occ;
  occ.ack_received(0);
  EXPECT_THROW(occ.released(7, 0), InvariantError);
}

TEST(OutputCommitTest, DiscardMustMatchMirror) {
  OutputCommitChecker occ;
  occ.packet_buffered();
  occ.marker_inserted(0, 1);
  occ.packet_buffered();
  occ.discarded(2);  // failover drop of everything buffered: fine
  OutputCommitChecker occ2;
  occ2.packet_buffered();
  EXPECT_THROW(occ2.discarded(0), InvariantError);
}

// ---------------------------------------------------------------------------
// EpochCommitChecker

TEST(EpochCommitTest, HappyPathTwoEpochs) {
  EpochCommitChecker ec;
  ec.ack_sent(0, 0);
  ec.commit_begin(0);
  ec.drbd_applied(0);
  ec.committed(0);
  ec.ack_sent(1, 1);
  ec.commit_begin(1);
  ec.drbd_applied(1);
  ec.committed(1);
  EXPECT_EQ(ec.committed_count(), 2u);
}

TEST(EpochCommitTest, RejectsSkippedAck) {
  EpochCommitChecker ec;
  EXPECT_THROW(ec.ack_sent(1, 1), InvariantError);
}

TEST(EpochCommitTest, RejectsAckBeforeBarrier) {
  EpochCommitChecker ec;
  ec.ack_sent(0, 0);
  ec.commit_begin(0);
  ec.committed(0);
  // Epoch 1's barrier has not arrived (newest barrier still 0).
  EXPECT_THROW(ec.ack_sent(1, 0), InvariantError);
}

TEST(EpochCommitTest, RejectsCommitWithoutAck) {
  EpochCommitChecker ec;
  EXPECT_THROW(ec.commit_begin(0), InvariantError);
}

TEST(EpochCommitTest, RejectsDoubleCommit) {
  EpochCommitChecker ec;
  ec.ack_sent(0, 0);
  ec.commit_begin(0);
  ec.committed(0);
  EXPECT_THROW(ec.commit_begin(0), InvariantError);
}

TEST(EpochCommitTest, RejectsOverlappingCommits) {
  EpochCommitChecker ec;
  ec.ack_sent(0, 0);
  ec.ack_sent(1, 1);
  ec.commit_begin(0);
  EXPECT_THROW(ec.commit_begin(1), InvariantError);
}

TEST(EpochCommitTest, RejectsDrbdApplyOutsideFold) {
  EpochCommitChecker ec;
  ec.ack_sent(0, 0);
  EXPECT_THROW(ec.drbd_applied(0), InvariantError);
}

TEST(EpochCommitTest, RejectsDrbdApplyOfFutureEpoch) {
  EpochCommitChecker ec;
  ec.ack_sent(0, 0);
  ec.ack_sent(1, 1);
  ec.commit_begin(0);
  EXPECT_THROW(ec.drbd_applied(1), InvariantError);
}

TEST(EpochCommitTest, RejectsDrbdDiscardOutsideRecovery) {
  EpochCommitChecker ec;
  EXPECT_THROW(ec.drbd_discarded(), InvariantError);
}

TEST(EpochCommitTest, RecoveryLifecycle) {
  EpochCommitChecker ec;
  ec.ack_sent(0, 0);
  ec.commit_begin(0);
  ec.committed(0);
  ec.recovery_started(0);
  ec.drbd_discarded();
  ec.recovered(0);
  EXPECT_FALSE(ec.in_recovery());
}

TEST(EpochCommitTest, RejectsRestoreFromStaleEpoch) {
  EpochCommitChecker ec;
  ec.ack_sent(0, 0);
  ec.commit_begin(0);
  ec.committed(0);
  ec.ack_sent(1, 1);
  ec.commit_begin(1);
  ec.committed(1);
  ec.recovery_started(1);
  // Restoring from epoch 0 would silently drop committed epoch 1.
  EXPECT_THROW(ec.recovered(0), InvariantError);
}

// ---------------------------------------------------------------------------
// PayloadFreezeGuard

TEST(PayloadFreezeTest, CleanPayloadVerifies) {
  PayloadFreezeGuard guard;
  kern::PagePayload p = make_payload(std::byte{0x5A});
  guard.pin(p);
  guard.pin(p);  // idempotent
  EXPECT_EQ(guard.pins(), 1u);
  guard.verify_all();
  EXPECT_EQ(guard.verifications(), 1u);
}

TEST(PayloadFreezeTest, DetectsMutation) {
  PayloadFreezeGuard guard;
  kern::PagePayload p = make_payload(std::byte{0x5A});
  guard.pin(p);
  // Simulates a buggy pipeline stage scribbling over bytes it promised to
  // keep frozen (the exact violation COW cloning exists to prevent).
  const_cast<kern::PageBytes&>(*p)[17] = std::byte{0xFF};
  EXPECT_THROW(guard.verify_all(), InvariantError);
}

TEST(PayloadFreezeTest, RetiredPayloadsAreDropped) {
  PayloadFreezeGuard guard;
  kern::PagePayload p = make_payload(std::byte{1});
  guard.pin(p);
  p.reset();  // last strong reference gone: mutation is no longer possible
  guard.verify_all();
  EXPECT_EQ(guard.live(), 0u);
}

TEST(PayloadFreezeTest, BudgetedSweepReachesEveryPayload) {
  PayloadFreezeGuard guard;
  std::vector<kern::PagePayload> keep;
  for (int i = 0; i < 5; ++i) {
    keep.push_back(make_payload(std::byte(i)));
    guard.pin(keep.back());
  }
  guard.verify_budget(2);
  guard.verify_budget(2);
  guard.verify_budget(2);
  EXPECT_GE(guard.verifications(), 5u);
}

TEST(PayloadFreezeTest, BudgetedSweepDetectsMutation) {
  PayloadFreezeGuard guard;
  kern::PagePayload p = make_payload(std::byte{9});
  guard.pin(p);
  const_cast<kern::PageBytes&>(*p)[0] = std::byte{0};
  EXPECT_THROW(guard.verify_budget(8), InvariantError);
}

TEST(PayloadFreezeTest, ReusedAddressVerifiesAfterEarlierPins) {
  // A new payload at a retired payload's address is a new pin: it verifies
  // after every payload pinned in between, never in its predecessor's place
  // (which would make the verification order depend on which thread freed
  // the old block).
  PayloadFreezeGuard guard;
  auto storage =
      util::arena_make_shared<kern::PageBytes>(nlc::kPageSize, std::byte{1});
  // The aliasing constructor gives each generation its own lifetime at the
  // same address.
  auto generation = [&] {
    return kern::PagePayload(std::make_shared<int>(0), storage.get());
  };
  kern::PagePayload first = generation();
  guard.pin(first);
  kern::PagePayload between = make_payload(std::byte{2});
  guard.pin(between);
  first.reset();
  guard.verify_all();  // retires the first generation, verifies `between`
  ASSERT_EQ(guard.verifications(), 1u);
  ASSERT_EQ(guard.live(), 1u);

  kern::PagePayload reused = generation();
  guard.pin(reused);
  EXPECT_EQ(guard.pins(), 3u);
  const_cast<kern::PageBytes&>(*between)[0] = std::byte{0xFF};
  EXPECT_THROW(guard.verify_all(), InvariantError);
  EXPECT_EQ(guard.verifications(), 1u);
}

// ---------------------------------------------------------------------------
// StoreEquivalenceChecker

criu::PageRecord content_record(kern::PageNum page, std::uint64_t version,
                                std::byte fill) {
  criu::PageRecord rec;
  rec.page = page;
  rec.version = version;
  rec.content = make_payload(fill);
  return rec;
}

TEST(StoreEquivalenceTest, MatchingStorePasses) {
  criu::RadixPageStore store;
  store.begin_checkpoint(0);
  criu::CheckpointImage img;
  img.pages.push_back(content_record(100, 3, std::byte{0xAB}));
  store.store(img.pages.back());
  StoreEquivalenceChecker checker;
  checker.check(store, img);
  EXPECT_EQ(checker.checks(), 1u);
}

TEST(StoreEquivalenceTest, RejectsMissingPage) {
  criu::RadixPageStore store;
  criu::CheckpointImage img;
  img.pages.push_back(content_record(100, 3, std::byte{0xAB}));
  StoreEquivalenceChecker checker;
  EXPECT_THROW(checker.check(store, img), InvariantError);
}

TEST(StoreEquivalenceTest, RejectsStaleVersion) {
  criu::RadixPageStore store;
  store.begin_checkpoint(0);
  store.store(content_record(100, 2, std::byte{0xAB}));
  criu::CheckpointImage img;
  img.pages.push_back(content_record(100, 3, std::byte{0xAB}));
  StoreEquivalenceChecker checker;
  EXPECT_THROW(checker.check(store, img), InvariantError);
}

TEST(StoreEquivalenceTest, RejectsDivergedBytes) {
  criu::RadixPageStore store;
  store.begin_checkpoint(0);
  store.store(content_record(100, 3, std::byte{0xCD}));
  criu::CheckpointImage img;
  img.pages.push_back(content_record(100, 3, std::byte{0xAB}));
  StoreEquivalenceChecker checker;
  EXPECT_THROW(checker.check(store, img), InvariantError);
}

// StoreEquivalenceChecker::resilvered: a survivor's copy of the promoted
// winner's store must match it record for record.

void fill_winner(criu::PageStore& store) {
  store.begin_checkpoint(0);
  for (kern::PageNum p = 510; p < 515; ++p) {
    store.store(content_record(p, p, std::byte{0x5A}));
  }
}

/// `fn` must throw an InvariantError whose message names the re-silver.
template <typename F>
void expect_resilver_violation(F&& fn) {
  try {
    fn();
  } catch (const InvariantError& e) {
    EXPECT_NE(std::string(e.what()).find("re-silver"), std::string::npos)
        << e.what();
    return;
  }
  ADD_FAILURE() << "the checker accepted a diverged re-silver";
}

TEST(StoreEquivalenceTest, ResilveredCopyPasses) {
  criu::RadixPageStore radix;
  criu::ListPageStore list;
  StoreEquivalenceChecker checker;
  for (criu::PageStore* winner : {static_cast<criu::PageStore*>(&radix),
                                  static_cast<criu::PageStore*>(&list)}) {
    fill_winner(*winner);
    checker.resilvered(*winner->clone(), *winner);
  }
  EXPECT_EQ(checker.checks(), 2u);
}

TEST(StoreEquivalenceTest, ResilverRejectsCopyMissingAPage) {
  criu::RadixPageStore winner;
  fill_winner(winner);
  criu::RadixPageStore survivor;
  for (const criu::PageRecord* r : winner.all_pages()) {
    if (r->page != 512) survivor.store(*r);
  }
  StoreEquivalenceChecker checker;
  expect_resilver_violation([&] { checker.resilvered(survivor, winner); });
}

TEST(StoreEquivalenceTest, ResilverRejectsChangedVersion) {
  criu::RadixPageStore winner;
  fill_winner(winner);
  std::unique_ptr<criu::PageStore> survivor = winner.clone();
  criu::PageRecord changed = *survivor->lookup(512);
  ++changed.version;
  survivor->store(changed);
  StoreEquivalenceChecker checker;
  expect_resilver_violation([&] { checker.resilvered(*survivor, winner); });
}

// ---------------------------------------------------------------------------
// DeltaReplayChecker

TEST(DeltaReplayTest, AgreesWithTheRealCodec) {
  criu::CheckpointImage e0;
  e0.pages.push_back(content_record(7, 1, std::byte{0x11}));
  criu::CheckpointImage e1;
  e1.pages.push_back(content_record(7, 2, std::byte{0x11}));
  const_cast<kern::PageBytes&>(*e1.pages[0].content)[100] = std::byte{0x22};

  criu::DeltaCodec codec;
  codec.encode_epoch(e0);
  codec.encode_epoch(e1);
  EXPECT_LT(e1.pages[0].wire_size, nlc::kPageSize);  // compression won

  DeltaReplayChecker replay;
  replay.replay(e0, /*delta_enabled=*/true);
  replay.replay(e1, /*delta_enabled=*/true);
  EXPECT_EQ(replay.checks(), 2u);
}

TEST(DeltaReplayTest, RejectsTamperedWireStamp) {
  criu::CheckpointImage img;
  img.pages.push_back(content_record(7, 1, std::byte{0x11}));
  criu::DeltaCodec codec;
  codec.encode_epoch(img);
  img.pages[0].wire_size -= 1;  // a lying size stamp under-bills the wire
  DeltaReplayChecker replay;
  EXPECT_THROW(replay.replay(img, true), InvariantError);
}

TEST(DeltaReplayTest, RejectsCompressedStampWithDeltaOff) {
  criu::CheckpointImage img;
  img.pages.push_back(content_record(7, 1, std::byte{0x11}));
  img.pages[0].wire_size = 100;
  DeltaReplayChecker replay;
  EXPECT_THROW(replay.replay(img, false), InvariantError);
}

// ---------------------------------------------------------------------------
// Integration: a protected cluster with the auditor attached.

struct AuditedService {
  core::Cluster cl;
  apps::AppEnv env;
  std::unique_ptr<apps::ServerApp> app;
  std::unique_ptr<InvariantAuditor> auditor;
  kern::ContainerId cid{};

  explicit AuditedService(core::AuditLevel level)
      : env{&cl.sim, cl.primary_kernel.get(), &cl.primary_tcp,
            core::kServiceIp, 7} {
    apps::AppSpec spec = apps::netecho_spec();
    kern::Container& c = cl.create_service_container(spec.name);
    cid = c.id();
    app = std::make_unique<apps::ServerApp>(env, spec);
    app->setup(cid);

    core::Options opts;
    opts.audit_level = level;
    cl.on_agents_created = [this, opts] {
      auditor = std::make_unique<InvariantAuditor>(cl, cid, opts);
      auditor->attach();
    };
    bool ready = false;
    cl.sim.spawn([](core::Cluster& cc, kern::ContainerId id,
                    core::Options o, bool& r) -> task<> {
      co_await cc.protect(id, o);
      r = true;
    }(cl, cid, opts, ready));
    Time deadline = cl.sim.now() + 5_s;
    while (!ready && cl.sim.now() < deadline && cl.sim.step()) {
    }
    EXPECT_TRUE(ready);
  }

  /// Dirties content pages in the service process so epochs carry real
  /// payloads through the pipeline.
  void write_content(std::byte fill) {
    kern::Process* p = cl.primary_kernel->container_processes(cid).front();
    std::vector<std::byte> data(64, fill);
    p->mm().write(p->mm().vmas().front().start, 0, data);
  }
};

TEST(AuditedClusterTest, ContinuousAuditedRunIsClean) {
  AuditedService svc(core::AuditLevel::kContinuous);
  svc.write_content(std::byte{0x42});
  svc.cl.sim.run_until(svc.cl.sim.now() + 1_s);
  svc.auditor->final_audit();
  AuditStats st = svc.auditor->stats();
  EXPECT_GT(st.output_commit_checks, 10u);
  EXPECT_GT(st.epoch_commit_checks, 50u);
  EXPECT_GT(st.payload_pins, 0u);
  EXPECT_GT(st.payload_verifications, 0u);
  EXPECT_GT(st.store_equivalence_checks, 0u);
  EXPECT_GT(st.sweeps, 0u);
}

TEST(AuditedClusterTest, CommitPointsLevelSkipsContinuousChecks) {
  AuditedService svc(core::AuditLevel::kCommitPoints);
  svc.write_content(std::byte{0x42});
  svc.cl.sim.run_until(svc.cl.sim.now() + 500_ms);
  AuditStats st = svc.auditor->stats();
  EXPECT_GT(st.store_equivalence_checks, 0u);
  EXPECT_EQ(st.sweeps, 0u);
  EXPECT_EQ(st.payload_pins, 0u);
  EXPECT_EQ(st.delta_replay_checks, 0u);
}

TEST(AuditedClusterTest, DetectsFrozenPayloadMutation) {
  AuditedService svc(core::AuditLevel::kContinuous);
  svc.write_content(std::byte{0x42});
  svc.cl.sim.run_until(svc.cl.sim.now() + 200_ms);
  // Reach behind the COW discipline and scribble on a payload the backup's
  // page store holds — the bug class the freeze audit exists to catch
  // (every legal mutation path clones shared payloads first).
  auto pages = svc.cl.backup(0).page_store().all_pages();
  const criu::PageRecord* victim = nullptr;
  for (const criu::PageRecord* rec : pages) {
    if (rec->has_content()) {
      victim = rec;
      break;
    }
  }
  ASSERT_NE(victim, nullptr);
  const_cast<kern::PageBytes&>(*victim->content)[0] ^= std::byte{0xFF};
  EXPECT_THROW(svc.cl.sim.run_until(svc.cl.sim.now() + 500_ms),
               InvariantError);
}

TEST(AuditedClusterTest, DetectsPlugReleaseBehindAgentsBack) {
  AuditedService svc(core::AuditLevel::kCommitPoints);
  svc.cl.sim.run_until(svc.cl.sim.now() + 200_ms);
  // A marker+release pair the agent never issued: output would escape
  // without any epoch commit behind it.
  net::PlugQdisc& plug = svc.cl.primary_tcp.plug(core::kServiceIp);
  std::uint64_t rogue = plug.insert_marker();
  EXPECT_THROW(plug.release_to_marker(rogue), InvariantError);
}

}  // namespace
}  // namespace nlc::check
