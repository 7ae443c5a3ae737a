#include <gtest/gtest.h>

#include "apps/catalog.hpp"
#include "apps/server_app.hpp"
#include "clients/closed_loop.hpp"
#include "core/cluster.hpp"
#include "core/options.hpp"
#include "core/state_cache.hpp"
#include "sim/simulation.hpp"

namespace nlc::core {
namespace {

using namespace nlc::literals;
using sim::task;

apps::AppSpec tiny_spec() {
  apps::AppSpec s = apps::netecho_spec();
  s.kv_pages = 256;  // enable KV for validation tests
  return s;
}

struct ProtectedService {
  Cluster cl;
  apps::AppEnv env;
  std::unique_ptr<apps::ServerApp> app;
  kern::ContainerId cid;

  explicit ProtectedService(apps::AppSpec spec = tiny_spec(),
                            Options opts = {})
      : env{&cl.sim, cl.primary_kernel.get(), &cl.primary_tcp, kServiceIp,
            7} {
    kern::Container& c = cl.create_service_container(spec.name);
    cid = c.id();
    app = std::make_unique<apps::ServerApp>(env, spec);
    app->setup(cid);
    bool ready = false;
    cl.sim.spawn([](Cluster& cc, kern::ContainerId id, Options o,
                    bool& r) -> task<> {
      co_await cc.protect(id, o);
      r = true;
    }(cl, cid, opts, ready));
    // Run only until protection is up so tests measure from a clean start.
    Time deadline = cl.sim.now() + 5_s;
    while (!ready && cl.sim.now() < deadline && cl.sim.step()) {
    }
    EXPECT_TRUE(ready);
  }
};

TEST(ClusterTest, ProtectCompletesInitialSync) {
  ProtectedService svc;
  EXPECT_EQ(svc.cl.primary_agent->acked_epoch(),
            std::optional<std::uint64_t>{0});
  // An idle container has no resident pages (full dumps skip holes), so
  // dirty some memory and let an incremental epoch ship it.
  kern::Process* p =
      svc.cl.primary_kernel->container_processes(svc.cid).front();
  p->mm().touch_range(p->mm().vmas().front().start, 16);
  svc.cl.sim.run_until(svc.cl.sim.now() + 200_ms);
  EXPECT_GE(svc.cl.backup(0).committed_epoch(), 1u);
  EXPECT_GE(svc.cl.backup(0).page_store().page_count(), 16u);
}

TEST(ClusterTest, EpochsAdvanceAndMetricsAccumulate) {
  ProtectedService svc;
  svc.cl.sim.run_until(svc.cl.sim.now() + 1_s);
  // ~30ms epochs: expect on the order of 30 epochs in a second.
  EXPECT_GT(svc.cl.metrics.epochs_completed, 20u);
  EXPECT_LT(svc.cl.metrics.epochs_completed, 40u);
  EXPECT_GT(svc.cl.metrics.stop_time_ms.count(), 20u);
  // Idle echo container: stop time a few ms (freeze + harvest).
  EXPECT_LT(svc.cl.metrics.stop_time_ms.mean(), 10.0);
  EXPECT_GT(svc.cl.metrics.stop_time_ms.mean(), 0.5);
}

TEST(ClusterTest, BackupCommitsTrackPrimaryEpochs) {
  ProtectedService svc;
  svc.cl.sim.run_until(svc.cl.sim.now() + 1_s);
  auto primary_epoch = svc.cl.primary_agent->current_epoch();
  auto committed = svc.cl.backup(0).committed_epoch();
  EXPECT_GE(committed + 3, primary_epoch);  // at most a couple in flight
}

/// Output commit: a response never reaches the client before the epoch
/// that produced it is acknowledged by the backup.
TEST(ClusterTest, ResponseDelayedUntilEpochCommit) {
  ProtectedService svc;
  clients::ClientConfig cc;
  cc.local_ip = kClientIp;
  cc.server_ip = kServiceIp;
  cc.port = svc.app->spec().port;
  cc.connections = 1;
  cc.request_bytes = 10;
  clients::ClosedLoopClient client(svc.cl.sim, svc.cl.client_domain,
                                   svc.cl.client_tcp, cc, 42);
  client.start();
  svc.cl.sim.run_until(svc.cl.sim.now() + 2_s);
  client.stop();
  ASSERT_GT(client.completed(), 10u);
  // An echo takes <1ms unprotected; under 30ms epochs the release waits
  // for the next epoch boundary: mean latency must reflect the buffering
  // delay (≈ half an epoch at minimum).
  EXPECT_GT(client.latencies_ms().mean(), 10.0);
  EXPECT_EQ(client.broken_connections(), 0u);
}

TEST(ClusterTest, PlugHoldsPacketsBetweenEpochs) {
  ProtectedService svc;
  // Enqueue something mid-epoch and verify the plug is engaged.
  EXPECT_TRUE(svc.cl.primary_tcp.plug(kServiceIp).engaged());
}

TEST(StateCacheTest, InvalidationOnMount) {
  Cluster cl;
  kern::Container& c = cl.create_service_container("x");
  InfrequentStateCache cache(*cl.primary_kernel, c.id());
  EXPECT_FALSE(cache.valid());
  EXPECT_EQ(cache.get(), nullptr);
  criu::CheckpointEngine eng(*cl.primary_kernel, cl.primary_tcp);
  const criu::InfrequentSnapshot snap = eng.harvest_infrequent(c.id());
  cache.update(snap);
  EXPECT_TRUE(cache.valid());
  EXPECT_EQ(cache.get().get(), snap.get());  // holds the snapshot, no copy
  cl.primary_kernel->do_mount(c.id(), {"tmpfs", "/y", "tmpfs", 0});
  EXPECT_FALSE(cache.valid());
  EXPECT_EQ(cache.get(), nullptr);
  EXPECT_EQ(cache.invalidations(), 1u);
}

TEST(StateCacheTest, OtherContainersDoNotInvalidate) {
  Cluster cl;
  kern::Container& a = cl.create_service_container("a");
  kern::Container& b = cl.primary_kernel->create_container("b");
  InfrequentStateCache cache(*cl.primary_kernel, a.id());
  criu::CheckpointEngine eng(*cl.primary_kernel, cl.primary_tcp);
  cache.update(eng.harvest_infrequent(a.id()));
  cl.primary_kernel->do_mount(b.id(), {"tmpfs", "/y", "tmpfs", 0});
  EXPECT_TRUE(cache.valid());
}

TEST(ClusterTest, HeartbeatDetectionLatency) {
  ProtectedService svc;
  svc.cl.sim.run_until(svc.cl.sim.now() + 500_ms);
  Time kill_time = svc.cl.sim.now();
  svc.cl.fail_primary();
  svc.cl.sim.run_until(kill_time + 3_s);
  ASSERT_TRUE(svc.cl.backup(0).recovered());
  const RecoveryMetrics& rm = svc.cl.backup(0).recovery_metrics();
  // Detection: 3 missed 30ms beats => ~60-150ms after the crash.
  Time detect_after = rm.detection_started - kill_time;
  EXPECT_GE(detect_after, 60_ms);
  EXPECT_LE(detect_after, 160_ms);
}

TEST(ClusterTest, RecoveryRestoresContainerOnBackup) {
  ProtectedService svc;
  svc.cl.sim.run_until(svc.cl.sim.now() + 500_ms);
  svc.cl.fail_primary();
  svc.cl.sim.run_until(svc.cl.sim.now() + 3_s);
  ASSERT_TRUE(svc.cl.backup(0).recovered());
  kern::Container* restored = svc.cl.backup_kernel_of(0).container(svc.cid);
  ASSERT_NE(restored, nullptr);
  EXPECT_FALSE(svc.cl.backup_kernel_of(0).container_processes(svc.cid).empty());
  // Service address now answered by the backup host.
  EXPECT_EQ(svc.cl.network.ip_host(kServiceIp), svc.cl.backups[0]->host);
  const RecoveryMetrics& rm = svc.cl.backup(0).recovery_metrics();
  EXPECT_GT(rm.restore_time, 100_ms);   // Table II scale
  EXPECT_LT(rm.restore_time, 600_ms);
  EXPECT_EQ(rm.arp_time, 28_ms);
  EXPECT_EQ(rm.misc_time, 7_ms);
}

TEST(ClusterTest, RecoveryWithoutCommittedSyncThrows) {
  Cluster cl;
  cl.create_service_container("x");
  // No protect(): manual trigger must fail loudly, not corrupt.
  // (Backup agent requires protect(); construct directly is not exposed,
  // so this simply documents that protect-before-fail is required.)
  SUCCEED();
}

TEST(ClusterTest, UncommittedEpochDiscardedOnFailover) {
  ProtectedService svc;
  svc.cl.sim.run_until(svc.cl.sim.now() + 500_ms);
  auto committed_before = svc.cl.backup(0).committed_epoch();
  svc.cl.fail_primary();
  svc.cl.sim.run_until(svc.cl.sim.now() + 3_s);
  ASSERT_TRUE(svc.cl.backup(0).recovered());
  // Restored from a committed epoch at or after what we saw.
  EXPECT_GE(svc.cl.backup(0).recovery_metrics().committed_epoch,
            committed_before);
}

/// End-to-end: a KV client never observes a lost acknowledged write or a
/// broken connection across a failover.
TEST(ClusterTest, FailoverPreservesAcknowledgedWrites) {
  apps::AppSpec spec = tiny_spec();
  ProtectedService svc(spec);
  apps::AppEnv backup_env{&svc.cl.sim, &svc.cl.backup_kernel_of(0),
                          &svc.cl.backup_tcp_of(0), kServiceIp, 8};
  auto holder = std::make_shared<std::unique_ptr<apps::ServerApp>>();
  svc.cl.backup(0).set_on_restored(
      [&, holder](const core::FailoverContext& ctx) {
        *holder = apps::ServerApp::attach_restored(backup_env, spec, ctx);
      });

  clients::ClientConfig cc;
  cc.local_ip = kClientIp;
  cc.server_ip = kServiceIp;
  cc.port = spec.port;
  cc.connections = 2;
  cc.kv_mode = true;
  cc.kv_ops_per_request = 8;
  cc.keys_per_connection = 64;
  clients::ClosedLoopClient client(svc.cl.sim, svc.cl.client_domain,
                                   svc.cl.client_tcp, cc, 99);
  client.start();
  svc.cl.sim.run_until(svc.cl.sim.now() + 1_s);
  auto before_fault = client.completed();
  ASSERT_GT(before_fault, 5u);

  svc.cl.fail_primary();
  svc.cl.sim.run_until(svc.cl.sim.now() + 5_s);
  client.stop();
  svc.cl.sim.run_until(svc.cl.sim.now() + 1_s);

  EXPECT_TRUE(svc.cl.backup(0).recovered());
  EXPECT_GT(client.completed(), before_fault);  // service resumed
  EXPECT_EQ(client.kv_errors(), 0u);            // no lost acknowledged write
  EXPECT_EQ(client.broken_connections(), 0u);   // no RST (§III)
  EXPECT_EQ(client.protocol_errors(), 0u);
}

/// Disk state: after failover the backup's disk+cache view equals the
/// committed epoch (DRBD barrier/commit discipline).
TEST(ClusterTest, DrbdBufferedWritesCommittedWithEpochs) {
  ProtectedService svc;
  // Generate some filesystem traffic on the primary.
  auto ino = svc.cl.primary_kernel->fs().create("/data/t");
  std::vector<std::byte> blob(8192, std::byte{0x42});
  svc.cl.primary_kernel->fs().write(ino, 0, blob, 1);
  svc.cl.primary_kernel->fs().sync_all();
  svc.cl.sim.run_until(svc.cl.sim.now() + 200_ms);
  // Writes replicated and committed with the epoch stream.
  const Cluster::BackupReplica& backup = *svc.cl.backups[0];
  EXPECT_GT(backup.drbd->writes_committed(), 0u);
  EXPECT_TRUE(svc.cl.primary_disk.same_content(*backup.disk));
}

TEST(OptionsTest, Table1RowsAreCumulative) {
  Options r0 = Options::table1_row(0);
  EXPECT_FALSE(r0.optimize_criu);
  EXPECT_FALSE(r0.pages_via_shared_memory);
  Options r3 = Options::table1_row(3);
  EXPECT_TRUE(r3.optimize_criu);
  EXPECT_TRUE(r3.plug_input_blocking);
  EXPECT_FALSE(r3.vma_via_netlink);
  Options r6 = Options::table1_row(6);
  EXPECT_TRUE(r6.pages_via_shared_memory);
}

TEST(ClusterTest, FirewallInputBlockingSlowsConnectionSetup) {
  Options slow;
  slow.plug_input_blocking = false;
  ProtectedService svc(tiny_spec(), slow);
  clients::ClientConfig cc;
  cc.local_ip = kClientIp;
  cc.server_ip = kServiceIp;
  cc.port = svc.app->spec().port;
  cc.connections = 1;
  cc.request_bytes = 10;
  clients::ClosedLoopClient client(svc.cl.sim, svc.cl.client_domain,
                                   svc.cl.client_tcp, cc, 5);
  client.start();
  svc.cl.sim.run_until(svc.cl.sim.now() + 4_s);
  client.stop();
  // SYNs dropped by the firewall during pauses force multi-second
  // retransmission delays (§V-C); with 30ms epochs and ~7ms pauses a SYN
  // has a fair chance of hitting one.
  EXPECT_GT(client.completed(), 0u);
}

}  // namespace
}  // namespace nlc::core
