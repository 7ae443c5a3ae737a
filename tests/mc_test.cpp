#include <gtest/gtest.h>

#include "apps/catalog.hpp"
#include "apps/server_app.hpp"
#include "core/cluster.hpp"
#include "mc/micro_checkpoint.hpp"

namespace nlc::mc {
namespace {

using namespace nlc::literals;
using core::Cluster;
using sim::task;

struct McRig {
  Cluster cl;
  apps::AppEnv env{&cl.sim, cl.primary_kernel.get(), &cl.primary_tcp,
                   core::kServiceIp, 3};
  std::unique_ptr<apps::ServerApp> app;
  std::unique_ptr<McDriver> driver;
  kern::ContainerId cid;

  explicit McRig(std::uint64_t guest_noise = 100,
                 const apps::AppSpec& spec = apps::netecho_spec()) {
    kern::Container& c = cl.create_service_container(spec.name);
    cid = c.id();
    app = std::make_unique<apps::ServerApp>(env, spec);
    app->setup(cid);
    McOptions mo;
    mo.guest_noise_pages = guest_noise;
    const Cluster::BackupReplica& backup = *cl.backups[0];
    driver = std::make_unique<McDriver>(mo, *cl.primary_kernel,
                                        cl.primary_tcp, cid,
                                        *backup.state_channel,
                                        *backup.ack_channel, cl.metrics);
    cl.sim.spawn(backup.domain.get(), driver->backup_responder());
    cl.sim.spawn([](McRig& r) -> task<> {
      co_await r.driver->start();
    }(*this));
  }
  // The epoch loop may be parked on the driver's ack event: destroy the
  // suspended frames before the driver.
  ~McRig() { cl.sim.shutdown(); }
};

TEST(McTest, EpochsAdvance) {
  McRig rig;
  rig.cl.sim.run_until(1_s);
  EXPECT_GT(rig.cl.metrics.epochs_completed, 25u);
  EXPECT_LT(rig.cl.metrics.epochs_completed, 40u);
}

TEST(McTest, StopTimeSmallAndPageProportional) {
  McRig rig(/*guest_noise=*/100);
  rig.cl.sim.run_until(1_s);
  // ~100 noise pages + idle echo: stop = 2.16ms + ~100 x 1.15us ≈ 2.3ms.
  EXPECT_GT(rig.cl.metrics.stop_time_ms.mean(), 1.5);
  EXPECT_LT(rig.cl.metrics.stop_time_ms.mean(), 4.0);
}

TEST(McTest, GuestNoiseIncreasesDirtyPages) {
  McRig quiet(10), noisy(1000);
  quiet.cl.sim.run_until(1_s);
  noisy.cl.sim.run_until(1_s);
  EXPECT_GT(noisy.cl.metrics.dirty_pages.mean(),
            quiet.cl.metrics.dirty_pages.mean() + 500);
}

TEST(McTest, OutputBufferedUntilAck) {
  McRig rig;
  rig.cl.sim.run_until(500_ms);
  // Plug engaged and cycling through markers without leaking packets.
  EXPECT_TRUE(rig.cl.primary_tcp.plug(core::kServiceIp).engaged());
  EXPECT_GT(rig.cl.metrics.commit_latency_ms.count(), 5u);
}

TEST(McTest, BackupBusyTracksState) {
  McRig rig(2000);
  rig.cl.sim.run_until(1_s);
  EXPECT_GT(rig.cl.metrics.backup_busy, 0);
}

TEST(McTest, EpochZeroAckGatesTheWindow) {
  // redis's initial full sync takes hundreds of milliseconds to reach the
  // backup and be acked. The two-epoch window lets one steady checkpoint
  // run ahead of that ack; epoch 2 must wait for it. "No ack yet" must
  // not read as "epoch 0 acked".
  McRig rig(/*guest_noise=*/0, apps::redis_spec());
  while (rig.cl.metrics.commit_latency_ms.empty() &&
         rig.cl.sim.now() < 5_s && rig.cl.sim.step()) {
  }
  ASSERT_EQ(rig.cl.metrics.commit_latency_ms.count(), 1u);
  EXPECT_LE(rig.cl.metrics.epochs_completed, 1u);
}

}  // namespace
}  // namespace nlc::mc
