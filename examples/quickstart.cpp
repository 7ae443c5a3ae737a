// Quickstart: protect a tiny echo service with NiLiCon, serve a client,
// crash the primary, and watch the service survive.
//
//   $ ./build/examples/quickstart
//
// Walks the core public API: Cluster (testbed topology), ServerApp (a
// workload on the simulated kernel), protect() (the agent pair), a
// closed-loop client, fail_primary(), and the recovery metrics.
#include <cstdio>
#include <memory>

#include "apps/catalog.hpp"
#include "apps/server_app.hpp"
#include "clients/closed_loop.hpp"
#include "core/cluster.hpp"
#include "util/bytes.hpp"

using namespace nlc;
using namespace nlc::literals;

int main() {
  // 1. The paper's testbed: client + primary + backup hosts, 1GbE client
  //    links, a dedicated 10GbE replication link.
  core::Cluster cluster;

  // 2. A container on the primary running an echo server.
  apps::AppSpec spec = apps::netecho_spec();
  kern::Container& cont = cluster.create_service_container(spec.name);
  apps::AppEnv env{&cluster.sim, cluster.primary_kernel.get(),
                   &cluster.primary_tcp, core::kServiceIp, /*seed=*/1};
  apps::ServerApp app(env, spec);
  app.setup(cont.id());

  // 3. Protect it: initial synchronization, then 30ms epochs.
  cluster.sim.spawn([](core::Cluster& cl, kern::ContainerId cid,
                       apps::ServerApp& a,
                       const apps::AppSpec& s) -> sim::task<> {
    co_await cl.protect(cid, core::Options{});
    a.set_dilation(s.dilation_nilicon);
    std::printf("[%.3fs] container protected (initial sync done)\n",
                to_seconds(cl.sim.now()));
  }(cluster, cont.id(), app, spec));

  // On failover, re-attach the service on the backup host.
  apps::AppEnv backup_env{&cluster.sim, &cluster.backup_kernel_of(0),
                          &cluster.backup_tcp_of(0), core::kServiceIp, 2};
  auto restored = std::make_shared<std::unique_ptr<apps::ServerApp>>();
  cluster.sim.call_after(1_ms, [&, restored] {
    cluster.backup(0).set_on_restored(
        [&, restored](const core::FailoverContext& ctx) {
          *restored = apps::ServerApp::attach_restored(backup_env, spec, ctx);
          std::printf("[%.3fs] service re-attached on the backup\n",
                      to_seconds(cluster.sim.now()));
        });
  });

  // 4. A client hammering the service.
  clients::ClientConfig cc;
  cc.local_ip = core::kClientIp;
  cc.server_ip = core::kServiceIp;
  cc.port = spec.port;
  cc.connections = 2;
  cc.request_bytes = 10;
  clients::ClosedLoopClient client(cluster.sim, cluster.client_domain,
                                   cluster.client_tcp, cc, /*seed=*/42);
  cluster.sim.call_after(5_ms, [&] { client.start(); });

  // 5. Crash the primary mid-run.
  cluster.sim.call_after(2_s, [&] {
    std::printf("[%.3fs] PRIMARY HOST CRASHED (fail-stop)\n",
                to_seconds(cluster.sim.now()));
    cluster.fail_primary();
  });

  cluster.sim.call_after(6_s, [&] {
    client.stop();
    cluster.sim.stop();
  });
  cluster.sim.run();

  // 6. What happened?
  std::printf("\n--- results ---\n");
  std::printf("requests completed:    %llu\n",
              static_cast<unsigned long long>(client.completed()));
  std::printf("broken connections:    %llu  (must be 0)\n",
              static_cast<unsigned long long>(client.broken_connections()));
  std::printf("epochs checkpointed:   %llu (mean stop %.2fms, state %s)\n",
              static_cast<unsigned long long>(
                  cluster.metrics.epochs_completed),
              cluster.metrics.stop_time_ms.mean(),
              format_bytes(static_cast<std::uint64_t>(
                               cluster.metrics.state_bytes.mean()))
                  .c_str());
  const auto& rm = cluster.backup(0).recovery_metrics();
  std::printf("recovered:             %s\n",
              cluster.backup(0).recovered() ? "yes" : "NO");
  std::printf("detection latency:     %.0fms\n",
              to_millis(rm.detection_latency));
  std::printf("restore time:          %.0fms (+%.0fms ARP, +%.0fms misc)\n",
              to_millis(rm.restore_time), to_millis(rm.arp_time),
              to_millis(rm.misc_time));
  std::printf("max client latency:    %.0fms (the failover blip)\n",
              client.latencies_ms().max());
  return client.broken_connections() == 0 ? 0 : 1;
}
