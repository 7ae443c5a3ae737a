// KV store failover demo: a Redis-style in-memory store protected by
// NiLiCon serves validating clients that write real bytes and verify every
// read — across a primary crash. The invariant on display is output
// commit: any response the client has seen reflects state the backup had
// already committed, so no acknowledged write can be lost.
//
//   $ ./build/examples/kv_failover
#include <cstdio>
#include <memory>

#include "apps/catalog.hpp"
#include "apps/server_app.hpp"
#include "clients/closed_loop.hpp"
#include "core/cluster.hpp"

using namespace nlc;
using namespace nlc::literals;

int main() {
  core::Cluster cluster;

  apps::AppSpec spec = apps::redis_spec();
  spec.kv_pages = 4'096;  // a smaller keyspace keeps the demo snappy
  kern::Container& cont = cluster.create_service_container(spec.name);
  apps::AppEnv env{&cluster.sim, cluster.primary_kernel.get(),
                   &cluster.primary_tcp, core::kServiceIp, 11};
  apps::ServerApp app(env, spec);
  app.setup(cont.id());

  cluster.sim.spawn([](core::Cluster& cl, kern::ContainerId cid,
                       apps::ServerApp& a,
                       const apps::AppSpec& s) -> sim::task<> {
    co_await cl.protect(cid, core::Options{});
    a.set_dilation(s.dilation_nilicon);
  }(cluster, cont.id(), app, spec));

  apps::AppEnv backup_env{&cluster.sim, &cluster.backup_kernel_of(0),
                          &cluster.backup_tcp_of(0), core::kServiceIp, 12};
  auto restored = std::make_shared<std::unique_ptr<apps::ServerApp>>();
  cluster.sim.call_after(1_ms, [&, restored] {
    cluster.backup(0).set_on_restored(
        [&, restored](const core::FailoverContext& ctx) {
          *restored = apps::ServerApp::attach_restored(backup_env, spec, ctx);
        });
  });

  clients::ClientConfig cc;
  cc.local_ip = core::kClientIp;
  cc.server_ip = core::kServiceIp;
  cc.port = spec.port;
  cc.connections = 4;
  cc.kv_mode = true;          // real payloads, verified GETs
  cc.kv_ops_per_request = 16;
  cc.keys_per_connection = 256;
  clients::ClosedLoopClient client(cluster.sim, cluster.client_domain,
                                   cluster.client_tcp, cc, 77);
  cluster.sim.call_after(5_ms, [&] { client.start(); });

  cluster.sim.call_after(3_s, [&] {
    std::printf("[%.3fs] crash: %llu batches acknowledged so far\n",
                to_seconds(cluster.sim.now()),
                static_cast<unsigned long long>(client.completed()));
    cluster.fail_primary();
  });
  cluster.sim.call_after(8_s, [&] {
    client.stop();
    cluster.sim.stop();
  });
  cluster.sim.run();

  std::printf("\n--- results ---\n");
  std::printf("KV batches completed:  %llu\n",
              static_cast<unsigned long long>(client.completed()));
  std::printf("verification errors:   %llu  (must be 0: no acknowledged\n"
              "                              write was lost in the failover)\n",
              static_cast<unsigned long long>(client.kv_errors()));
  std::printf("broken connections:    %llu  (must be 0)\n",
              static_cast<unsigned long long>(client.broken_connections()));
  std::printf("recovered on backup:   %s\n",
              cluster.backup(0).recovered() ? "yes" : "NO");
  bool ok = client.kv_errors() == 0 && client.broken_connections() == 0 &&
            cluster.backup(0).recovered();
  std::printf("\n%s\n", ok ? "SUCCESS: service survived the crash with full"
                             " consistency."
                           : "FAILURE: inconsistency detected.");
  return ok ? 0 : 1;
}
