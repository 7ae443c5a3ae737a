#include <gtest/gtest.h>

#include "apps/catalog.hpp"
#include "apps/server_app.hpp"
#include "clients/closed_loop.hpp"
#include "core/cluster.hpp"
#include "util/assert.hpp"

namespace nlc::clients {
namespace {

using namespace nlc::literals;
using core::Cluster;
using core::kClientIp;
using core::kServiceIp;

struct Rig {
  Cluster cl;
  apps::AppEnv env{&cl.sim, cl.primary_kernel.get(), &cl.primary_tcp,
                   kServiceIp, 3};
  std::unique_ptr<apps::ServerApp> app;

  explicit Rig(apps::AppSpec spec) {
    kern::Container& c = cl.create_service_container(spec.name);
    app = std::make_unique<apps::ServerApp>(env, spec);
    app->setup(c.id());
  }

  ClientConfig base() const {
    ClientConfig cc;
    cc.local_ip = kClientIp;
    cc.server_ip = kServiceIp;
    cc.port = app->spec().port;
    cc.request_bytes = 10;
    return cc;
  }
};

TEST(ClosedLoopClientTest, CompletesRequestsAndMeasuresLatency) {
  Rig rig(apps::netecho_spec());
  ClientConfig cc = rig.base();
  ClosedLoopClient client(rig.cl.sim, rig.cl.client_domain,
                          rig.cl.client_tcp, cc, 1);
  client.start();
  rig.cl.sim.run_until(300_ms);
  client.stop();
  EXPECT_GT(client.completed(), 50u);
  EXPECT_GT(client.latencies_ms().mean(), 0.0);
  EXPECT_EQ(client.protocol_errors(), 0u);
  EXPECT_EQ(client.latency_trace().size(), client.completed());
}

TEST(ClosedLoopClientTest, PipelineKeepsMultipleOutstanding) {
  // Pipelining hides the round-trip: a wire-latency-bound echo client
  // completes several times more requests with 4 outstanding than with 1.
  apps::AppSpec spec = apps::netecho_spec();
  Rig rig(spec);
  ClientConfig cc = rig.base();
  cc.pipeline = 4;
  ClosedLoopClient piped(rig.cl.sim, rig.cl.client_domain,
                         rig.cl.client_tcp, cc, 2);
  piped.start();
  rig.cl.sim.run_until(500_ms);
  piped.stop();

  Rig rig2(spec);
  ClientConfig cc2 = rig2.base();
  cc2.pipeline = 1;
  ClosedLoopClient serial(rig2.cl.sim, rig2.cl.client_domain,
                          rig2.cl.client_tcp, cc2, 2);
  serial.start();
  rig2.cl.sim.run_until(500_ms);
  serial.stop();

  EXPECT_GT(piped.completed(), serial.completed() * 2);
}

TEST(ClosedLoopClientTest, ThroughputWindowing) {
  Rig rig(apps::netecho_spec());
  ClientConfig cc = rig.base();
  ClosedLoopClient client(rig.cl.sim, rig.cl.client_domain,
                          rig.cl.client_tcp, cc, 3);
  client.start();
  rig.cl.sim.run_until(1_s);
  client.stop();
  double early = client.throughput(0, 500_ms);
  double late = client.throughput(500_ms, 1_s);
  EXPECT_GT(early, 0.0);
  EXPECT_NEAR(early, late, early * 0.5);  // steady state
}

TEST(ClosedLoopClientTest, KvModeDetectsServerWithoutStore) {
  // Server without a KV region replies without payload: every request
  // counts one kv error, none crash.
  Rig rig(apps::netecho_spec());  // kv_pages == 0
  ClientConfig cc = rig.base();
  cc.kv_mode = true;
  cc.kv_ops_per_request = 4;
  ClosedLoopClient client(rig.cl.sim, rig.cl.client_domain,
                          rig.cl.client_tcp, cc, 4);
  client.start();
  rig.cl.sim.run_until(100_ms);
  client.stop();
  EXPECT_GT(client.completed(), 0u);
  EXPECT_EQ(client.kv_errors(), client.completed());
}

TEST(ClosedLoopClientTest, KvModeWithFewKeysValidatesRepeatedValues) {
  // Four keys and 16 ops per request: most requests GET one value twice
  // and re-SET a key between two of its GETs, so the expected seeds must
  // follow each value through the request, not just each key.
  apps::AppSpec spec = apps::netecho_spec();
  spec.kv_pages = 128;
  Rig rig(spec);
  ClientConfig cc = rig.base();
  cc.connections = 2;
  cc.kv_mode = true;
  cc.keys_per_connection = 4;
  ClosedLoopClient client(rig.cl.sim, rig.cl.client_domain,
                          rig.cl.client_tcp, cc, 7);
  client.start();
  rig.cl.sim.run_until(1_s);
  client.stop();
  EXPECT_GT(client.completed(), 50u);
  EXPECT_EQ(client.kv_errors(), 0u);
  EXPECT_EQ(client.protocol_errors(), 0u);
  EXPECT_EQ(client.broken_connections(), 0u);
}

TEST(ClosedLoopClientTest, KvModeRejectsEmptyKeyRange) {
  // Expectations are indexed by a key's offset in its connection's range,
  // so a validating client needs at least one key per connection.
  Rig rig(apps::netecho_spec());
  ClientConfig cc = rig.base();
  cc.kv_mode = true;
  cc.keys_per_connection = 0;
  EXPECT_THROW(ClosedLoopClient(rig.cl.sim, rig.cl.client_domain,
                                rig.cl.client_tcp, cc, 8),
               InvariantError);
}

TEST(ClosedLoopClientTest, ConnectFailureCountsBroken) {
  Cluster cl;  // nobody listening on the service address
  cl.create_service_container("ghost");
  ClientConfig cc;
  cc.local_ip = kClientIp;
  cc.server_ip = kServiceIp;
  cc.port = 4242;
  ClosedLoopClient client(cl.sim, cl.client_domain, cl.client_tcp, cc, 6);
  client.start();
  cl.sim.run_until(1_s);
  EXPECT_EQ(client.broken_connections(), 1u);
  EXPECT_EQ(client.completed(), 0u);
}

}  // namespace
}  // namespace nlc::clients
