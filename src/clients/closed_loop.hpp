// Closed-loop client population: N connections, one outstanding request
// each (the YCSB/hiredis batch clients and the SIEGE web clients of §VI).
//
// In KV-validation mode each connection owns a disjoint key range and
// attaches real operation payloads. The server checks each found GET's
// stored bytes against the cell's seed in place and echoes that seed only
// when they match; the client checks the echo against the seed and length
// it last wrote to the key, across failovers. Because requests alternate
// with responses and NiLiCon releases output only after the backing state
// committed, the client's per-key expectations are always consistent with
// any state the service can resume from (DESIGN.md §5.4).
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "apps/kv.hpp"
#include "net/tcp.hpp"
#include "sim/simulation.hpp"
#include "sim/sync.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace nlc::clients {

struct ClientConfig {
  net::IpAddr local_ip = 0;
  net::IpAddr server_ip = 0;
  net::Port port = 80;
  int connections = 1;
  /// Requests in flight per connection. NiLiCon's output commit delays
  /// every response by up to an epoch; a driver that wants to saturate the
  /// server must keep several requests outstanding (the paper's YCSB
  /// batcher streams continuously).
  int pipeline = 1;
  std::uint64_t request_bytes = 200;

  // KV-validation mode.
  bool kv_mode = false;
  int kv_ops_per_request = 16;
  std::uint32_t keys_per_connection = 256;
};

class ClosedLoopClient {
 public:
  ClosedLoopClient(sim::Simulation& s, sim::DomainPtr domain,
                   net::TcpStack& tcp, ClientConfig cfg, std::uint64_t seed);

  /// Spawns all connections.
  void start();
  /// Stops issuing new requests (in-flight ones finish).
  void stop() { running_ = false; }
  /// Completes when every connection finished its handshake.
  sim::task<> wait_connected();

  std::uint64_t completed() const { return completed_; }
  std::uint64_t kv_errors() const { return kv_errors_; }
  std::uint64_t protocol_errors() const { return protocol_errors_; }
  std::uint64_t broken_connections() const { return broken_; }
  const Samples& latencies_ms() const { return latencies_; }
  /// (send time, latency) per request — recovery benches scan this for the
  /// interruption spike.
  const std::vector<std::pair<Time, Time>>& latency_trace() const {
    return trace_;
  }
  /// Throughput over [from, to) in requests/second.
  double throughput(Time from, Time to) const;

 private:
  struct Pending {
    std::uint64_t tag;
    Time sent_at;
    /// kv mode: the expected reply per op. A found GET expects the seed
    /// and length of the key's last SET, echoed in seed and reply_seed.
    std::vector<apps::KvOp> expected;
  };
  sim::task<> connection(int index);
  void verify_reply(const net::Segment& reply, const Pending& p);

  sim::Simulation* sim_;
  sim::DomainPtr domain_;
  net::TcpStack* tcp_;
  ClientConfig cfg_;
  Rng rng_;
  bool running_ = true;
  std::uint64_t next_tag_ = 1;
  std::uint64_t completed_ = 0;
  std::uint64_t kv_errors_ = 0;
  std::uint64_t protocol_errors_ = 0;
  std::uint64_t broken_ = 0;
  Samples latencies_;
  std::vector<std::pair<Time, Time>> trace_;
  std::unique_ptr<sim::WaitGroup> connected_;
};

}  // namespace nlc::clients
