#include "clients/closed_loop.hpp"

#include <deque>

#include "util/assert.hpp"

namespace nlc::clients {

using apps::KvOp;
using apps::KvOpType;

namespace {

/// KV-validation mode: the share of ops that are SETs (of
/// apps::kKvValueLen bytes); the rest are GETs.
constexpr double kSetFraction = 0.5;

}  // namespace

ClosedLoopClient::ClosedLoopClient(sim::Simulation& s, sim::DomainPtr domain,
                                   net::TcpStack& tcp, ClientConfig cfg,
                                   std::uint64_t seed)
    : sim_(&s), domain_(std::move(domain)), tcp_(&tcp), cfg_(cfg),
      rng_(seed), connected_(std::make_unique<sim::WaitGroup>(s)) {
  NLC_CHECK_MSG(!cfg_.kv_mode || cfg_.keys_per_connection > 0,
                "KV validation needs at least one key per connection");
}

void ClosedLoopClient::start() {
  connected_->add(cfg_.connections);
  for (int i = 0; i < cfg_.connections; ++i) {
    sim_->spawn(domain_.get(), connection(i));
  }
}

sim::task<> ClosedLoopClient::wait_connected() {
  co_await connected_->wait();
}

double ClosedLoopClient::throughput(Time from, Time to) const {
  NLC_CHECK(to > from);
  std::uint64_t n = 0;
  for (const auto& [sent, lat] : trace_) {
    Time done = sent + lat;
    if (done >= from && done < to) ++n;
  }
  return static_cast<double>(n) / to_seconds(to - from);
}

void ClosedLoopClient::verify_reply(const net::Segment& reply,
                                    const Pending& p) {
  if (!cfg_.kv_mode) return;
  if (reply.payload == nullptr) {
    ++kv_errors_;
    return;
  }
  const std::vector<std::byte>& ops = *reply.payload;
  if (apps::kv_op_count(ops) != p.expected.size()) {
    ++kv_errors_;
    return;
  }
  for (std::size_t i = 0; i < p.expected.size(); ++i) {
    const KvOp& want = p.expected[i];
    // Read before the op kind is known, so a corrupt reply op of any kind
    // fails the codec's check.
    const KvOp got = apps::kv_read_op(ops, i);
    if (want.op != KvOpType::kGet) continue;
    if (got.found != want.found) {
      ++kv_errors_;
      continue;
    }
    if (!want.found) continue;
    // The server echoes the stored seed in reply_seed only when the stored
    // bytes are that seed's value, so both seeds and the length must be
    // the ones this connection last wrote.
    if (got.seed != want.seed || got.reply_seed != want.seed ||
        got.len != want.len) {
      ++kv_errors_;
    }
  }
}

sim::task<> ClosedLoopClient::connection(int index) {
  Rng rng = rng_.split(static_cast<std::uint64_t>(index));
  net::SocketId sock =
      co_await tcp_->connect(cfg_.local_ip, {cfg_.server_ip, cfg_.port});
  if (sock == 0) {
    ++broken_;
    connected_->done();
    co_return;
  }
  connected_->done();

  // Per-connection expectations: slot k holds the last SET composed on
  // this connection for key key_base + k (disjoint key ranges per
  // connection, and requests are processed in order, so compose-time
  // expectations hold).
  struct Expected {
    bool written = false;
    std::uint64_t seed = 0;
    std::uint16_t len = 0;
  };
  std::vector<Expected> expect(cfg_.kv_mode ? cfg_.keys_per_connection : 0);
  std::uint32_t key_base =
      static_cast<std::uint32_t>(index) * cfg_.keys_per_connection;
  std::deque<Pending> outstanding;

  auto compose_and_send = [&] {
    Pending p;
    p.tag = next_tag_++;
    p.sent_at = sim_->now();
    std::shared_ptr<std::vector<std::byte>> payload;
    std::uint64_t req_len = cfg_.request_bytes;
    if (cfg_.kv_mode) {
      std::vector<KvOp> ops;
      ops.reserve(static_cast<std::size_t>(cfg_.kv_ops_per_request));
      p.expected.reserve(ops.capacity());
      for (int i = 0; i < cfg_.kv_ops_per_request; ++i) {
        const auto slot = static_cast<std::uint32_t>(
            rng.uniform(0, cfg_.keys_per_connection - 1));
        Expected& e = expect[slot];
        KvOp op;
        op.key = key_base + slot;
        if (rng.chance(kSetFraction)) {
          op.op = KvOpType::kSet;
          op.seed = rng.next();
          op.len = apps::kKvValueLen;
          e = Expected{true, op.seed, op.len};
        } else {
          op.op = KvOpType::kGet;
        }
        ops.push_back(op);
        KvOp snap = op;
        if (op.op == KvOpType::kGet) {
          snap.found = e.written;
          snap.seed = e.seed;
          snap.len = e.len;
        }
        p.expected.push_back(snap);
      }
      payload = apps::kv_encode(ops);
      req_len = payload->size();
    }
    tcp_->send(sock, static_cast<std::uint32_t>(req_len), p.tag, payload);
    outstanding.push_back(std::move(p));
  };

  while (running_) {
    while (running_ &&
           outstanding.size() < static_cast<std::size_t>(cfg_.pipeline)) {
      compose_and_send();
    }
    auto reply = co_await tcp_->recv(sock);
    if (!reply.has_value()) {
      ++broken_;
      co_return;
    }
    NLC_CHECK(!outstanding.empty());
    Pending p = std::move(outstanding.front());
    outstanding.pop_front();
    if (reply->tag != p.tag) {
      ++protocol_errors_;
      continue;
    }
    Time lat = sim_->now() - p.sent_at;
    latencies_.add(to_millis(lat));
    trace_.emplace_back(p.sent_at, lat);
    ++completed_;
    verify_reply(*reply, p);
  }
  // Drain whatever is still in flight so latency accounting stays sane.
  while (!outstanding.empty()) {
    auto reply = co_await tcp_->recv(sock);
    if (!reply.has_value()) break;
    Pending p = std::move(outstanding.front());
    outstanding.pop_front();
    if (reply->tag != p.tag) continue;
    Time lat = sim_->now() - p.sent_at;
    latencies_.add(to_millis(lat));
    trace_.emplace_back(p.sent_at, lat);
    ++completed_;
    verify_reply(*reply, p);
  }
}

}  // namespace nlc::clients
