#include "clients/closed_loop.hpp"

#include <algorithm>
#include <array>
#include <deque>
#include <optional>
#include <span>

#include "util/assert.hpp"

namespace nlc::clients {

using apps::KvOp;
using apps::KvOpType;

ClosedLoopClient::ClosedLoopClient(sim::Simulation& s, sim::DomainPtr domain,
                                   net::TcpStack& tcp, ClientConfig cfg,
                                   std::uint64_t seed)
    : sim_(&s), domain_(std::move(domain)), tcp_(&tcp), cfg_(cfg),
      rng_(seed), connected_(std::make_unique<sim::WaitGroup>(s)) {}

void ClosedLoopClient::start() {
  connected_->add(cfg_.connections);
  for (int i = 0; i < cfg_.connections; ++i) {
    sim_->spawn(domain_, connection(i));
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
  std::vector<KvOp> replies = apps::kv_decode(*reply.payload);
  if (replies.size() != p.expected.size()) {
    ++kv_errors_;
    return;
  }
  for (std::size_t i = 0; i < replies.size(); ++i) {
    const KvOp& want = p.expected[i];
    const KvOp& got = replies[i];
    if (want.op != KvOpType::kGet) continue;
    if (got.found != want.found) {
      ++kv_errors_;
      continue;
    }
    if (!want.found) continue;
    if (got.reply_seed != want.reply_seed || got.len != want.len) {
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

  // Per-connection expectation map: key -> the last SET composed on this
  // connection (disjoint key ranges per connection, and requests are
  // processed in order, so compose-time expectations hold). The value's
  // content hash is computed for the first request that GETs it, then
  // reused by every later GET of the same value.
  struct Expected {
    std::uint64_t seed = 0;
    std::uint16_t len = 0;
    std::optional<std::uint64_t> hash;
  };
  std::map<std::uint32_t, Expected> expect;
  std::uint32_t key_base =
      static_cast<std::uint32_t>(index) * cfg_.keys_per_connection;
  std::deque<Pending> outstanding;
  // Found GETs of the request being composed whose value has no hash yet
  // (indices into its expected replies), and kKvHashLanes value buffers.
  std::vector<std::size_t> unhashed;
  std::vector<std::byte> lane_values(apps::kKvHashLanes * cfg_.value_len);

  // Fills in the hashes the composed request still owes, kKvHashLanes
  // values in lockstep, and caches each in its key's expectation entry
  // unless a later SET in the request has replaced the value there.
  auto hash_unhashed = [&](std::vector<KvOp>& want) {
    for (std::size_t at = 0; at < unhashed.size();
         at += apps::kKvHashLanes) {
      const std::size_t n =
          std::min(apps::kKvHashLanes, unhashed.size() - at);
      std::array<std::span<const std::byte>, apps::kKvHashLanes> values{};
      std::array<std::uint64_t, apps::kKvHashLanes> hashes{};
      for (std::size_t l = 0; l < n; ++l) {
        const KvOp& w = want[unhashed[at + l]];
        std::byte* buf = lane_values.data() + l * cfg_.value_len;
        apps::kv_fill_value(w.seed, buf, w.len);
        values[l] = {buf, w.len};
      }
      apps::kv_content_hash_lanes({values.data(), n}, {hashes.data(), n});
      for (std::size_t l = 0; l < n; ++l) {
        KvOp& w = want[unhashed[at + l]];
        w.reply_seed = hashes[l];
        Expected& e = expect.at(w.key);
        if (e.seed == w.seed && e.len == w.len) e.hash = w.reply_seed;
      }
    }
  };

  auto compose_and_send = [&] {
    Pending p;
    p.tag = next_tag_++;
    p.sent_at = sim_->now();
    std::shared_ptr<std::vector<std::byte>> payload;
    std::uint64_t req_len = cfg_.request_bytes;
    if (cfg_.kv_mode) {
      std::vector<KvOp> ops;
      unhashed.clear();
      for (int i = 0; i < cfg_.kv_ops_per_request; ++i) {
        KvOp op;
        op.key = key_base + static_cast<std::uint32_t>(rng.uniform(
                                0, cfg_.keys_per_connection - 1));
        if (rng.chance(cfg_.set_fraction)) {
          op.op = KvOpType::kSet;
          op.seed = rng.next();
          op.len = cfg_.value_len;
          expect[op.key] = Expected{op.seed, op.len, std::nullopt};
        } else {
          op.op = KvOpType::kGet;
        }
        ops.push_back(op);
        KvOp snap = op;
        if (op.op == KvOpType::kGet) {
          auto it = expect.find(op.key);
          if (it != expect.end()) {
            const Expected& e = it->second;
            snap.found = true;
            snap.seed = e.seed;
            snap.len = e.len;
            // The content hash the reply carries.
            if (e.hash) {
              snap.reply_seed = *e.hash;
            } else {
              unhashed.push_back(p.expected.size());
            }
          } else {
            snap.found = false;
          }
        }
        p.expected.push_back(snap);
      }
      hash_unhashed(p.expected);
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
    if (cfg_.think_time > 0) co_await sim_->sleep_for(cfg_.think_time);
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
