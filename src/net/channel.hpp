// Typed reliable FIFO channel over a Link — the transport the NiLiCon
// agents and the DRBD peers use on the dedicated replication network.
//
// The paper runs these over TCP on an otherwise idle, lossless 10 GbE
// link; modeling them as serialized-FIFO messages preserves the two
// properties the protocol depends on — ordering and wire time — without
// simulating per-segment TCP dynamics. Host failure is still fail-stop: a
// message addressed to a dead host is discarded at arrival.
#pragma once

#include <utility>

#include "net/link.hpp"
#include "sim/simulation.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace nlc::net {

template <typename T>
class Channel final : private sim::Deliverer {
 public:
  /// `link` carries this channel's bytes (shared with other channels on
  /// the same physical link — serialization contention is modeled by the
  /// link itself). `dst_domain` is the receiving host, borrowed.
  Channel(sim::Simulation& s, Link& link, sim::Domain* dst_domain)
      : sim_(&s), link_(&link), dst_domain_(dst_domain), inbox_(s) {}

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Ships `msg`, charging `wire_bytes` of link serialization. Delivery is
  /// FIFO. Returns the simulated arrival time (kNever on a downed link).
  Time send(T msg, std::uint64_t wire_bytes) {
    ++messages_sent_;
    bytes_sent_ += wire_bytes;
    const Time at = link_->transmit(wire_bytes);
    if (at == kNever) return at;
    in_flight_.push(at, std::move(msg));
    sim_->post(at, dst_domain_, this);
    return at;
  }

  /// Receiver side (runs on the destination host).
  sim::task<T> recv() { co_return co_await inbox_.recv(); }
  std::optional<T> try_recv() { return inbox_.try_recv(); }
  bool empty() const { return inbox_.empty(); }

  std::uint64_t messages_sent() const { return messages_sent_; }
  std::uint64_t bytes_sent() const { return bytes_sent_; }

 private:
  // All of a channel's messages ride one link, so they arrive in the order
  // they were sent.
  void deliver_next() override {
    inbox_.send(in_flight_.pop(sim_->now()));
  }
  void drop_next() override { in_flight_.pop(sim_->now()); }

  sim::Simulation* sim_;
  Link* link_;
  sim::Domain* dst_domain_;
  sim::InFlight<T> in_flight_;
  sim::Mailbox<T> inbox_;
  std::uint64_t messages_sent_ = 0;
  std::uint64_t bytes_sent_ = 0;
};

}  // namespace nlc::net
