// Point-to-point link with bandwidth serialization and propagation latency.
//
// Models the paper's testbed links: a dedicated 10 Gb Ethernet between the
// primary and backup hosts and 1 Gb Ethernet to the client host (§VI).
// Transmission is FIFO: a packet begins serializing when the transmitter
// frees up, and arrives one propagation latency after serialization
// completes. The link keeps only this timing; its users (Network,
// Channel) post the deliveries. It never drops or reorders; losses come
// from host failure (dead-domain delivery) and explicit filters.
#pragma once

#include <cstdint>

#include "sim/simulation.hpp"
#include "util/time.hpp"

namespace nlc::net {

class Link {
 public:
  /// `bits_per_second` = raw bandwidth; `latency` = propagation delay.
  Link(sim::Simulation& s, double bits_per_second, Time latency)
      : sim_(&s), bps_(bits_per_second), latency_(latency) {}

  /// Serializes `bytes` behind what the link is already sending and
  /// returns their arrival time at the far end, or kNever on a downed link
  /// (unplugged cable, §VII-A), which silently swallows them. Arrivals
  /// never decrease, since busy_until_ only grows and the latency is
  /// fixed, so the caller can post each link's deliveries to one FIFO.
  Time transmit(std::uint64_t bytes) {
    if (down_) return kNever;
    Time tx = serialization_delay(bytes);
    Time start = busy_until_ > sim_->now() ? busy_until_ : sim_->now();
    busy_until_ = start + tx;
    return busy_until_ + latency_;
  }

  Time serialization_delay(std::uint64_t bytes) const {
    return static_cast<Time>(static_cast<double>(bytes) * 8.0 / bps_ * 1e9);
  }

  Time latency() const { return latency_; }
  double bits_per_second() const { return bps_; }
  Time busy_until() const { return busy_until_; }

  /// Cable pulled / replugged. Packets already in flight still arrive.
  void set_down(bool down) { down_ = down; }
  bool down() const { return down_; }

 private:
  sim::Simulation* sim_;
  double bps_;
  Time latency_;
  Time busy_until_ = 0;
  bool down_ = false;
};

/// Convenience constructors matching the paper's testbed.
inline constexpr double kGigabit = 1e9;
inline constexpr double kTenGigabit = 10e9;

}  // namespace nlc::net
