// The physical network fabric: hosts, links, and IP->host binding (the
// switch's forwarding table, updated by gratuitous ARP on failover).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "net/link.hpp"
#include "net/types.hpp"
#include "sim/simulation.hpp"

namespace nlc::net {

using HostId = std::int32_t;

/// Receives packets addressed to IPs bound to its host (a TcpStack).
class PacketSink {
 public:
  virtual ~PacketSink() = default;
  virtual void deliver(const Packet& p) = 0;
};

class Network {
 public:
  explicit Network(sim::Simulation& s) : sim_(&s) {}
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// `domain` is the host's failure domain, borrowed.
  HostId add_host(std::string name, sim::Domain* domain);

  /// Full-duplex link between two hosts (one Link per direction so
  /// opposing traffic does not contend, as on real Ethernet).
  void add_link(HostId a, HostId b, double bits_per_second, Time latency);

  /// Binds an IP to a host; packets to `ip` are handed to `sink`.
  /// Rebinding an already-bound IP models gratuitous ARP moving a
  /// container's address to the backup host.
  void bind_ip(IpAddr ip, HostId host, PacketSink* sink);
  void unbind_ip(IpAddr ip);
  /// Host currently answering for `ip`, or -1.
  HostId ip_host(IpAddr ip) const;

  /// Sends `p` from the host owning `src_ip`. Unbound destinations are
  /// silently blackholed (like a switch with no forwarding entry). The
  /// packet is moved into its lane.
  void transmit(IpAddr src_ip, Packet p);

  /// Statistics for tests.
  std::uint64_t packets_sent() const { return packets_sent_; }
  std::uint64_t packets_blackholed() const { return packets_blackholed_; }

  Link* link_between(HostId a, HostId b);

 private:
  /// Packets in flight to one host along one path (a link direction, or
  /// the host's loopback), in arrival order.
  class Lane final : public sim::Deliverer {
   public:
    Lane(sim::Simulation& s, sim::Domain* dst) : sim_(&s), dst_(dst) {}
    void post(Time at, PacketSink* sink, Packet p) {
      in_flight_.push(at, Routed{sink, std::move(p)});
      sim_->post(at, dst_, this);
    }
    void deliver_next() override {
      Routed r = in_flight_.pop(sim_->now());
      r.sink->deliver(r.packet);
    }
    void drop_next() override { in_flight_.pop(sim_->now()); }

   private:
    struct Routed {
      PacketSink* sink = nullptr;
      Packet packet;
    };
    sim::Simulation* sim_;
    sim::Domain* dst_;
    sim::InFlight<Routed> in_flight_;
  };
  struct HostRec {
    std::string name;
    sim::Domain* domain;
    /// Same-host delivery (loopback / veth), posted at now().
    std::unique_ptr<Lane> loopback;
  };
  /// One direction of a full-duplex link and the packets in flight on it.
  struct Path {
    std::unique_ptr<Link> link;
    std::unique_ptr<Lane> lane;
  };
  struct Binding {
    HostId host;
    PacketSink* sink;
  };

  void add_path(HostId from, HostId to, double bits_per_second,
                Time latency);

  sim::Simulation* sim_;
  std::map<HostId, HostRec> hosts_;
  std::map<std::pair<HostId, HostId>, Path> paths_;
  std::map<IpAddr, Binding> bindings_;
  HostId next_host_ = 1;
  std::uint64_t packets_sent_ = 0;
  std::uint64_t packets_blackholed_ = 0;
};

}  // namespace nlc::net
