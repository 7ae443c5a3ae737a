#include "net/network.hpp"

#include <utility>

#include "util/assert.hpp"

namespace nlc::net {

HostId Network::add_host(std::string name, sim::Domain* domain) {
  HostId id = next_host_++;
  hosts_[id] = HostRec{std::move(name), domain,
                       std::make_unique<Lane>(*sim_, domain)};
  return id;
}

void Network::add_link(HostId a, HostId b, double bits_per_second,
                       Time latency) {
  NLC_CHECK(hosts_.contains(a) && hosts_.contains(b));
  add_path(a, b, bits_per_second, latency);
  add_path(b, a, bits_per_second, latency);
}

void Network::add_path(HostId from, HostId to, double bits_per_second,
                       Time latency) {
  paths_[{from, to}] =
      Path{std::make_unique<Link>(*sim_, bits_per_second, latency),
           std::make_unique<Lane>(*sim_, hosts_.at(to).domain)};
}

void Network::bind_ip(IpAddr ip, HostId host, PacketSink* sink) {
  NLC_CHECK(hosts_.contains(host));
  NLC_CHECK(sink != nullptr);
  bindings_[ip] = Binding{host, sink};
}

void Network::unbind_ip(IpAddr ip) { bindings_.erase(ip); }

HostId Network::ip_host(IpAddr ip) const {
  auto it = bindings_.find(ip);
  return it == bindings_.end() ? -1 : it->second.host;
}

Link* Network::link_between(HostId a, HostId b) {
  auto it = paths_.find({a, b});
  return it == paths_.end() ? nullptr : it->second.link.get();
}

void Network::transmit(IpAddr src_ip, Packet p) {
  auto src = bindings_.find(src_ip);
  NLC_CHECK_MSG(src != bindings_.end(), "transmit from unbound IP");
  auto dst = bindings_.find(p.dst.ip);
  if (dst == bindings_.end()) {
    ++packets_blackholed_;
    return;
  }
  if (src->second.host == dst->second.host) {
    // Loopback / same-host veth: deliver at the next event boundary with
    // no serialization cost.
    hosts_.at(dst->second.host).loopback->post(sim_->now(), dst->second.sink,
                                               std::move(p));
    ++packets_sent_;
    return;
  }
  auto path = paths_.find({src->second.host, dst->second.host});
  NLC_CHECK_MSG(path != paths_.end(), "no link between hosts");
  const Time at = path->second.link->transmit(p.wire_bytes());
  if (at != kNever) {
    path->second.lane->post(at, dst->second.sink, std::move(p));
  }
  ++packets_sent_;
}

}  // namespace nlc::net
