#include "core/cluster.hpp"

#include <string>

#include "util/assert.hpp"

namespace nlc::core {

namespace {

/// Host name of backup replica `i`: the paper's one backup keeps its name,
/// and N-way replication numbers the ones it adds (backup1, backup2, ...).
std::string replica_name(int i) {
  return i > 0 ? "backup" + std::to_string(i) : "backup";
}

}  // namespace

Cluster::Cluster(ClusterConfig cfg)
    : client_domain(std::make_shared<sim::Domain>("client")),
      primary_domain(std::make_shared<sim::Domain>("primary")),
      network(sim),
      client_host(network.add_host("client", client_domain.get())),
      primary_host(network.add_host("primary", primary_domain.get())),
      client_tcp(sim, client_domain, network, client_host),
      primary_tcp(sim, primary_domain, network, primary_host),
      config(cfg) {
  NLC_CHECK_MSG(cfg.replicas >= 1 && cfg.replicas <= 16,
                "replicas out of range");
  network.add_link(client_host, primary_host, kClientLinkBps,
                   kClientLinkLatency);
  client_tcp.add_address(kClientIp);
  primary_tcp.add_address(kPrimaryHostIp);

  // The primary kernel's filesystem writes through the replicated block
  // device; each backup kernel mounts its own disk directly.
  drbd_primary = std::make_unique<blk::DrbdPrimary>(primary_disk);
  primary_kernel = std::make_unique<kern::Kernel>(sim, primary_domain,
                                                  "primary", *drbd_primary);
  // Priority lane (802.1p-style class) for the event log: shares the
  // physical 10 GbE but never queues behind page-delta serialization.
  log_priority_link = std::make_unique<net::Link>(
      sim, kReplicationLinkBps, kReplicationLinkLatency);
  control_link = std::make_unique<net::Link>(sim, kControlLinkBps,
                                             kControlLinkLatency);

  for (int i = 0; i < cfg.replicas; ++i) {
    BackupReplica& r = *backups.emplace_back(std::make_unique<BackupReplica>());
    const std::string name = replica_name(i);
    r.upstream = topo::upstream_of(cfg.topology, i);
    r.domain = std::make_shared<sim::Domain>(name);
    r.host = network.add_host(name, r.domain.get());
    network.add_link(client_host, r.host, kClientLinkBps, kClientLinkLatency);
    // The primary's link to replica 0 is its replication NIC. Every other
    // replica's pair of links carries only acks (and, after a failover,
    // fabric traffic to the primary): star data contends on the one NIC
    // and chain data on the per-hop links below, so no replica gets a free
    // dedicated feed.
    network.add_link(primary_host, r.host, kReplicationLinkBps,
                     kReplicationLinkLatency);
    r.tcp = std::make_unique<net::TcpStack>(sim, r.domain, network, r.host);
    r.tcp->add_address(kBackupHostIp + static_cast<net::IpAddr>(i));
    r.disk = std::make_unique<blk::Disk>();
    net::Link* feed = &replication_link();
    net::Link* log_feed = log_priority_link.get();
    if (r.upstream >= 0) {
      // Store-and-forward hop from the upstream replica, with its own log
      // priority lane mirroring the primary NIC's.
      r.hop_link = std::make_unique<net::Link>(sim, kReplicationLinkBps,
                                               kReplicationLinkLatency);
      r.log_link = std::make_unique<net::Link>(sim, kReplicationLinkBps,
                                               kReplicationLinkLatency);
      feed = r.hop_link.get();
      log_feed = r.log_link.get();
    }
    r.drbd_channel = std::make_unique<net::Channel<blk::DrbdMessage>>(
        sim, *feed, r.domain.get());
    r.drbd = std::make_unique<blk::DrbdBackup>(sim, *r.disk, *r.drbd_channel);
    // The DRBD stream reaches each replica from the first write on, before
    // protect(): a direct replica gets its own copy from the primary, a
    // forwarded one a copy from its upstream.
    if (r.upstream >= 0) {
      backups[static_cast<std::size_t>(r.upstream)]->drbd->set_forward(
          r.drbd_channel.get());
    } else {
      drbd_primary->add_channel(*r.drbd_channel);
    }
    r.kernel = std::make_unique<kern::Kernel>(sim, r.domain, name, *r.disk);
    r.state_channel =
        std::make_unique<StateChannel>(sim, *feed, r.domain.get());
    r.log_channel =
        std::make_unique<LogChannel>(sim, *log_feed, r.domain.get());
    net::Link* ret = network.link_between(r.host, primary_host);
    NLC_CHECK(ret != nullptr);
    r.ack_channel =
        std::make_unique<AckChannel>(sim, *ret, primary_domain.get());
    r.log_ack_channel =
        std::make_unique<LogAckChannel>(sim, *ret, primary_domain.get());
    // Control plane is star regardless of topology: every replica's
    // failure detector listens on the shared management network.
    r.heartbeat_channel =
        std::make_unique<HeartbeatChannel>(sim, *control_link,
                                           r.domain.get());
    r.stream = &r.own_stream;
  }
  // Replica 0 emits on the main stream, beside the primary.
  backups.front()->stream = &stream;
}

Cluster::~Cluster() {
  // Destroy suspended coroutine frames while every component they
  // reference is still alive.
  sim.shutdown();
}

kern::Container& Cluster::create_service_container(const std::string& name,
                                                   net::IpAddr service_ip) {
  kern::Container& c = primary_kernel->create_container(name);
  c.set_service_ip(service_ip);
  primary_tcp.add_address(service_ip);
  return c;
}

sim::task<> Cluster::protect(kern::ContainerId cid, const Options& opts) {
  NLC_CHECK_MSG(primary_agent == nullptr, "cluster already protecting");
  NLC_CHECK_MSG(opts.replicas == config.replicas,
                "Options::replicas must match ClusterConfig::replicas");
  NLC_CHECK_MSG(opts.replicas == 1 || opts.topology == config.topology,
                "Options::topology must match ClusterConfig::topology");
  primary_agent = std::make_unique<PrimaryAgent>(
      opts, *primary_kernel, primary_tcp, cid, *drbd_primary, metrics);
  if (config.replicas > 1) arbiter = std::make_unique<PromotionArbiter>(sim);
  // Every replica acks directly to the primary's quorum gate. The primary
  // sends state only to the directly fed ones; a forwarded replica gets it
  // from its upstream (chain, DESIGN.md §16).
  for (std::size_t i = 0; i < backups.size(); ++i) {
    BackupReplica& r = *backups[i];
    r.agent = std::make_unique<BackupAgent>(
        opts, *r.kernel, *r.tcp, *r.drbd, *r.state_channel, *r.ack_channel,
        *r.heartbeat_channel, *r.log_channel, *r.log_ack_channel, metrics);
    r.agent->set_replica_index(static_cast<int>(i));
    primary_agent->add_replica(*r.state_channel, *r.ack_channel,
                               *r.heartbeat_channel, *r.log_channel,
                               *r.log_ack_channel,
                               /*direct=*/r.upstream < 0);
    if (r.upstream >= 0) {
      backups[static_cast<std::size_t>(r.upstream)]->agent->set_downstream(
          r.state_channel.get(), r.log_channel.get());
    }
    if (arbiter != nullptr) {
      arbiter->register_replica(*r.agent, r.domain);
      r.agent->set_arbiter(arbiter.get());
    }
  }
  // The recorder subscribes first, so an event that trips the auditor is
  // already recorded when the violation throws.
  if (opts.trace_level != TraceLevel::kOff) {
    tracer = std::make_shared<trace::Recorder>();
    stream.subscribe(tracer.get());
  }
  if (on_agents_created) on_agents_created();
  // Components stay detached (one null check per protocol point) unless
  // someone listens. Only replica 0's stream is the recorded one; the
  // primary's kReplicaAck instants carry every replica's ack stream.
  if (!stream.empty()) {
    primary_agent->set_stream(&stream);
    primary_tcp.set_stream(&stream, trace::Track::kNetPrimary);
    if (arbiter != nullptr) arbiter->set_stream(&stream);
    obs_.attach(&stream);
  }
  for (auto& r : backups) {
    if (!r->stream->empty()) {
      r->agent->set_stream(r->stream);
      r->drbd->set_stream(r->stream);
      r->tcp->set_stream(r->stream, trace::Track::kNetBackup);
    }
    r->agent->start();
  }
  co_await primary_agent->start();
}

void Cluster::fail_backup(int i) {
  obs_.instant(trace::Track::kNetBackup, trace::Stage::kUnplug, sim.now(),
               static_cast<std::uint64_t>(i));
  backup_domain_of(i)->kill();
}

void Cluster::fail_rack(int rack) {
  NLC_CHECK_MSG(rack >= 0 && rack < kRacks, "fail_rack: no such rack");
  // Host 0 = primary, host 1 + i = backup replica i.
  for (int h = 0; h <= config.replicas; ++h) {
    if (rack_of(h) != rack) continue;
    if (h == 0) {
      fail_primary();
    } else {
      fail_backup(h - 1);
    }
  }
}

void Cluster::unplug_primary() {
  obs_.instant(trace::Track::kNetPrimary, trace::Stage::kUnplug, sim.now());
  // Both directions of every primary link, plus the management NIC.
  auto unplug = [this](net::HostId peer) {
    if (net::Link* l = network.link_between(primary_host, peer)) {
      l->set_down(true);
    }
    if (net::Link* l = network.link_between(peer, primary_host)) {
      l->set_down(true);
    }
  };
  unplug(client_host);
  for (auto& r : backups) unplug(r->host);
  control_link->set_down(true);
}

net::Link& Cluster::replication_link() {
  net::Link* l = network.link_between(primary_host, backups.front()->host);
  NLC_CHECK(l != nullptr);
  return *l;
}

}  // namespace nlc::core
