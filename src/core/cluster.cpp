#include "core/cluster.hpp"

#include <string>

#include "util/assert.hpp"

namespace nlc::core {

Cluster::Cluster(ClusterConfig cfg)
    : client_domain(std::make_shared<sim::Domain>("client")),
      primary_domain(std::make_shared<sim::Domain>("primary")),
      backup_domain(std::make_shared<sim::Domain>("backup")),
      network(sim),
      client_host(network.add_host("client", client_domain)),
      primary_host(network.add_host("primary", primary_domain)),
      backup_host(network.add_host("backup", backup_domain)),
      client_tcp(sim, client_domain, network, client_host),
      primary_tcp(sim, primary_domain, network, primary_host),
      backup_tcp(sim, backup_domain, network, backup_host) {
  network.add_link(client_host, primary_host, cfg.client_link_bps,
                   cfg.client_link_latency);
  network.add_link(client_host, backup_host, cfg.client_link_bps,
                   cfg.client_link_latency);
  network.add_link(primary_host, backup_host, cfg.replication_link_bps,
                   cfg.replication_link_latency);

  client_tcp.add_address(kClientIp);
  primary_tcp.add_address(kPrimaryHostIp);
  backup_tcp.add_address(kBackupHostIp);

  net::Link* p2b = network.link_between(primary_host, backup_host);
  net::Link* b2p = network.link_between(backup_host, primary_host);
  NLC_CHECK(p2b != nullptr && b2p != nullptr);

  drbd_channel = std::make_unique<net::Channel<blk::DrbdMessage>>(
      sim, *p2b, backup_domain);
  drbd_primary =
      std::make_unique<blk::DrbdPrimary>(primary_disk, *drbd_channel);
  drbd_backup =
      std::make_unique<blk::DrbdBackup>(sim, backup_disk, *drbd_channel);

  // The primary kernel's filesystem writes through the replicated block
  // device; the backup kernel mounts the backup disk directly.
  primary_kernel = std::make_unique<kern::Kernel>(sim, primary_domain,
                                                  "primary", *drbd_primary);
  backup_kernel = std::make_unique<kern::Kernel>(sim, backup_domain,
                                                 "backup", backup_disk);

  state_channel = std::make_unique<StateChannel>(sim, *p2b, backup_domain);
  ack_channel = std::make_unique<AckChannel>(sim, *b2p, primary_domain);
  // Priority lane (802.1p-style class) for the event log: shares the
  // physical 10 GbE but never queues behind page-delta serialization.
  log_priority_link = std::make_unique<net::Link>(
      sim, cfg.replication_link_bps, cfg.replication_link_latency);
  log_channel = std::make_unique<LogChannel>(sim, *log_priority_link,
                                             backup_domain);
  log_ack_channel = std::make_unique<LogAckChannel>(sim, *b2p,
                                                    primary_domain);
  control_link = std::make_unique<net::Link>(sim, cfg.control_link_bps,
                                             cfg.control_link_latency);
  heartbeat_channel = std::make_unique<HeartbeatChannel>(
      sim, *control_link, backup_domain);

  // ---- N-way replication (DESIGN.md §16) ----------------------------------
  // Everything below appends to the two-host member set built above;
  // nothing before this line depends on cfg.replicas, so replicas = 1
  // constructs the exact seed object graph.
  NLC_CHECK_MSG(cfg.replicas >= 1 && cfg.replicas <= 16,
                "replicas out of range");
  config = cfg;
  fault_domains = topo::FaultDomainTree(cfg.sites, cfg.racks_per_site);
  fault_domains.place_host();  // host 0: primary
  fault_domains.place_host();  // host 1: backup replica 0
  const bool chain = cfg.topology == topo::Topology::kChain;
  for (int i = 1; i < cfg.replicas; ++i) {
    auto r = std::make_unique<BackupReplica>();
    const std::string name = "backup" + std::to_string(i);
    fault_domains.place_host();  // host 1 + i: backup replica i
    r->domain = std::make_shared<sim::Domain>(name);
    r->host = network.add_host(name, r->domain);
    network.add_link(client_host, r->host, cfg.client_link_bps,
                     cfg.client_link_latency);
    // The return path for this replica's acks (and, post-failover, a
    // fabric path to the primary). Replication *data* does not ride the
    // forward direction of this pair: star traffic contends on the
    // primary's single replication NIC (p2b above), chain traffic on the
    // per-hop links below — no replica gets a free dedicated feed.
    network.add_link(primary_host, r->host, cfg.replication_link_bps,
                     cfg.replication_link_latency);
    r->tcp = std::make_unique<net::TcpStack>(sim, r->domain, network,
                                             r->host);
    r->tcp->add_address(kBackupHostIp + static_cast<net::IpAddr>(i));
    r->disk = std::make_unique<blk::Disk>();
    net::Link* feed = p2b;
    if (chain) {
      r->hop_link = std::make_unique<net::Link>(
          sim, cfg.replication_link_bps, cfg.replication_link_latency);
      feed = r->hop_link.get();
    }
    r->drbd_channel = std::make_unique<net::Channel<blk::DrbdMessage>>(
        sim, *feed, r->domain);
    r->drbd = std::make_unique<blk::DrbdBackup>(sim, *r->disk,
                                                *r->drbd_channel);
    r->kernel = std::make_unique<kern::Kernel>(sim, r->domain, name,
                                               *r->disk);
    r->state_channel = std::make_unique<StateChannel>(sim, *feed,
                                                      r->domain);
    if (chain) {
      // Per-hop log priority lane, mirroring the primary NIC's lane.
      r->log_link = std::make_unique<net::Link>(
          sim, cfg.replication_link_bps, cfg.replication_link_latency);
      r->log_channel = std::make_unique<LogChannel>(sim, *r->log_link,
                                                    r->domain);
    } else {
      r->log_channel = std::make_unique<LogChannel>(
          sim, *log_priority_link, r->domain);
    }
    net::Link* ret = network.link_between(r->host, primary_host);
    NLC_CHECK(ret != nullptr);
    r->ack_channel = std::make_unique<AckChannel>(sim, *ret,
                                                  primary_domain);
    r->log_ack_channel = std::make_unique<LogAckChannel>(sim, *ret,
                                                         primary_domain);
    // Control plane is star regardless of topology: every replica's
    // failure detector listens on the shared management network.
    r->heartbeat_channel = std::make_unique<HeartbeatChannel>(
        sim, *control_link, r->domain);
    extra_backups.push_back(std::move(r));
  }
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
      opts, *primary_kernel, primary_tcp, cid, *drbd_primary, *state_channel,
      *ack_channel, *heartbeat_channel, *log_channel, *log_ack_channel,
      metrics);
  backup_agent = std::make_unique<BackupAgent>(
      opts, *backup_kernel, backup_tcp, *drbd_backup, *state_channel,
      *ack_channel, *heartbeat_channel, *log_channel, *log_ack_channel,
      metrics);
  // Extra replicas (DESIGN.md §16). Star: every replica is fed directly by
  // the primary (add_channel fans the DRBD stream out too). Chain: the
  // primary feeds replica 0 only; each replica store-and-forwards to the
  // next. Acks always return directly to the primary's quorum gate.
  const bool chain = config.topology == topo::Topology::kChain;
  for (std::size_t x = 0; x < extra_backups.size(); ++x) {
    BackupReplica& r = *extra_backups[x];
    r.agent = std::make_unique<BackupAgent>(
        opts, *r.kernel, *r.tcp, *r.drbd, *r.state_channel, *r.ack_channel,
        *r.heartbeat_channel, *r.log_channel, *r.log_ack_channel, metrics);
    r.agent->set_replica_index(static_cast<int>(x) + 1);
    primary_agent->add_replica(*r.state_channel, *r.ack_channel,
                               *r.heartbeat_channel, *r.log_channel,
                               *r.log_ack_channel, /*direct=*/!chain);
    if (chain) {
      BackupAgent& up = x == 0 ? *backup_agent : *extra_backups[x - 1]->agent;
      up.set_downstream(r.state_channel.get(), r.log_channel.get());
      blk::DrbdBackup& up_drbd =
          x == 0 ? *drbd_backup : *extra_backups[x - 1]->drbd;
      up_drbd.set_forward(r.drbd_channel.get());
    } else {
      drbd_primary->add_channel(*r.drbd_channel);
    }
  }
  if (config.replicas > 1) {
    arbiter = std::make_unique<PromotionArbiter>(sim);
    arbiter->set_resilver_link(config.replication_link_bps,
                               config.replication_link_latency);
    arbiter->register_replica(*backup_agent, backup_domain);
    backup_agent->set_arbiter(arbiter.get());
    for (auto& r : extra_backups) {
      arbiter->register_replica(*r->agent, r->domain);
      r->agent->set_arbiter(arbiter.get());
    }
  }
  // The recorder subscribes first, so an event that trips the auditor is
  // already in the rings when the violation throws.
  if (opts.trace_level != TraceLevel::kOff) {
    if (tracer == nullptr) tracer = std::make_shared<trace::Recorder>();
    stream.subscribe(tracer.get());
  }
  if (on_agents_created) on_agents_created();
  // Components stay detached (one null check per protocol point) unless
  // someone listens. The extra replicas are not recorded; the primary's
  // kReplicaAck instants carry their per-replica ack stream.
  if (!stream.empty()) {
    primary_agent->set_stream(&stream);
    backup_agent->set_stream(&stream);
    drbd_backup->set_stream(&stream);
    primary_tcp.set_stream(&stream, trace::Track::kNetPrimary);
    backup_tcp.set_stream(&stream, trace::Track::kNetBackup);
    if (arbiter != nullptr) arbiter->set_stream(&stream);
    obs_.attach(&stream);
  }
  for (auto& r : extra_backups) {
    if (r->stream.empty()) continue;
    r->agent->set_stream(&r->stream);
    r->drbd->set_stream(&r->stream);
  }
  backup_agent->start();
  for (auto& r : extra_backups) r->agent->start();
  co_await primary_agent->start();
}

BackupAgent& Cluster::backup(int i) {
  if (i == 0) return *backup_agent;
  return *extra_backups[static_cast<std::size_t>(i - 1)]->agent;
}

kern::Kernel& Cluster::backup_kernel_of(int i) {
  if (i == 0) return *backup_kernel;
  return *extra_backups[static_cast<std::size_t>(i - 1)]->kernel;
}

net::TcpStack& Cluster::backup_tcp_of(int i) {
  if (i == 0) return backup_tcp;
  return *extra_backups[static_cast<std::size_t>(i - 1)]->tcp;
}

sim::DomainPtr Cluster::backup_domain_of(int i) {
  if (i == 0) return backup_domain;
  return extra_backups[static_cast<std::size_t>(i - 1)]->domain;
}

void Cluster::fail_backup(int i) {
  obs_.instant(trace::Track::kNetBackup, trace::Stage::kUnplug, sim.now(),
               static_cast<std::uint64_t>(i));
  backup_domain_of(i)->kill();
}

void Cluster::fail_rack(int rack) {
  // Placement order: host 0 = primary, host 1 + i = backup replica i.
  for (int h : fault_domains.hosts_in_rack(rack)) {
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
  for (net::HostId peer : {client_host, backup_host}) {
    if (net::Link* l = network.link_between(primary_host, peer)) {
      l->set_down(true);
    }
    if (net::Link* l = network.link_between(peer, primary_host)) {
      l->set_down(true);
    }
  }
  for (auto& r : extra_backups) {
    if (net::Link* l = network.link_between(primary_host, r->host)) {
      l->set_down(true);
    }
    if (net::Link* l = network.link_between(r->host, primary_host)) {
      l->set_down(true);
    }
  }
  control_link->set_down(true);
}

net::Link& Cluster::replication_link() {
  net::Link* l = network.link_between(primary_host, backup_host);
  NLC_CHECK(l != nullptr);
  return *l;
}

}  // namespace nlc::core
