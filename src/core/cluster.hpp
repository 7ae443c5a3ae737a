// Cluster: the paper's testbed in one object (§VI).
//
// A client host, the primary and N backup replicas (N = 1 is the paper's
// testbed: client, primary, backup). 1 GbE links run from the client to
// each server host, and the primary feeds the backups over a dedicated
// 10 GbE replication NIC. The Cluster owns the kernels, disks, DRBD ends,
// TCP stacks and replication channels, each backup's in one BackupReplica
// record; protect() instantiates the NiLiCon agents for a container.
//
// This is the main entry point of the library: build a Cluster, create a
// container + workload on the primary kernel, call protect(), run the
// simulation.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "blockdev/disk.hpp"
#include "blockdev/drbd.hpp"
#include "core/backup_agent.hpp"
#include "core/options.hpp"
#include "core/primary_agent.hpp"
#include "core/promotion.hpp"
#include "kernel/kernel.hpp"
#include "net/network.hpp"
#include "net/tcp.hpp"
#include "sim/simulation.hpp"
#include "topo/topology.hpp"
#include "trace/recorder.hpp"
#include "trace/stream.hpp"

namespace nlc::core {

/// Default addresses of the testbed.
inline constexpr net::IpAddr kClientIp = 0x0A00'0001;
inline constexpr net::IpAddr kPrimaryHostIp = 0x0A00'0002;
inline constexpr net::IpAddr kBackupHostIp = 0x0A00'0003;
inline constexpr net::IpAddr kServiceIp = 0x0A00'00FE;

/// 1 GbE from the client host to each server host.
inline constexpr double kClientLinkBps = 1e9;
inline constexpr Time kClientLinkLatency = nlc::microseconds(100);
/// Management network (the hosts' 1 GbE NICs) used for the failure
/// detector's heartbeats, so bulk state transfers cannot starve them —
/// on real hardware TCP fair-sharing provides the same isolation, which
/// a FIFO link model does not.
inline constexpr double kControlLinkBps = 1e9;
inline constexpr Time kControlLinkLatency = nlc::microseconds(100);

/// Racks the replicated hosts are spread across (DESIGN.md §16).
inline constexpr int kRacks = 2;

struct ClusterConfig {
  // ---- N-way replication (DESIGN.md §16) ----------------------------------
  /// Backup replica count. 1 reproduces the paper's two-host testbed
  /// exactly; extras are appended as additional backup hosts, alternating
  /// between the racks. Must match Options::replicas at protect().
  int replicas = 1;
  /// How replicated state flows: star (primary fans out over its shared
  /// replication NIC) or chain (per-hop links, store-and-forward).
  topo::Topology topology = topo::Topology::kStar;
};

class Cluster {
 public:
  explicit Cluster(ClusterConfig cfg = {});
  ~Cluster();
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // Simulation must outlive (and be torn down before) everything below:
  // it borrows the domains and the channels' and network's deliveries,
  // and its coroutines reference the rest.
  sim::Simulation sim;

  sim::DomainPtr client_domain;
  sim::DomainPtr primary_domain;

  net::Network network;
  net::HostId client_host;
  net::HostId primary_host;

  net::TcpStack client_tcp;
  net::TcpStack primary_tcp;

  blk::Disk primary_disk;
  /// Writes through to primary_disk and ships each write to every
  /// directly fed replica's DRBD channel.
  std::unique_ptr<blk::DrbdPrimary> drbd_primary;
  std::unique_ptr<kern::Kernel> primary_kernel;

  /// Management network: every replica's heartbeat channel rides it.
  std::unique_ptr<net::Link> control_link;
  /// Event-log side channel (commit_mode = kReplay, DESIGN.md §14): a
  /// strict-priority traffic class on the replication NIC, modeled as its
  /// own lane so the tiny log segments never serialize behind a multi-MB
  /// page delta — otherwise log-ack latency (and hence client-visible
  /// p99) would grow with the epoch length, defeating the commit mode.
  std::unique_ptr<net::Link> log_priority_link;

  ReplicationMetrics metrics;
  std::unique_ptr<PrimaryAgent> primary_agent;

  // ---- Backup replicas (DESIGN.md §16) ------------------------------------
  /// The construction-time config (replicas, topology).
  ClusterConfig config;
  /// Everything one backup replica owns. The constructor builds every
  /// replica the same way; replica 0 is the paper's single backup.
  struct BackupReplica {
    sim::DomainPtr domain;
    net::HostId host = -1;
    /// The replica that store-and-forwards state and DRBD writes to this
    /// one (chain), or -1 when the primary feeds it directly (every star
    /// replica and a chain's head).
    int upstream = -1;
    std::unique_ptr<net::TcpStack> tcp;
    std::unique_ptr<blk::Disk> disk;
    std::unique_ptr<net::Channel<blk::DrbdMessage>> drbd_channel;
    std::unique_ptr<blk::DrbdBackup> drbd;
    std::unique_ptr<kern::Kernel> kernel;
    /// Forwarded replicas only: the hop link from the upstream replica
    /// (state + DRBD) and the hop's event-log priority lane. A directly
    /// fed replica rides the primary's replication NIC and log lane.
    std::unique_ptr<net::Link> hop_link;
    std::unique_ptr<net::Link> log_link;
    std::unique_ptr<StateChannel> state_channel;
    std::unique_ptr<AckChannel> ack_channel;
    std::unique_ptr<HeartbeatChannel> heartbeat_channel;
    std::unique_ptr<LogChannel> log_channel;
    std::unique_ptr<LogAckChannel> log_ack_channel;
    /// Created by protect().
    std::unique_ptr<BackupAgent> agent;
    /// The protocol event stream this replica's agent, DRBD and TCP stack
    /// emit on: the cluster's main `stream` for replica 0, whose spans the
    /// recorder keeps on the backup track, and `own_stream` for every
    /// other replica, whose only subscriber is its check::ReplicaAudit.
    trace::Stream* stream = nullptr;
    trace::Stream own_stream;
  };
  /// Indexed by replica.
  std::vector<std::unique_ptr<BackupReplica>> backups;
  /// Election + re-silvering coordinator; created by protect() iff
  /// replicas > 1.
  std::unique_ptr<PromotionArbiter> arbiter;

  /// The protocol event stream (DESIGN.md §11) of the primary agent, its
  /// TCP stack and egress plug, the arbiter and backup replica 0 (agent,
  /// DRBD, TCP stack). protect() subscribes the recorder when
  /// tracing; the invariant auditor subscribes from on_agents_created.
  trace::Stream stream;

  /// Flight recorder (src/trace), created by protect() when
  /// Options::trace_level != kOff and subscribed to `stream`. Shared so the
  /// harness can hand the trace to exporters after the Cluster is gone.
  std::shared_ptr<trace::Recorder> tracer;

  /// Invoked by protect() right after the agents are constructed and
  /// before any of them runs: the harness uses this to subscribe the
  /// invariant auditor (src/check) while every observed component exists
  /// but no epoch has started, so the audit mirrors see the protocol from
  /// its very first event. protect() then attaches each stream that has a
  /// subscriber to its components.
  std::function<void()> on_agents_created;

  /// Creates a container on the primary with the service address bound and
  /// its egress/ingress plumbing in place.
  kern::Container& create_service_container(const std::string& name,
                                            net::IpAddr service_ip
                                            = kServiceIp);

  /// Builds the agents for `cid` and runs the initial synchronization.
  /// Awaitable; afterwards the container is protected.
  sim::task<> protect(kern::ContainerId cid, const Options& opts);

  /// Fail-stop crash of the primary host (§VII-A fault injection).
  void fail_primary() {
    obs_.instant(trace::Track::kNetPrimary, trace::Stage::kUnplug, sim.now());
    primary_domain->kill();
  }

  // ---- N-way replication (DESIGN.md §16) ----------------------------------
  int replica_count() const { return config.replicas; }
  /// Backup replica `i`'s agent / kernel / TCP stack / failure domain.
  BackupAgent& backup(int i) { return *replica(i).agent; }
  kern::Kernel& backup_kernel_of(int i) { return *replica(i).kernel; }
  net::TcpStack& backup_tcp_of(int i) { return *replica(i).tcp; }
  sim::DomainPtr backup_domain_of(int i) { return replica(i).domain; }
  /// Fail-stop crash of backup replica `i`.
  void fail_backup(int i);
  /// Rack of replicated host `host` (0 = the primary, 1 + i = backup
  /// replica i; the client sits outside the racks). Hosts alternate
  /// between the racks, so one rack holds at most ⌈(N+1)/2⌉ of them.
  static int rack_of(int host) { return host % kRacks; }
  /// Correlated failure: fail-stop every replicated host in `rack`
  /// (possibly the primary and backups together — the scenario the
  /// alternating placement exists to survive).
  void fail_rack(int rack);

  /// The paper's manual test: unplug every network cable of the primary
  /// (§VII-A). The primary stays alive but can neither replicate nor talk
  /// to clients; output commit guarantees its unreleased responses never
  /// escaped, so the backup's takeover is still consistent.
  void unplug_primary();

  /// The primary's replication NIC: its link to replica 0, which every
  /// directly fed replica's state and DRBD channels share.
  net::Link& replication_link();

 private:
  BackupReplica& replica(int i) {
    return *backups.at(static_cast<std::size_t>(i));
  }

  /// The cluster's own emissions (fault injection) on `stream`.
  trace::Observer obs_;
};

}  // namespace nlc::core
