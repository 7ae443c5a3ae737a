// Cluster: the paper's testbed in one object (§VI).
//
// Three hosts — client, primary, backup — with 1 GbE links from the client
// to each server host and a dedicated 10 GbE replication link between the
// servers. Owns the kernels, disks, DRBD pair, TCP stacks and the
// replication channels; protect() instantiates the NiLiCon agent pair for a
// container.
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
#include "topo/fault_domains.hpp"
#include "topo/topology.hpp"
#include "trace/recorder.hpp"
#include "trace/stream.hpp"

namespace nlc::core {

/// Default addresses of the testbed.
inline constexpr net::IpAddr kClientIp = 0x0A00'0001;
inline constexpr net::IpAddr kPrimaryHostIp = 0x0A00'0002;
inline constexpr net::IpAddr kBackupHostIp = 0x0A00'0003;
inline constexpr net::IpAddr kServiceIp = 0x0A00'00FE;

struct ClusterConfig {
  double client_link_bps = 1e9;        // 1 GbE to the client host
  Time client_link_latency = nlc::microseconds(100);
  double replication_link_bps = 10e9;  // dedicated 10 GbE
  Time replication_link_latency = nlc::microseconds(20);
  /// Management network (the hosts' 1 GbE NICs) used for the failure
  /// detector's heartbeats, so bulk state transfers cannot starve them —
  /// on real hardware TCP fair-sharing provides the same isolation, which
  /// a FIFO link model does not.
  double control_link_bps = 1e9;
  Time control_link_latency = nlc::microseconds(100);

  // ---- N-way replication (DESIGN.md §16) ----------------------------------
  /// Backup replica count. 1 reproduces the paper's two-host testbed
  /// exactly; extras are appended as additional backup hosts placed across
  /// the fault-domain tree. Must match Options::replicas at protect().
  int replicas = 1;
  /// How replicated state flows: star (primary fans out over its shared
  /// replication NIC) or chain (per-hop links, store-and-forward).
  topo::Topology topology = topo::Topology::kStar;
  /// Fault-domain tree shape the hosts are spread across (primary first,
  /// then backups, with rack anti-affinity).
  int sites = 1;
  int racks_per_site = 2;
};

class Cluster {
 public:
  explicit Cluster(ClusterConfig cfg = {});
  ~Cluster();
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // Simulation must outlive (and be torn down before) everything below.
  sim::Simulation sim;

  sim::DomainPtr client_domain;
  sim::DomainPtr primary_domain;
  sim::DomainPtr backup_domain;

  net::Network network;
  net::HostId client_host;
  net::HostId primary_host;
  net::HostId backup_host;

  net::TcpStack client_tcp;
  net::TcpStack primary_tcp;
  net::TcpStack backup_tcp;

  blk::Disk primary_disk;
  blk::Disk backup_disk;
  std::unique_ptr<net::Channel<blk::DrbdMessage>> drbd_channel;
  std::unique_ptr<blk::DrbdPrimary> drbd_primary;
  std::unique_ptr<blk::DrbdBackup> drbd_backup;

  std::unique_ptr<kern::Kernel> primary_kernel;
  std::unique_ptr<kern::Kernel> backup_kernel;

  std::unique_ptr<net::Link> control_link;
  std::unique_ptr<StateChannel> state_channel;
  std::unique_ptr<AckChannel> ack_channel;
  std::unique_ptr<HeartbeatChannel> heartbeat_channel;
  /// Event-log side channel (commit_mode = kReplay, DESIGN.md §14): a
  /// strict-priority traffic class on the replication NIC, modeled as its
  /// own lane so the tiny log segments never serialize behind a multi-MB
  /// page delta — otherwise log-ack latency (and hence client-visible
  /// p99) would grow with the epoch length, defeating the commit mode.
  std::unique_ptr<net::Link> log_priority_link;
  std::unique_ptr<LogChannel> log_channel;
  std::unique_ptr<LogAckChannel> log_ack_channel;

  ReplicationMetrics metrics;
  std::unique_ptr<PrimaryAgent> primary_agent;
  std::unique_ptr<BackupAgent> backup_agent;

  // ---- N-way replication (DESIGN.md §16) ----------------------------------
  /// The construction-time config (replicas, topology, tree shape).
  ClusterConfig config;
  /// Placement bookkeeping: host 0 = primary, host 1 + i = backup replica
  /// i. The client sits outside the replicated fault hierarchy.
  topo::FaultDomainTree fault_domains;
  /// Everything one extra backup replica owns (replica i lives at index
  /// i - 1; replica 0 is the flat two-host member set above, untouched so
  /// replicas = 1 stays byte-identical to the seed engine).
  struct BackupReplica {
    sim::DomainPtr domain;
    net::HostId host = -1;
    std::unique_ptr<net::TcpStack> tcp;
    std::unique_ptr<blk::Disk> disk;
    std::unique_ptr<net::Channel<blk::DrbdMessage>> drbd_channel;
    std::unique_ptr<blk::DrbdBackup> drbd;
    std::unique_ptr<kern::Kernel> kernel;
    /// Chain only: the hop link feeding this replica (state + DRBD);
    /// star replicas ride the primary's shared replication NIC instead.
    std::unique_ptr<net::Link> hop_link;
    /// Chain only: the hop's event-log priority lane; star replicas share
    /// the primary NIC's log lane.
    std::unique_ptr<net::Link> log_link;
    std::unique_ptr<StateChannel> state_channel;
    std::unique_ptr<AckChannel> ack_channel;
    std::unique_ptr<HeartbeatChannel> heartbeat_channel;
    std::unique_ptr<LogChannel> log_channel;
    std::unique_ptr<LogAckChannel> log_ack_channel;
    std::unique_ptr<BackupAgent> agent;
    /// This replica's protocol event stream (agent + DRBD). Its only
    /// subscriber is the replica's check::ReplicaAudit: the recorder keeps
    /// to replica 0, whose spans would otherwise interleave with these on
    /// the shared backup track.
    trace::Stream stream;
  };
  std::vector<std::unique_ptr<BackupReplica>> extra_backups;
  /// Election + re-silvering coordinator; created by protect() iff
  /// replicas > 1.
  std::unique_ptr<PromotionArbiter> arbiter;

  /// The protocol event stream (DESIGN.md §11) of the primary agent and
  /// its egress plug, backup replica 0 (agent, DRBD), both server TCP
  /// stacks and the arbiter. protect() subscribes the recorder when
  /// tracing; the invariant auditor subscribes from on_agents_created.
  trace::Stream stream;

  /// Flight recorder (src/trace), created by protect() when
  /// Options::trace_level != kOff and subscribed to `stream`. Shared so the
  /// harness can hand the trace to exporters after the Cluster is gone.
  std::shared_ptr<trace::Recorder> tracer;

  /// Invoked by protect() right after the agent pair is constructed and
  /// before either agent runs: the harness uses this to subscribe the
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

  /// Builds the agent pair for `cid` and runs the initial synchronization.
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
  BackupAgent& backup(int i);
  kern::Kernel& backup_kernel_of(int i);
  net::TcpStack& backup_tcp_of(int i);
  sim::DomainPtr backup_domain_of(int i);
  /// Fail-stop crash of backup replica `i`.
  void fail_backup(int i);
  /// Correlated failure: fail-stop every replicated host placed in `rack`
  /// (possibly the primary and backups together — the scenario the
  /// anti-affinity placement exists to survive).
  void fail_rack(int rack);

  /// The paper's manual test: unplug every network cable of the primary
  /// (§VII-A). The primary stays alive but can neither replicate nor talk
  /// to clients; output commit guarantees its unreleased responses never
  /// escaped, so the backup's takeover is still consistent.
  void unplug_primary();

  net::Link& replication_link();

 private:
  /// The cluster's own emissions (fault injection) on `stream`.
  trace::Observer obs_;
};

}  // namespace nlc::core
