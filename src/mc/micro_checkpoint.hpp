// MC: QEMU/KVM Micro-Checkpointing — the Remus-on-KVM baseline the paper
// compares against (§VI, Figure 3, Table III).
//
// MC protects a whole VM: the hypervisor write-protects guest memory each
// epoch and tracks dirty pages through EPT faults, so there is no in-kernel
// container state to harvest — the stop time is small (vcpu/device state +
// dirty-page copy) but the runtime overhead is large (a VM exit per first
// touch of every page, plus exits for I/O). The workload's `dilation_mc`
// calibrates the latter; the guest OS additionally dirties its own pages
// (`mc_guest_noise_pages` per epoch), which is why MC ships more pages than
// NiLiCon for most benchmarks.
//
// Per the paper's setup, MC runs without disk-state replication (it only
// supports NFS-backed disks, which would be unfairly slow), so no DRBD.
#pragma once

#include <map>
#include <memory>

#include "core/commit_gate.hpp"
#include "core/metrics.hpp"
#include "core/protocol.hpp"
#include "kernel/kernel.hpp"
#include "net/tcp.hpp"
#include "sim/sync.hpp"
#include "util/rng.hpp"

namespace nlc::mc {

struct McCosts {
  /// Pause + vcpu/device state capture (calibrated from Table III's MC
  /// stop times: 2.4 ms at 212 pages ... 9.4 ms at 6.4K pages).
  Time stop_base = nlc::microseconds(2160);
  Time copy_per_page = nlc::microseconds_f(1.15);
  /// Backup-side receive-and-buffer cost.
  Time backup_base = nlc::microseconds(500);
  Time backup_per_page = nlc::microseconds_f(0.3);
  std::uint64_t device_state_bytes = 64 * 1024;
};

/// MC always runs this execute-phase length (the paper's 30 ms); no
/// controller retunes it.
inline constexpr Time kMcEpochLength = nlc::milliseconds(30);

struct McOptions {
  std::uint64_t guest_noise_pages = 0;  // from AppSpec::mc_guest_noise_pages
  std::uint64_t seed = 1;
};

class McDriver {
 public:
  McDriver(McOptions opts, kern::Kernel& kernel, net::TcpStack& tcp,
           kern::ContainerId cid, core::StateChannel& state_out,
           core::AckChannel& ack_in, core::ReplicationMetrics& metrics);

  /// Performs the initial full synchronization and starts the epoch loop.
  sim::task<> start();
  void stop() { running_ = false; }

  /// Backup-side responder: buffers arriving state and acknowledges. Spawn
  /// under the backup host's domain.
  sim::task<> backup_responder();

 private:
  sim::task<> epoch_loop();
  sim::task<> ack_loop();
  sim::task<> checkpoint_once(bool initial);
  sim::task<> wait_acked(std::uint64_t epoch);
  net::IpAddr service_ip() const;

  McOptions opts_;
  McCosts costs_;
  kern::Kernel* kernel_;
  net::TcpStack* tcp_;
  kern::ContainerId cid_;
  core::StateChannel* state_out_;
  core::AckChannel* ack_in_;
  core::ReplicationMetrics* metrics_;
  Rng rng_;

  bool running_ = true;
  std::uint64_t epoch_ = 0;
  /// Output commit over the one backup's acks: epoch k's marker releases
  /// at the ack of k, and "epoch 0 acked" stays distinct from "no ack yet".
  core::CommitGate gate_{1, 1};
  std::unique_ptr<sim::Event> ack_event_;
  std::map<std::uint64_t, std::pair<std::uint64_t, Time>> pending_markers_;
  kern::Pid guest_kernel_pid_ = 0;
  kern::PageNum guest_noise_start_ = 0;
  std::uint64_t guest_noise_pages_mapped_ = 0;
};

}  // namespace nlc::mc
