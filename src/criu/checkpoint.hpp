// Checkpoint (state-harvest) engine: CRIU's dump path over the simulated
// kernel.
//
// harvest() is a pure state collection that must run while the container is
// frozen; it returns both the image and a cost breakdown. The caller (the
// primary agent) charges the cost as simulated stop time — exactly which
// components land in the stop path depends on the agent's optimization
// flags (staging buffer, cached infrequent state, ...), so the engine
// reports components separately instead of sleeping itself.
#pragma once

#include "criu/costs.hpp"
#include "criu/image.hpp"
#include "kernel/kernel.hpp"
#include "net/tcp.hpp"

namespace nlc::criu {

struct HarvestOptions {
  /// Incremental: dirty pages only (soft-dirty). Full: every mapped page.
  bool incremental = true;
  /// §V-D(1): VMA discovery via task-diag netlink instead of /proc/smaps.
  bool vma_via_netlink = true;
  /// §V-D(3): page content leaves the parasite via shared memory, not pipe.
  bool pages_via_shared_memory = true;
  /// §III: harvest the file-system cache via DNC/fgetfc. When false, model
  /// stock CRIU's flush-to-NAS cost instead.
  bool fs_cache_via_dnc = true;
};

struct HarvestBreakdown {
  Time threads = 0;      // per-thread register/sigmask/sched state
  Time processes = 0;    // fd tables, /proc walks, parasite setup
  Time sockets = 0;      // TCP repair dumps
  Time vmas = 0;         // smaps or netlink
  Time pagemap = 0;      // dirty-page discovery
  Time infrequent = 0;   // namespaces/cgroups/mounts/devices/mmap stats
  Time fs_cache = 0;     // fgetfc (or NAS flush in the ablation)
  Time page_copy = 0;    // parasite -> staging copy (+ pipe overhead)
  Time misc = 0;         // parasite injection, image bookkeeping

  Time total() const {
    return threads + processes + sockets + vmas + pagemap + infrequent +
           fs_cache + page_copy + misc;
  }
};

struct HarvestResult {
  CheckpointImage image;
  HarvestBreakdown cost;
  /// Content pages whose payload was handed over as a shared handle (each
  /// one a 4 KiB deep copy avoided versus the copying pipeline).
  std::uint64_t content_pages = 0;
};

class CheckpointEngine {
 public:
  CheckpointEngine(kern::Kernel& k, net::TcpStack& tcp,
                   KernelInterfaceCosts costs = {})
      : kernel_(&k), tcp_(&tcp), costs_(costs) {}

  /// Harvests the container delta for `epoch`. `cached_infrequent`, when
  /// non-null and version-current, is the image's snapshot instead of a
  /// fresh (expensive) harvest — the §V-B optimization. Clears soft-dirty
  /// bits and DNC bits as a side effect (they are "checkpointed" now).
  HarvestResult harvest(kern::ContainerId cid, std::uint64_t epoch,
                        const InfrequentSnapshot& cached_infrequent,
                        const HarvestOptions& opts);

  /// Harvests only the infrequently-modified components into a new
  /// snapshot (used to populate the state cache initially and after an
  /// invalidation).
  InfrequentSnapshot harvest_infrequent(kern::ContainerId cid,
                                        Time* cost_out = nullptr) const;

  const KernelInterfaceCosts& costs() const { return costs_; }

 private:
  kern::Kernel* kernel_;
  net::TcpStack* tcp_;
  KernelInterfaceCosts costs_;
};

}  // namespace nlc::criu
