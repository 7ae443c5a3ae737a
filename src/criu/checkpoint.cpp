#include "criu/checkpoint.hpp"

#include <utility>

#include "util/assert.hpp"
#include "util/simd.hpp"

namespace nlc::criu {

namespace {

/// Distance (in entries) the harvest fill prefetches ahead of itself: far
/// enough to cover a memory round trip at ~8 entries of fill work, near
/// enough that the line is still resident when reached.
constexpr std::size_t kFillPrefetch = 8;

}  // namespace

InfrequentSnapshot CheckpointEngine::harvest_infrequent(
    kern::ContainerId cid, Time* cost_out) const {
  const kern::Container* c = kernel_->container(cid);
  NLC_CHECK_MSG(c != nullptr, "harvest of unknown container");

  InfrequentState st;
  st.namespaces = c->namespaces();
  st.cgroup = c->cgroup();
  st.mounts = c->mounts();
  st.devices = c->devices();
  for (const kern::Process* p : kernel_->container_processes(cid)) {
    for (const kern::Vma& v : p->mm().vmas()) {
      if (v.kind == kern::VmaKind::kFileMap) {
        st.mmap_files.push_back(v.backing_file);
      }
    }
  }
  st.version = c->infrequent_state_version();

  if (cost_out != nullptr) {
    Time t = costs_.namespaces_collect + costs_.cgroups_collect +
             costs_.devices_collect + costs_.mounts_collect_base;
    t += static_cast<Time>(st.mounts.size()) * costs_.mounts_per_entry;
    t += static_cast<Time>(st.mmap_files.size()) * costs_.stat_per_mmap_file;
    *cost_out = t;
  }
  return std::make_shared<const InfrequentState>(std::move(st));
}

HarvestResult CheckpointEngine::harvest(kern::ContainerId cid,
                                        std::uint64_t epoch,
                                        const InfrequentSnapshot& cached,
                                        const HarvestOptions& opts) {
  kern::Container* c = kernel_->container(cid);
  NLC_CHECK_MSG(c != nullptr, "harvest of unknown container");
  NLC_CHECK_MSG(c->frozen(), "harvest requires a frozen container");

  HarvestResult r;
  CheckpointImage& img = r.image;
  HarvestBreakdown& cost = r.cost;
  img.epoch = epoch;
  img.container = cid;
  img.container_name = c->name();
  img.service_ip = c->service_ip();
  img.net_ns_id = c->net_ns_id();
  img.full = !opts.incremental;

  // ---- Infrequently-modified state (§V-B) --------------------------------
  if (cached != nullptr && cached->version == c->infrequent_state_version()) {
    img.infrequent = cached;
    cost.infrequent = costs_.infrequent_cache_check;
  } else {
    Time t = 0;
    img.infrequent = harvest_infrequent(cid, &t);
    cost.infrequent = t;
  }

  // ---- Processes, threads, VMAs, fds, sockets ----------------------------
  auto procs = kernel_->container_processes(cid);
  cost.processes = costs_.process_state_base +
                   static_cast<Time>(procs.size()) *
                       costs_.process_state_per_proc;
  std::uint64_t thread_count = 0;
  std::uint64_t fd_count = 0;
  std::uint64_t vma_count = 0;

  for (kern::Process* p : procs) {
    ProcessRecord pr;
    pr.pid = p->pid();
    pr.comm = p->comm;
    pr.sigmask = p->sigmask;
    for (const kern::Thread& t : p->threads()) {
      pr.threads.push_back(ThreadRecord{t.tid, t.regs, t.sigmask, t.policy,
                                        t.priority});
      ++thread_count;
    }
    pr.vmas = p->mm().vmas();
    vma_count += pr.vmas.size();

    for (const auto& [fd, entry] : p->fds()) {
      ++fd_count;
      if (entry.kind == kern::FdKind::kSocket && entry.socket != 0) {
        if (!tcp_->valid(entry.socket)) continue;  // stale entry
        if (tcp_->state(entry.socket) == net::TcpState::kEstablished) {
          SocketRecord sr;
          sr.pid = p->pid();
          sr.fd = fd;
          sr.repair = tcp_->repair_dump(entry.socket);
          img.sockets.push_back(std::move(sr));
        }
        continue;
      }
      pr.plain_fds[fd] = entry;
    }
    img.processes.push_back(std::move(pr));
  }

  // Listening sockets (bound to the container's service address).
  if (c->service_ip() != 0) {
    for (const net::Endpoint& ep : tcp_->listeners_on_ip(
             static_cast<net::IpAddr>(c->service_ip()))) {
      img.listeners.push_back(ListenerRecord{0, 0, ep});
    }
  }

  cost.threads = costs_.thread_state_base +
                 static_cast<Time>(thread_count) *
                     costs_.thread_state_per_thread;
  std::uint64_t socket_queue_bytes = 0;
  for (const SocketRecord& sr : img.sockets) {
    socket_queue_bytes += sr.repair.queue_bytes();
  }
  cost.sockets =
      img.sockets.empty()
          ? 0
          : costs_.socket_repair_base +
                static_cast<Time>(img.sockets.size()) *
                    costs_.socket_repair_per_socket +
                static_cast<Time>(
                    static_cast<double>(socket_queue_bytes) / 1024.0 *
                    static_cast<double>(costs_.socket_repair_per_kb));
  cost.misc = costs_.dump_misc;
  cost.processes += static_cast<Time>(fd_count) * costs_.per_fd;
  cost.vmas = static_cast<Time>(vma_count) *
              (opts.vma_via_netlink ? costs_.netlink_per_vma
                                    : costs_.smaps_per_vma);

  // ---- Memory pages -------------------------------------------------------
  // Payloads are handed over as shared immutable handles (one refcount bump
  // per content page); copy-on-write in the address space keeps the image
  // stable once the container thaws. Both walks yield ascending page
  // order (DESIGN.md §12), so the image needs no sort: the incremental one
  // visits the set bits of each leaf's soft-dirty bitmap, the full dump
  // every resident page — anon pages never written have no physical frame
  // and CRIU does not dump holes (restored holes read as zeros either way).
  std::uint64_t scanned_pages = 0;
  std::vector<std::pair<kern::PageNum, const kern::AddressSpace::PageState*>>
      states;
  for (kern::Process* p : procs) {
    kern::AddressSpace& mm = p->mm();
    scanned_pages += mm.mapped_pages();
    states.clear();
    auto collect = [&](kern::PageNum pg,
                       const kern::AddressSpace::PageState& st) {
      states.emplace_back(pg, &st);
    };
    if (opts.incremental) {
      states.reserve(mm.dirty_count());
      mm.for_each_dirty(collect);
      NLC_CHECK_MSG(states.size() == mm.dirty_count(),
                    "soft-dirty walk missed a dirty page");
    } else {
      mm.for_each_resident(collect);
    }
    const std::size_t base = img.pages.size();
    img.pages.resize(base + states.size());
    for (std::size_t i = 0; i < states.size(); ++i) {
      // Pull the page state a few entries ahead; the shared-handle copy
      // below is the first (otherwise cold) touch.
      if (i + kFillPrefetch < states.size()) {
        util::prefetch_read(states[i + kFillPrefetch].second);
      }
      PageRecord& rec = img.pages[base + i];
      rec.page = states[i].first;
      rec.version = states[i].second->version;
      rec.content = states[i].second->payload;
      if (rec.has_content()) ++r.content_pages;
    }
    // This checkpoint captured everything dirty: re-arm tracking.
    mm.clear_soft_dirty();
  }

  cost.pagemap = costs_.pagemap_scan_base +
                 static_cast<Time>(scanned_pages) *
                     costs_.pagemap_scan_per_page;
  Time per_page = costs_.page_copy_per_page;
  if (!opts.pages_via_shared_memory) per_page += costs_.pipe_transfer_per_page;
  cost.page_copy = static_cast<Time>(img.pages.size()) * per_page;

  // ---- File-system cache (§III) -------------------------------------------
  std::uint64_t dnc_pages = kernel_->fs().dnc_page_count();
  img.fs_cache = kernel_->fs().harvest_dnc();
  if (opts.fs_cache_via_dnc) {
    cost.fs_cache = costs_.fgetfc_base +
                    static_cast<Time>(dnc_pages) * costs_.fgetfc_per_page;
  } else {
    // Stock CRIU: flush the file-system cache to shared storage instead.
    cost.fs_cache = costs_.nas_flush_base +
                    static_cast<Time>(dnc_pages) * costs_.nas_flush_per_page;
  }

  return r;
}

}  // namespace nlc::criu
