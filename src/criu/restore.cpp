#include "criu/restore.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace nlc::criu {

sim::task<RestoreTimeline> RestoreEngine::restore(
    const CheckpointImage& img,
    const std::vector<const PageRecord*>& committed_pages,
    const kern::DncHarvest& committed_fs_cache, bool rto_fixed,
    bool ack_runahead) {
  sim::Simulation& sim = kernel_->simulation();
  RestoreTimeline tl;
  tl.started = sim.now();

  // ---- Stage 1: namespaces, cgroups, mounts, devices ----------------------
  // The network namespace comes up first; from namespaces_done onwards an
  // unblocked incoming packet would meet a namespace without sockets (the
  // §III RST hazard).
  const InfrequentState& inf = *img.infrequent;
  Time stage1 = costs_.restore_namespaces + costs_.restore_cgroups +
                costs_.restore_mounts_base;
  stage1 += static_cast<Time>(inf.mounts.size()) * costs_.restore_per_mount;
  stage1 += static_cast<Time>(inf.devices.size()) * costs_.restore_per_device;
  co_await sim.sleep_for(stage1);

  kern::Container& c =
      kernel_->install_container(img.container, img.container_name);
  c.namespaces() = inf.namespaces;
  c.cgroup() = inf.cgroup;
  c.mounts() = inf.mounts;
  c.devices() = inf.devices;
  c.set_net_ns_id(img.net_ns_id);
  c.set_service_ip(img.service_ip);
  tl.namespaces_done = sim.now();

  // ---- Stage 2: processes, threads, address spaces, memory contents -------
  // CRIU writes memory contents while recreating each process, before the
  // sockets come back (the pre-socket pass pinned by Table II's TCP
  // overlap).
  Time stage2 = 0;
  std::uint64_t thread_count = 0, fd_count = 0;
  for (const ProcessRecord& pr : img.processes) {
    stage2 += costs_.restore_per_process;
    thread_count += pr.threads.size();
    fd_count += pr.plain_fds.size();
  }
  stage2 += static_cast<Time>(thread_count) * costs_.restore_per_thread;
  stage2 += static_cast<Time>(fd_count) * costs_.restore_per_fd;
  stage2 += static_cast<Time>(inf.mmap_files.size()) *
            costs_.restore_per_mmap_file;
  stage2 += static_cast<Time>(committed_pages.size()) *
            costs_.restore_page_write;
  co_await sim.sleep_for(stage2);

  for (const ProcessRecord& pr : img.processes) {
    kern::Process& p =
        kernel_->install_process(img.container, pr.pid, pr.comm);
    p.sigmask = pr.sigmask;
    for (const ThreadRecord& tr : pr.threads) {
      kern::Thread& t = p.add_thread(tr.tid);
      t.regs = tr.regs;
      t.sigmask = tr.sigmask;
      t.policy = tr.policy;
      t.priority = tr.priority;
    }
    for (const kern::Vma& v : pr.vmas) p.mm().install_vma(v);
    for (const auto& [fd, entry] : pr.plain_fds) p.install_fd_at(fd, entry);
  }

  // Place committed page contents into the recreated address spaces.
  {
    struct Range {
      kern::PageNum start, end;
      kern::Process* proc;
    };
    std::vector<Range> ranges;
    for (const ProcessRecord& pr : img.processes) {
      kern::Process* p = kernel_->process(pr.pid);
      for (const kern::Vma& v : p->mm().vmas()) {
        ranges.push_back(Range{v.start, v.end(), p});
      }
    }
    std::sort(ranges.begin(), ranges.end(),
              [](const Range& a, const Range& b) {
                return a.start < b.start;
              });
    auto find_proc = [&](kern::PageNum pg) -> kern::Process* {
      auto it = std::upper_bound(
          ranges.begin(), ranges.end(), pg,
          [](kern::PageNum v, const Range& r) { return v < r.start; });
      if (it == ranges.begin()) return nullptr;
      --it;
      return (pg >= it->start && pg < it->end) ? it->proc : nullptr;
    };
    for (const PageRecord* rec : committed_pages) {
      kern::Process* p = find_proc(rec->page);
      if (p == nullptr) continue;  // page of a VMA unmapped before the crash
      if (rec->has_content()) {
        // Zero-copy: the restored address space adopts the committed
        // payload handle; COW protects the store's copy from later writes.
        p->mm().install_content(rec->page, rec->content);
      } else {
        p->mm().touch(rec->page);  // accounting page: versions only
      }
      ++tl.pages_restored;
    }
  }
  tl.processes_done = sim.now();

  // ---- Stage 3: sockets via repair mode ------------------------------------
  Time stage3 =
      static_cast<Time>(img.sockets.size() + img.listeners.size()) *
      costs_.restore_per_socket;
  co_await sim.sleep_for(stage3);

  for (const ListenerRecord& lr : img.listeners) {
    tcp_->listen(lr.local);
  }
  for (const SocketRecord& sr : img.sockets) {
    net::SocketId sid = tcp_->repair_restore(sr.repair, rto_fixed,
                                             ack_runahead);
    kern::Process* p = kernel_->process(sr.pid);
    NLC_CHECK_MSG(p != nullptr, "socket record for unknown process");
    kern::FdEntry e;
    e.kind = kern::FdKind::kSocket;
    e.socket = sid;
    p->install_fd_at(sr.fd, e);
    ++tl.sockets_restored;
  }
  tl.sockets_done = sim.now();

  // ---- Stage 4: finalize (remap pass, cgroup reattach, fs cache, thaw) ----
  Time stage4 = costs_.restore_finalize_base;
  stage4 += static_cast<Time>(committed_pages.size()) *
            costs_.restore_page_finalize;
  stage4 += static_cast<Time>(committed_fs_cache.pages.size()) *
            costs_.restore_fs_cache_per_page;
  co_await sim.sleep_for(stage4);

  kernel_->fs().apply_dnc(committed_fs_cache,
                          static_cast<std::uint64_t>(sim.now()));
  tl.fs_cache_pages_restored = committed_fs_cache.pages.size();
  tl.memory_done = sim.now();
  tl.finished = sim.now();
  co_return tl;
}

}  // namespace nlc::criu
