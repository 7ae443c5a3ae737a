// The per-host simulated kernel: the facade tying together processes,
// containers, the filesystem, the freezer, and ftrace.
//
// Mutation entry points deliberately mirror the Linux code paths NiLiCon
// instruments (do_mount, setns, cgroup_attach, mknod, mmap_region), so the
// state-cache module can attach ftrace hooks by the same names.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "kernel/container.hpp"
#include "kernel/fs.hpp"
#include "kernel/ftrace.hpp"
#include "kernel/ids.hpp"
#include "kernel/process.hpp"
#include "sim/simulation.hpp"

namespace nlc::kern {

class Kernel {
 public:
  Kernel(sim::Simulation& s, sim::DomainPtr domain, std::string hostname,
         BlockStore& store);
  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  sim::Simulation& simulation() { return *sim_; }
  sim::Domain* domain() const { return domain_.get(); }
  const std::string& hostname() const { return hostname_; }

  Filesystem& fs() { return fs_; }
  const Filesystem& fs() const { return fs_; }

  FtraceRegistry& ftrace() { return ftrace_; }

  // --- Containers -------------------------------------------------------

  /// Creates a container with the full default namespace set, a cgroup, and
  /// the standard runC mounts/devices. Fires the corresponding hooks.
  Container& create_container(const std::string& name);

  /// Restore path: installs a container shell with explicit ids.
  Container& install_container(ContainerId id, const std::string& name);

  void destroy_container(ContainerId id);
  Container* container(ContainerId id);
  const Container* container(ContainerId id) const;
  const std::map<ContainerId, std::unique_ptr<Container>>& containers() const {
    return containers_;
  }

  // --- Processes --------------------------------------------------------

  Process& create_process(ContainerId cid, std::string comm);
  /// Restore path: installs a process with an explicit pid.
  Process& install_process(ContainerId cid, Pid pid, std::string comm);
  void destroy_process(Pid pid);
  Process* process(Pid pid);
  const Process* process(Pid pid) const;
  std::vector<Process*> container_processes(ContainerId cid);
  std::vector<const Process*> container_processes(ContainerId cid) const;

  Thread& create_thread(Pid pid);

  // --- Freezer (§II-B) ---------------------------------------------------

  /// Sends virtual signals to every thread of the container. Threads in
  /// user code freeze immediately; the CpuSet suspends all bursts.
  void freeze_container(ContainerId cid);
  void thaw_container(ContainerId cid);

  // --- Instrumented mutation paths (§V-B hook targets) -------------------

  void do_mount(ContainerId cid, Mount m);
  void do_umount(ContainerId cid, const std::string& target);
  void setns_config(ContainerId cid, NamespaceType type,
                    std::uint64_t config_bytes);
  void cgroup_modify(ContainerId cid, std::uint64_t cpu_quota_us,
                     std::uint64_t mem_limit_bytes);
  void mknod(ContainerId cid, DeviceFile dev);
  /// File-backed mmap: the mapped-files list is infrequently-modified
  /// state (§V-B); every mapping change invalidates the cache.
  Vma mmap_file(Pid pid, std::uint64_t npages, std::string file);

  // --- Aggregate counters for the cost model ----------------------------

  std::uint64_t total_threads(ContainerId cid) const;
  std::uint64_t total_fds(ContainerId cid) const;
  std::uint64_t total_sockets(ContainerId cid) const;
  std::uint64_t total_vmas(ContainerId cid) const;
  std::uint64_t total_mapped_pages(ContainerId cid) const;
  std::uint64_t total_file_mappings(ContainerId cid) const;

 private:
  Container& container_ref(ContainerId cid);

  sim::Simulation* sim_;
  sim::DomainPtr domain_;
  std::string hostname_;
  Filesystem fs_;
  FtraceRegistry ftrace_;
  std::map<ContainerId, std::unique_ptr<Container>> containers_;
  std::map<Pid, std::unique_ptr<Process>> processes_;
  ContainerId next_cid_ = 1;
  Pid next_pid_ = 100;
  Tid next_tid_ = 100;
  std::uint64_t next_ns_id_ = 0x4000'0000;
};

}  // namespace nlc::kern
