// Checkpoint image format.
//
// CRIU on disk uses one protobuf image file per state type; here an image
// is a typed in-memory record set with explicit wire sizes, which is what
// the replication path needs (the backup buffers images, it never parses
// files). The split into `InfrequentState` and the per-epoch delta mirrors
// NiLiCon's state cache (§V-B): the infrequent part is either freshly
// harvested or replayed from the cache, as one immutable snapshot that the
// cache and every image replaying it share.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "kernel/address_space.hpp"
#include "kernel/container.hpp"
#include "kernel/fs.hpp"
#include "kernel/ids.hpp"
#include "kernel/process.hpp"
#include "net/tcp.hpp"
#include "util/bytes.hpp"

namespace nlc::criu {

struct PageRecord {
  kern::PageNum page = 0;
  std::uint64_t version = 0;
  /// Shared immutable payload for content pages; null for accounting pages
  /// (which ship size without bytes). Copying a PageRecord bumps a refcount
  /// instead of duplicating 4 KiB — copy-on-write in the address space
  /// keeps the bytes frozen while any pipeline stage holds the handle.
  kern::PagePayload content;
  /// Modeled bytes this page occupies on the replication wire. kPageSize
  /// unless the delta-compression stage (criu/delta.hpp) shrank it.
  std::uint32_t wire_size = static_cast<std::uint32_t>(nlc::kPageSize);

  bool has_content() const { return content != nullptr; }
};

struct ThreadRecord {
  kern::Tid tid = 0;
  kern::Registers regs;
  std::uint64_t sigmask = 0;
  kern::SchedPolicy policy = kern::SchedPolicy::kOther;
  int priority = 0;
};

struct SocketRecord {
  kern::Pid pid = 0;     // owning process
  kern::Fd fd = 0;       // fd slot to rewire on restore
  net::TcpRepairState repair;
};

struct ListenerRecord {
  kern::Pid pid = 0;
  kern::Fd fd = 0;
  net::Endpoint local;
};

struct ProcessRecord {
  kern::Pid pid = 0;
  std::string comm;
  std::uint64_t sigmask = 0;
  std::vector<ThreadRecord> threads;
  std::vector<kern::Vma> vmas;
  /// Non-socket fds (files, pipes, devices). Sockets ship separately.
  std::map<kern::Fd, kern::FdEntry> plain_fds;
};

/// The infrequently-modified in-kernel state (§V-B): control groups,
/// namespaces, mount points, device files, memory-mapped files.
struct InfrequentState {
  std::vector<kern::Namespace> namespaces;
  kern::CgroupConfig cgroup;
  std::vector<kern::Mount> mounts;
  std::vector<kern::DeviceFile> devices;
  std::vector<std::string> mmap_files;
  /// Version stamp at harvest time; the cache compares this.
  std::uint64_t version = 0;

  std::uint64_t byte_size() const {
    std::uint64_t n = 256;  // cgroup + header
    n += namespaces.size() * 64;
    for (const auto& ns : namespaces) n += ns.config_bytes;
    n += mounts.size() * 96;
    n += devices.size() * 48;
    n += mmap_files.size() * 72;
    return n;
  }
};

/// An immutable infrequent-state snapshot. Replaying the cache into an
/// image, updating the cache from it and copying the image to each
/// replica all copy this pointer, never the state.
using InfrequentSnapshot = std::shared_ptr<const InfrequentState>;

/// The empty snapshot every default-constructed image shares, so an
/// image's snapshot is never null.
inline const InfrequentSnapshot& empty_infrequent_state() {
  static const InfrequentSnapshot empty =
      std::make_shared<const InfrequentState>();
  return empty;
}

/// One epoch's checkpoint: the full container delta NiLiCon ships.
struct CheckpointImage {
  std::uint64_t epoch = 0;
  kern::ContainerId container = kern::kNoContainer;
  std::string container_name;
  std::uint64_t service_ip = 0;
  std::uint64_t net_ns_id = 0;
  /// True when `pages` holds every mapped page (epoch 0), not a delta.
  bool full = false;

  InfrequentSnapshot infrequent = empty_infrequent_state();
  std::vector<ProcessRecord> processes;
  std::vector<SocketRecord> sockets;
  std::vector<ListenerRecord> listeners;
  kern::DncHarvest fs_cache;
  std::vector<PageRecord> pages;

  std::uint64_t dirty_page_count() const { return pages.size(); }

  /// Modeled wire bytes of the page section (sum of per-record wire sizes;
  /// pages.size() * kPageSize when delta compression is off).
  std::uint64_t page_wire_bytes() const {
    std::uint64_t n = 0;
    for (const PageRecord& p : pages) n += p.wire_size;
    return n;
  }

  std::uint64_t socket_bytes() const {
    std::uint64_t n = 0;
    for (const auto& s : sockets) n += s.repair.byte_size();
    n += listeners.size() * 32;
    return n;
  }

  std::uint64_t process_bytes() const {
    std::uint64_t n = 0;
    for (const auto& p : processes) {
      n += 160 + p.threads.size() * 224 + p.vmas.size() * 64 +
           p.plain_fds.size() * 40;
    }
    return n;
  }

  /// Bytes on the replication wire.
  std::uint64_t byte_size() const {
    return 128 + infrequent->byte_size() + process_bytes() + socket_bytes() +
           fs_cache.byte_size() + page_wire_bytes();
  }
};

}  // namespace nlc::criu
