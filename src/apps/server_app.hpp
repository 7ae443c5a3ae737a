// Generic server application model running on the simulated kernel.
//
// One accept loop feeds per-connection handler coroutines. A handler
// peeks the next request (leaving it in the checkpointed read queue),
// performs the request's CPU work in quanta while dirtying working-set
// pages, applies KV operations to real content pages, issues filesystem
// writes, and only then consumes the request and sends the response — so
// an epoch boundary anywhere inside a request leaves a committed state
// from which a restored backup reprocesses it (DESIGN.md §5.5).
//
// attach_restored() rebuilds the app object around the restored kernel
// objects on the backup after a failover, re-spawning handlers for every
// repaired connection.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "apps/kv.hpp"
#include "apps/spec.hpp"
#include "core/backup_agent.hpp"
#include "kernel/kernel.hpp"
#include "net/tcp.hpp"
#include "sim/simulation.hpp"
#include "util/rng.hpp"

namespace nlc::apps {

struct AppEnv {
  sim::Simulation* sim;
  kern::Kernel* kernel;
  net::TcpStack* tcp;
  net::IpAddr service_ip;
  std::uint64_t seed = 1;
};

/// Pseudo-names of the app's anonymous VMAs (like /proc/maps labels);
/// attach_restored() relocates regions by these.
inline constexpr const char* kHeapLabel = "[heap]";
inline constexpr const char* kKvLabel = "[kv-store]";

/// Stores the KV record (seed, len) in `page`: a 16-byte header and the
/// value bytes. The one writer of the cell layout that GETs read back, for
/// SETs and for harness prefills alike.
void kv_write_cell(kern::AddressSpace& mm, kern::PageNum page,
                   std::uint64_t seed, std::uint16_t len);

class ServerApp {
 public:
  ServerApp(AppEnv env, AppSpec spec);

  /// Builds the container contents (processes, threads, memory regions,
  /// mmapped libraries, fds, data file), starts listening and spawns the
  /// accept loop, the keep-alive process (§IV) and the writeback daemon.
  /// Requires the container to exist already.
  void setup(kern::ContainerId cid);

  /// Rebuilds the app around a restored container on the backup host:
  /// spawns handlers for repaired connections and re-arms the accept loop.
  static std::unique_ptr<ServerApp> attach_restored(
      AppEnv backup_env, AppSpec spec, const core::FailoverContext& ctx);

  /// Service-time dilation while protected (calibrated; 1.0 = stock).
  void set_dilation(double d) { dilation_ = d; }

  std::uint64_t requests_completed() const { return requests_completed_; }
  kern::ContainerId container() const { return cid_; }
  const AppSpec& spec() const { return spec_; }

 private:
  struct Region {
    kern::Pid pid = 0;
    kern::PageNum start = 0;
    std::uint64_t npages = 0;
  };

  sim::task<> accept_loop(net::Endpoint ep);
  sim::task<> handler(kern::Pid pid, net::SocketId sock, kern::Fd fd);
  sim::task<> serve_one(kern::Pid pid, const net::Segment& request,
                        std::shared_ptr<std::vector<std::byte>>* reply,
                        std::uint64_t* reply_len);
  sim::task<> keepalive_loop();
  sim::task<> writeback_loop();
  std::shared_ptr<std::vector<std::byte>> apply_kv(
      const std::vector<std::byte>& payload);
  void dirty_pages(const Region& r, std::uint64_t count, Rng& rng);
  void attach_existing(kern::ContainerId cid);

  /// The nondeterministic-event sink the replication layer installed on
  /// the container (nullptr when unprotected or in epoch commit mode).
  /// Recording only mirrors values the app already drew — it never
  /// advances rng_ or changes any observable.
  kern::NondetSink* nondet_sink() const {
    kern::Container* c = env_.kernel->container(cid_);
    return c != nullptr ? c->nondet_sink() : nullptr;
  }

  AppEnv env_;
  AppSpec spec_;
  kern::ContainerId cid_ = kern::kNoContainer;
  std::vector<kern::Pid> pids_;
  std::vector<Region> heaps_;  // one per process
  Region kv_;                  // process 0 only (kv_pages > 0)
  kern::InodeNum data_file_ = 0;
  std::uint64_t disk_cursor_ = 0;
  Rng rng_;
  double dilation_ = 1.0;
  std::uint64_t requests_completed_ = 0;
  int next_proc_ = 0;  // round-robin connection placement

  /// Bounded data-file region so long runs do not grow without limit.
  static constexpr std::uint64_t kDataFileBytes = 16 * 1024 * 1024;
};

}  // namespace nlc::apps
