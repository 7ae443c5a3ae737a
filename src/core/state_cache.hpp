// Cache of infrequently-modified in-kernel container state (§V-B).
//
// The most effective NiLiCon optimization: control groups, namespaces,
// mount points, device files and memory-mapped files rarely change, so the
// agent caches their harvested form and replays it into each checkpoint.
// A kernel module hooks (via ftrace) every code path that can mutate them;
// when a hook fires for the protected container the cache is invalidated
// and the next checkpoint re-harvests.
//
// The cache holds one immutable snapshot (criu::InfrequentSnapshot). A
// cached harvest puts that same pointer in its image, and the cache takes
// each image's pointer back, so replaying the state costs the simulator
// a refcount bump, not a copy of every namespace, mount and file name.
// What the replay costs in the model (infrequent_cache_check) and on the
// wire (InfrequentState::byte_size) is unchanged.
//
// Like the paper's research prototype, the hook set covers the common
// mutation paths; the version counter double-checks staleness at use time,
// so a missed hook degrades cost, never correctness.
#pragma once

#include <utility>

#include "criu/checkpoint.hpp"
#include "kernel/kernel.hpp"

namespace nlc::core {

class InfrequentStateCache {
 public:
  InfrequentStateCache(kern::Kernel& k, kern::ContainerId cid)
      : kernel_(&k), cid_(cid) {
    attach_hooks();
  }

  /// The cached snapshot, or null when invalid (checkpoint engine then
  /// harvests afresh).
  const criu::InfrequentSnapshot& get() const { return cached_; }

  /// Installs a harvest's snapshot into the cache.
  void update(criu::InfrequentSnapshot st) { cached_ = std::move(st); }

  void invalidate() {
    cached_.reset();
    ++invalidations_;
  }

  bool valid() const { return cached_ != nullptr; }
  std::uint64_t invalidations() const { return invalidations_; }

 private:
  void attach_hooks() {
    // The kernel functions NiLiCon's module instruments (§V-B).
    static constexpr const char* kHookTargets[] = {
        "do_mount",       "do_umount", "setns",
        "cgroup_attach_task", "mknod", "mmap_region",
        "create_new_namespaces",
    };
    for (const char* fn : kHookTargets) {
      kernel_->ftrace().attach(fn, [this](const kern::TraceEvent& ev) {
        // The hook checks the calling thread's container (§V-B): events
        // from other containers don't invalidate this cache.
        if (ev.container == cid_) invalidate();
      });
    }
  }

  kern::Kernel* kernel_;
  kern::ContainerId cid_;
  criu::InfrequentSnapshot cached_;
  std::uint64_t invalidations_ = 0;
};

}  // namespace nlc::core
