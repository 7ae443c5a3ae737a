// Exit-time lifetime regression for the slab arena (util/arena.hpp).
//
// A static util::WorkerPool constructed before the first arena allocation
// is destroyed after the arena singleton, which is constructed later. The
// pool's helper threads exit inside the pool's destructor, and only then
// release what they hold: their thread-local block caches (spilled into
// the arena) and any arena block a thread_local still owns. This program
// builds exactly that ordering and returns from main normally, so it exits
// cleanly only if the arena outlives every helper thread.
//
// Plain executable rather than a gtest case: the property under test is
// what happens after main returns.
#include <cstddef>
#include <cstring>
#include <latch>
#include <vector>

#include "util/arena.hpp"
#include "util/worker_pool.hpp"

namespace {

using Alloc = nlc::util::ArenaAllocator<std::byte>;

/// One arena block a thread keeps until it exits. The destructor writes
/// the block and frees it, so a helper thread exiting after the arena's
/// slabs were released faults here instead of corrupting the heap quietly.
struct HeldBlock {
  static constexpr std::size_t kBytes = 4096;
  std::byte* p = nullptr;
  ~HeldBlock() {
    if (p == nullptr) return;
    std::memset(p, 0x5a, kBytes);
    Alloc{}.deallocate(p, kBytes);
  }
};
thread_local HeldBlock t_held;

void churn_blocks() {
  Alloc a;
  std::vector<std::pair<std::byte*, std::size_t>> live;
  for (std::size_t bytes = nlc::util::kArenaMinBlock;
       bytes <= nlc::util::kArenaMaxBlock; bytes *= 2) {
    for (int i = 0; i < 100; ++i) live.emplace_back(a.allocate(bytes), bytes);
  }
  for (auto [p, bytes] : live) {
    std::memset(p, 0x11, bytes);
    a.deallocate(p, bytes);
  }
  t_held.p = a.allocate(HeldBlock::kBytes);
}

}  // namespace

int main() {
  constexpr int kHelpers = 2;
  // Constructed before any arena allocation, so destroyed after the arena.
  static nlc::util::WorkerPool pool(kHelpers);
  constexpr std::size_t kTasks = kHelpers + 1;
  // Every task waits for all the others, so each of the kTasks threads
  // (the caller plus every helper) runs exactly one.
  // NLC_LINT_OK(concurrency-owner): forces one task onto every pool thread
  std::latch all_running(static_cast<std::ptrdiff_t>(kTasks));
  pool.run(kTasks, [&all_running](std::size_t) {
    all_running.arrive_and_wait();
    churn_blocks();
  });
  return 0;
}
