// Reusable worker pool for deterministic fan-out: harness::TrialRunner
// runs independent simulations on it (NLC_JOBS, DESIGN.md §9). A trial
// itself runs on one thread.
//
// run(n, fn) executes fn(0..n-1) with the calling thread participating:
// helper threads and the caller pull indices from one atomic counter, so a
// pool with zero helpers degrades to a plain serial loop and forward
// progress never depends on a helper waking up. Work distribution is
// intentionally order-free — every correct use partitions its output by
// index (or merges deterministically afterwards), which is what keeps
// results byte-identical for any helper count.
//
// Nested/concurrent use: run() is safe to call from multiple threads and
// from inside a running task. A caller that cannot take exclusive
// ownership of the helpers (they are busy, or the call is re-entrant from
// this pool) simply executes its batch inline — the nested-pool policy is
// "outermost fan-out wins", so a nested fan-out collapses to a serial loop
// instead of oversubscribing the cores.
//
// If any index's task throws, the exception of the lowest failing index is
// rethrown after the whole batch drained (same contract as TrialRunner).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace nlc::util {

class WorkerPool {
 public:
  /// Creates `helpers` persistent helper threads (0 is valid: run() then
  /// executes entirely on the calling thread).
  explicit WorkerPool(int helpers);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  int helpers() const { return static_cast<int>(threads_.size()); }

  /// Executes fn(0), ..., fn(n-1), returning when all have completed. The
  /// caller participates; helpers join in when available. Rethrows the
  /// lowest-index task exception after the batch drains.
  void run(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();
  /// Pulls indices from the current batch until it is exhausted.
  void work(const std::function<void(std::size_t)>& fn, std::size_t n);
  void run_inline(std::size_t n, const std::function<void(std::size_t)>& fn);

  std::vector<std::thread> threads_;

  std::mutex m_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  bool stop_ = false;
  std::uint64_t generation_ = 0;
  int active_ = 0;

  // Current batch (published under m_, consumed via next_).
  const std::function<void(std::size_t)>* fn_ = nullptr;
  std::size_t n_ = 0;
  std::atomic<std::size_t> next_{0};
  std::exception_ptr error_;
  std::size_t error_index_ = 0;

  /// Serializes concurrent run() callers; a caller that cannot take it
  /// immediately runs inline (nested-pool policy).
  std::mutex dispatch_m_;
};

}  // namespace nlc::util
