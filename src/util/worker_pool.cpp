#include "util/worker_pool.hpp"

namespace nlc::util {

namespace {
/// The pool a thread is currently executing a batch for (caller or
/// helper). Guards against re-entrant run() on the same pool, where
/// try_lock on the already-owned dispatch mutex would be undefined.
thread_local const WorkerPool* t_busy_pool = nullptr;
}  // namespace

WorkerPool::WorkerPool(int helpers) {
  if (helpers < 0) helpers = 0;
  threads_.reserve(static_cast<std::size_t>(helpers));
  for (int i = 0; i < helpers; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lk(m_);
    stop_ = true;
  }
  cv_start_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void WorkerPool::run_inline(std::size_t n,
                            const std::function<void(std::size_t)>& fn) {
  // Serial fallback: attempt every index (parity with the parallel path,
  // which drains the whole batch before rethrowing), keep the first —
  // lowest-index — exception.
  std::exception_ptr err;
  for (std::size_t i = 0; i < n; ++i) {
    try {
      fn(i);
    } catch (...) {
      if (!err) err = std::current_exception();
    }
  }
  if (err) std::rethrow_exception(err);
}

void WorkerPool::work(const std::function<void(std::size_t)>& fn,
                      std::size_t n) {
  for (;;) {
    std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= n) return;
    try {
      fn(i);
    } catch (...) {
      std::lock_guard<std::mutex> lk(m_);
      if (!error_ || i < error_index_) {
        error_ = std::current_exception();
        error_index_ = i;
      }
    }
  }
}

void WorkerPool::run(std::size_t n,
                     const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (threads_.empty() || n == 1 || t_busy_pool == this) {
    run_inline(n, fn);
    return;
  }
  std::unique_lock<std::mutex> dispatch(dispatch_m_, std::try_to_lock);
  if (!dispatch.owns_lock()) {
    // Helpers are owned by another fan-out right now; nested-pool policy
    // says the outermost one keeps them.
    run_inline(n, fn);
    return;
  }
  {
    std::lock_guard<std::mutex> lk(m_);
    fn_ = &fn;
    n_ = n;
    next_.store(0, std::memory_order_relaxed);
    error_ = nullptr;
    error_index_ = n;
    active_ = static_cast<int>(threads_.size());
    ++generation_;
  }
  cv_start_.notify_all();

  const WorkerPool* prev = t_busy_pool;
  t_busy_pool = this;
  work(fn, n);
  t_busy_pool = prev;

  std::exception_ptr err;
  {
    std::unique_lock<std::mutex> lk(m_);
    cv_done_.wait(lk, [this] { return active_ == 0; });
    fn_ = nullptr;
    err = error_;
    error_ = nullptr;
  }
  if (err) std::rethrow_exception(err);
}

void WorkerPool::worker_loop() {
  std::uint64_t seen = 0;
  for (;;) {
    const std::function<void(std::size_t)>* fn = nullptr;
    std::size_t n = 0;
    {
      std::unique_lock<std::mutex> lk(m_);
      cv_start_.wait(lk, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      fn = fn_;
      n = n_;
    }
    const WorkerPool* prev = t_busy_pool;
    t_busy_pool = this;
    work(*fn, n);
    t_busy_pool = prev;
    {
      std::lock_guard<std::mutex> lk(m_);
      if (--active_ == 0) cv_done_.notify_all();
    }
  }
}

}  // namespace nlc::util
