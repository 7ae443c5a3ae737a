// Deterministic discrete-event simulation kernel.
//
// One Simulation instance models a whole distributed deployment (primary
// host, backup host, client host, links). Components schedule callbacks at
// simulated times and run coroutines (`task<>`) whose awaitables suspend
// until a later simulated time or until signalled by another component.
//
// Failure domains: every scheduled wakeup may be tagged with a Domain.
// Killing a Domain (fail-stop host crash) silently discards all of its
// pending and future wakeups, freezing that host's coroutines exactly the
// way a crashed machine freezes its threads. Untagged events (the "wire",
// surviving hosts) keep running.
//
// Determinism: events with equal timestamps fire in scheduling order (FIFO
// by a monotone sequence number). There is no wall-clock or address-based
// ordering anywhere.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/task.hpp"
#include "util/assert.hpp"
#include "util/time.hpp"

namespace nlc::sim {

class Simulation;

/// A fail-stop failure domain (typically: one host). All coroutine wakeups
/// and timers belonging to a dead domain are discarded.
class Domain {
 public:
  explicit Domain(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  bool alive() const { return alive_; }
  /// Fail-stop kill: no code of this domain runs after this call.
  void kill() { alive_ = false; }
  /// Used by tests that restart a domain between trials.
  void revive() { alive_ = true; }

 private:
  std::string name_;
  bool alive_ = true;
};

using DomainPtr = std::shared_ptr<Domain>;

/// Handle to a scheduled callback; allows cancellation.
class TimerHandle {
 public:
  TimerHandle() = default;

  void cancel() {
    if (auto s = state_.lock()) s->cancelled = true;
  }
  bool active() const {
    auto s = state_.lock();
    return s && !s->cancelled && !s->fired;
  }

 private:
  friend class Simulation;
  struct State {
    std::function<void()> fn;
    DomainPtr domain;
    bool cancelled = false;
    bool fired = false;
  };
  explicit TimerHandle(std::weak_ptr<State> s) : state_(std::move(s)) {}
  std::weak_ptr<State> state_;
};

class Simulation {
 public:
  Simulation();
  ~Simulation();

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Current simulated time.
  Time now() const { return now_; }

  /// Schedules `fn` at absolute simulated time `t` (>= now). A null domain
  /// means the callback always runs; otherwise it is discarded if the
  /// domain is dead when the time arrives.
  TimerHandle call_at(Time t, DomainPtr domain, std::function<void()> fn);
  TimerHandle call_after(Time delay, DomainPtr domain,
                         std::function<void()> fn);
  TimerHandle call_at(Time t, std::function<void()> fn) {
    return call_at(t, nullptr, std::move(fn));
  }
  TimerHandle call_after(Time delay, std::function<void()> fn) {
    return call_after(delay, nullptr, std::move(fn));
  }

  /// Starts a root coroutine, associated with `domain` (may be null).
  /// The coroutine runs synchronously up to its first suspension point.
  void spawn(DomainPtr domain, task<> t);
  void spawn(task<> t) { spawn(nullptr, std::move(t)); }

  /// Runs events until the queue is empty or a stop is requested.
  /// Rethrows the first exception that escaped a spawned coroutine.
  void run();
  /// Runs events with time <= `deadline`; afterwards now() == deadline
  /// unless the queue drained earlier or a coroutine failed.
  void run_until(Time deadline);
  /// Processes a single event; returns false if the queue is empty.
  bool step();
  /// Requests run()/run_until() to return after the current event.
  void stop() { stop_requested_ = true; }

  /// Awaitable: suspend the calling coroutine for `delay` of simulated time.
  /// The wakeup inherits the coroutine's current domain.
  auto sleep_for(Time delay) { return SleepAwaiter{this, now_ + delay}; }
  auto sleep_until(Time t) { return SleepAwaiter{this, t}; }

  /// Domain of the coroutine/callback currently executing (null outside).
  const DomainPtr& current_domain() const { return current_domain_; }

  /// Schedules a coroutine wakeup at `t` under `domain`. Used by the sync
  /// primitives; prefer those in application code.
  void schedule_resume(Time t, DomainPtr domain, std::coroutine_handle<> h);

  /// Destroys all still-live root coroutine frames. Must be called (or the
  /// destructor will call it) before the components the coroutines
  /// reference are destroyed.
  void shutdown();

  bool tearing_down() const { return tearing_down_; }

  /// Number of events processed since construction (for tests/diagnostics).
  std::uint64_t events_processed() const { return events_processed_; }

  /// Invariant-audit probe (src/check): runs `probe` after every
  /// `every_events`-th processed event, outside any coroutine, so an
  /// InvariantError it throws escapes run() directly. Pass a null function
  /// to disable (the default; the dispatcher then pays a single branch).
  void set_audit_probe(std::function<void()> probe,
                       std::uint64_t every_events = 1024) {
    NLC_CHECK(every_events > 0);
    audit_probe_ = std::move(probe);
    audit_probe_every_ = every_events;
    events_since_probe_ = 0;
  }

  /// Number of call_at/call_after calls since construction. Each allocates
  /// one TimerHandle::State; coroutine resumes never count here.
  std::uint64_t timers_scheduled() const { return timers_scheduled_; }
  /// Number of entries that went to the heap rather than the same-time
  /// lane, i.e. were scheduled for a time later than now().
  std::uint64_t heap_pushes() const { return heap_pushes_; }

 private:
  // A queue entry is either a timer callback (`resume` null, `ref` holds a
  // TimerHandle::State) or a plain coroutine resume (`resume` set, `ref`
  // holds the Domain or is null). Resumes are by far the most common event
  // — every sleep_for and every sync-primitive wakeup — so they get a
  // dedicated representation that needs no shared_ptr<State> and no
  // type-erased std::function allocation. The single type-erased `ref`
  // slot keeps the entry at 48 bytes with one smart-pointer move per heap
  // sift level instead of two.
  struct QueueEntry {
    Time time = 0;
    std::uint64_t seq = 0;
    std::coroutine_handle<> resume{};
    std::shared_ptr<void> ref;  // Domain (fast path) or TimerHandle::State
  };

  // Flat 4-ary min-heap on (time, seq). (time, seq) is a strict total
  // order — seq is unique — so the pop sequence is identical for any heap
  // arity; d=4 halves the sift depth versus a binary heap, and sifts move
  // a hole instead of swapping, so each level costs one entry move.
  class ReadyQueue {
   public:
    void reserve(std::size_t n) { v_.reserve(n); }
    bool empty() const { return v_.empty(); }
    const QueueEntry& top() const { return v_.front(); }

    void push(QueueEntry e) {
      std::size_t i = v_.size();
      v_.push_back(std::move(e));
      QueueEntry hole = std::move(v_[i]);
      while (i > 0) {
        std::size_t parent = (i - 1) / kArity;
        if (!before(hole, v_[parent])) break;
        v_[i] = std::move(v_[parent]);
        i = parent;
      }
      v_[i] = std::move(hole);
    }

    QueueEntry pop_top() {
      QueueEntry out = std::move(v_.front());
      QueueEntry last = std::move(v_.back());
      v_.pop_back();
      if (!v_.empty()) sift_down(std::move(last));
      return out;
    }

   private:
    static constexpr std::size_t kArity = 4;
    static bool before(const QueueEntry& a, const QueueEntry& b) {
      if (a.time != b.time) return a.time < b.time;
      return a.seq < b.seq;
    }
    void sift_down(QueueEntry hole) {
      std::size_t i = 0;
      const std::size_t n = v_.size();
      for (;;) {
        std::size_t first = i * kArity + 1;
        if (first >= n) break;
        std::size_t last = first + kArity < n ? first + kArity : n;
        std::size_t min = first;
        for (std::size_t c = first + 1; c < last; ++c) {
          if (before(v_[c], v_[min])) min = c;
        }
        if (!before(v_[min], hole)) break;
        v_[i] = std::move(v_[min]);
        i = min;
      }
      v_[i] = std::move(hole);
    }
    std::vector<QueueEntry> v_;
  };

  struct SleepAwaiter {
    Simulation* sim;
    Time wake_time;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      sim->schedule_resume(wake_time, sim->current_domain(), h);
    }
    void await_resume() const noexcept {}
  };

  // Root-coroutine driver: runs eagerly, self-destroys on completion.
  struct RootDriver {
    struct promise_type {
      RootDriver get_return_object() { return {}; }
      std::suspend_never initial_suspend() noexcept { return {}; }
      std::suspend_never final_suspend() noexcept { return {}; }
      void return_void() noexcept {}
      void unhandled_exception() noexcept { std::terminate(); }
    };
  };
  RootDriver drive(task<> t);

  struct SelfHandle {
    std::coroutine_handle<> h;
    bool await_ready() const noexcept { return false; }
    bool await_suspend(std::coroutine_handle<> hh) noexcept {
      h = hh;
      return false;  // do not actually suspend; we only want the handle
    }
    std::coroutine_handle<> await_resume() const noexcept { return h; }
  };

  void register_root(std::coroutine_handle<> h);
  void unregister_root(std::coroutine_handle<> h);
  void record_exception(std::exception_ptr e);
  void rethrow_if_failed();
  bool dispatch(QueueEntry& entry);
  void enqueue(QueueEntry entry);
  bool pop_next(QueueEntry& out, Time limit);

  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_processed_ = 0;
  std::uint64_t timers_scheduled_ = 0;
  std::uint64_t heap_pushes_ = 0;
  std::function<void()> audit_probe_;
  std::uint64_t audit_probe_every_ = 1024;
  std::uint64_t events_since_probe_ = 0;
  bool stop_requested_ = false;
  bool tearing_down_ = false;
  DomainPtr current_domain_;
  std::exception_ptr pending_exception_;
  ReadyQueue queue_;
  // Same-time lane: entries scheduled at exactly now_ (sync-primitive
  // hand-offs, call_after(0)) skip the heap entirely — they are drained in
  // FIFO order before time advances. Correct by seq monotonicity: while
  // now_ == T every push at T lands here, so heap entries at T (pushed
  // strictly before now_ reached T) always carry smaller seqs and are
  // popped first.
  std::vector<QueueEntry> now_queue_;
  std::size_t now_head_ = 0;
  // Live root coroutine frames in registration order (perturbed only by
  // the deterministic swap-erase in unregister_root), so shutdown()
  // destroys frames — and runs their destructor side effects — in an order
  // that never depends on frame allocation addresses. The index map exists
  // for O(1) identity lookup only; nothing ever iterates it.
  // NLC_LINT_OK(ptr-key): identity-lookup index; iteration uses live_roots_
  std::unordered_map<void*, std::size_t> root_index_;
  std::vector<void*> live_roots_;
};

}  // namespace nlc::sim
