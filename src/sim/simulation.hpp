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
// surviving hosts) keep running. The engine borrows domains: it holds a
// plain Domain*, and whoever owns a domain (Cluster, Kernel, TcpStack, a
// test) keeps it alive for every run that can dispatch its events.
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

/// Source of non-cancellable deliveries (Simulation::post): a link
/// direction's packets, a channel's messages. The payloads stay with the
/// source, oldest first; a queue entry names only the source. When the
/// entry fires, the source hands its oldest payload over (deliver_next),
/// or discards it when the destination's domain is dead (drop_next).
///
/// Lifetime: a Deliverer must outlive every run that can dispatch its
/// entries, as a sync primitive must outlive its waiters. The queue holds
/// its address, so it is neither copied nor moved.
class Deliverer {
 public:
  virtual void deliver_next() = 0;
  virtual void drop_next() = 0;

 protected:
  Deliverer() = default;
  Deliverer(const Deliverer&) = delete;
  Deliverer& operator=(const Deliverer&) = delete;
  ~Deliverer() = default;
};

/// A Deliverer's payloads in flight, oldest first, each stamped with its
/// arrival time. The source must post its payloads in arrival order (one
/// link's arrivals never decrease), so FIFO order is the entries' (time,
/// seq) pop order; pop() checks that against the stamp. A ring that only
/// grows, so a steady flow allocates nothing.
template <typename T>
class InFlight {
 public:
  void push(Time at, T item) {
    if (size_ == slots_.size()) grow();
    slots_[(head_ + size_) & (slots_.size() - 1)] = Slot{at, std::move(item)};
    ++size_;
  }

  /// Removes the oldest payload, which must arrive at `now`.
  T pop(Time now) {
    NLC_CHECK(size_ > 0);
    Slot& oldest = slots_[head_];
    NLC_CHECK_MSG(oldest.at == now, "delivery out of arrival order");
    T item = std::move(oldest.item);
    head_ = (head_ + 1) & (slots_.size() - 1);
    --size_;
    return item;
  }

 private:
  struct Slot {
    Time at = 0;
    T item{};
  };
  void grow() {
    std::vector<Slot> bigger(slots_.empty() ? 8 : 2 * slots_.size());
    for (std::size_t i = 0; i < size_; ++i) {
      bigger[i] = std::move(slots_[(head_ + i) & (slots_.size() - 1)]);
    }
    slots_ = std::move(bigger);
    head_ = 0;
  }
  std::vector<Slot> slots_;  // power-of-two size
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

/// Handle to a scheduled callback; allows cancellation.
class TimerHandle {
 public:
  TimerHandle() = default;

  /// The callback will not run. A timer cancelled while it waits in the
  /// heap is counted there, so the heap can shed it (Simulation's purge).
  void cancel();
  bool active() const {
    auto s = state_.lock();
    return s && !s->cancelled && !s->fired;
  }

 private:
  friend class Simulation;
  struct State {
    std::function<void()> fn;
    Simulation* sim = nullptr;
    bool cancelled = false;
    bool fired = false;
    bool in_heap = false;  // queued in the heap, not the same-time lane
  };
  explicit TimerHandle(std::weak_ptr<State> s) : state_(std::move(s)) {}
  std::weak_ptr<State> state_;
};

/// The event loop. It borrows every Domain and Deliverer its entries
/// name: each must outlive every run that can dispatch its events (an
/// owner such as Cluster declares the Simulation first and shuts it down
/// first).
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
  TimerHandle call_at(Time t, Domain* domain, std::function<void()> fn);
  TimerHandle call_after(Time delay, Domain* domain,
                         std::function<void()> fn);
  TimerHandle call_at(Time t, std::function<void()> fn) {
    return call_at(t, nullptr, std::move(fn));
  }
  TimerHandle call_after(Time delay, std::function<void()> fn) {
    return call_after(delay, nullptr, std::move(fn));
  }

  /// Posts a delivery from `source` at `t` (>= now): `deliver_next()`
  /// runs under `domain`, or `drop_next()` if the domain is dead by then.
  /// Not cancellable, and no allocation: the payload stays with `source`.
  void post(Time t, Domain* domain, Deliverer* source);

  /// Starts a root coroutine, associated with `domain` (may be null).
  /// The coroutine runs synchronously up to its first suspension point.
  void spawn(Domain* domain, task<> t);
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
  Domain* current_domain() const { return current_domain_; }

  /// Schedules a coroutine wakeup at `t` under `domain`. Used by the sync
  /// primitives; prefer those in application code.
  void schedule_resume(Time t, Domain* domain, std::coroutine_handle<> h);

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
  /// one TimerHandle::State; coroutine resumes and deliveries never count
  /// here.
  std::uint64_t timers_scheduled() const { return timers_scheduled_; }
  /// Number of entries that went to the heap rather than the same-time
  /// lane, i.e. were scheduled for a time later than now().
  std::uint64_t heap_pushes() const { return heap_pushes_; }
  /// Entries queued now, heap plus same-time lane, cancelled timers that
  /// are still queued included.
  std::size_t pending() const {
    return queue_.size() + (now_queue_.size() - now_head_);
  }

 private:
  // A queue entry carries the domain it runs under and one of three
  // targets: a coroutine resume (`resume` set), a delivery (`deliverer`
  // set) or a timer callback (`timer` set). Resumes and deliveries are by
  // far the most common events — every sleep_for, every sync-primitive
  // wakeup, every packet and channel message — and need no allocation and
  // no refcount: the domain is borrowed and a delivery's payload stays
  // with its source. Only a timer holds a shared TimerHandle::State, which
  // its handle's weak_ptr needs.
  struct QueueEntry {
    Time time = 0;
    std::uint64_t seq = 0;
    Domain* domain = nullptr;
    std::coroutine_handle<> resume{};
    Deliverer* deliverer = nullptr;
    std::shared_ptr<TimerHandle::State> timer;
  };

  // Flat 4-ary min-heap on (time, seq). (time, seq) is a strict total
  // order — seq is unique — so the pop sequence is identical for any heap
  // arity; d=4 halves the sift depth versus a binary heap, and sifts move
  // a hole instead of swapping, so each level costs one entry move.
  class ReadyQueue {
   public:
    void reserve(std::size_t n) { v_.reserve(n); }
    bool empty() const { return v_.empty(); }
    std::size_t size() const { return v_.size(); }
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
      if (!v_.empty()) sift_down(0, std::move(last));
      return out;
    }

    /// Removes every entry `dead` accepts and re-heapifies the rest
    /// bottom-up (Floyd, O(n)). Returns the number removed.
    template <typename Pred>
    std::size_t remove_if(Pred dead) {
      const std::size_t before_size = v_.size();
      std::erase_if(v_, dead);
      for (std::size_t i = v_.size() > 1 ? (v_.size() - 2) / kArity + 1 : 0;
           i-- > 0;) {
        sift_down(i, std::move(v_[i]));
      }
      return before_size - v_.size();
    }

   private:
    static constexpr std::size_t kArity = 4;
    static bool before(const QueueEntry& a, const QueueEntry& b) {
      if (a.time != b.time) return a.time < b.time;
      return a.seq < b.seq;
    }
    void sift_down(std::size_t i, QueueEntry hole) {
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
  void pop_heap(QueueEntry& out);
  friend class TimerHandle;  // cancel() counts a cancel in the heap
  void purge_if_half_cancelled();

  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_processed_ = 0;
  std::uint64_t timers_scheduled_ = 0;
  std::uint64_t heap_pushes_ = 0;
  // Cancelled timers still in the heap. Once they are at least
  // kPurgeMinCancelled and half the heap, they are all removed, so the
  // heap never holds more than twice its live entries plus that minimum.
  std::size_t cancelled_in_heap_ = 0;
  std::function<void()> audit_probe_;
  std::uint64_t audit_probe_every_ = 1024;
  std::uint64_t events_since_probe_ = 0;
  bool stop_requested_ = false;
  bool tearing_down_ = false;
  Domain* current_domain_ = nullptr;
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
