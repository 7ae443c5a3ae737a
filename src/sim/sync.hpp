// Coroutine synchronization primitives for the simulator.
//
// All wakeups go through the simulation event queue (at the current
// simulated time) and inherit the waiting coroutine's failure domain, so a
// coroutine on a crashed host is never resumed by a surviving peer.
//
// Lifetime convention: a primitive must outlive the coroutine frames that
// wait on it. Awaiter destructors deregister themselves, so destroying a
// suspended coroutine (Simulation::shutdown) is safe while the primitive is
// alive.
#pragma once

#include <coroutine>
#include <deque>
#include <optional>
#include <utility>
#include <vector>

#include "sim/simulation.hpp"
#include "sim/task.hpp"
#include "util/assert.hpp"

namespace nlc::sim {

namespace detail {

/// Intrusive list node shared by all awaiters that park in a wait list.
/// The domain is borrowed from the parked coroutine's owner.
struct ParkedWaiter {
  std::coroutine_handle<> handle;
  Domain* domain = nullptr;
};

}  // namespace detail

/// One-shot event: waiters suspend until set() is called; waits after set()
/// complete immediately. reset() re-arms it (used by per-epoch barriers).
class Event {
 public:
  explicit Event(Simulation& sim) : sim_(&sim) {}
  Event(const Event&) = delete;
  Event& operator=(const Event&) = delete;

  bool is_set() const { return set_; }

  void set() {
    if (set_) return;
    set_ = true;
    auto waiters = std::move(waiters_);
    waiters_.clear();
    for (auto* w : waiters) {
      sim_->schedule_resume(sim_->now(), w->domain, w->handle);
    }
  }

  void reset() {
    NLC_CHECK_MSG(waiters_.empty(), "resetting an Event with parked waiters");
    set_ = false;
  }

  auto wait() { return Awaiter{this}; }

 private:
  struct Awaiter : detail::ParkedWaiter {
    Event* ev;
    bool parked = false;

    explicit Awaiter(Event* e) : ev(e) {}
    Awaiter(Awaiter&&) = delete;
    ~Awaiter() {
      if (parked) ev->remove(this);
    }

    bool await_ready() const noexcept { return ev->set_; }
    void await_suspend(std::coroutine_handle<> h) {
      handle = h;
      domain = ev->sim_->current_domain();
      ev->waiters_.push_back(this);
      parked = true;
    }
    void await_resume() noexcept { parked = false; }
  };

  void remove(Awaiter* w) {
    for (auto it = waiters_.begin(); it != waiters_.end(); ++it) {
      if (*it == w) {
        waiters_.erase(it);
        return;
      }
    }
  }

  Simulation* sim_;
  bool set_ = false;
  std::vector<Awaiter*> waiters_;
};

/// Level-triggered gate: coroutines pass while open, park while closed.
/// Models "network input blocked during checkpointing" and similar valves.
class Gate {
 public:
  explicit Gate(Simulation& sim, bool open = true) : sim_(&sim), open_(open) {}
  Gate(const Gate&) = delete;
  Gate& operator=(const Gate&) = delete;

  bool is_open() const { return open_; }

  void open() {
    if (open_) return;
    open_ = true;
    auto waiters = std::move(waiters_);
    waiters_.clear();
    for (auto* w : waiters) {
      sim_->schedule_resume(sim_->now(), w->domain, w->handle);
    }
  }

  void close() { open_ = false; }

  /// Awaitable that completes when the gate is (or becomes) open. Note the
  /// level-trigger semantics: a waiter released by open() proceeds even if
  /// the gate closes again before its wakeup fires, matching a packet that
  /// already passed the qdisc.
  auto passage() { return Awaiter{this}; }

 private:
  struct Awaiter : detail::ParkedWaiter {
    Gate* gate;
    bool parked = false;

    explicit Awaiter(Gate* g) : gate(g) {}
    Awaiter(Awaiter&&) = delete;
    ~Awaiter() {
      if (parked) gate->remove(this);
    }

    bool await_ready() const noexcept { return gate->open_; }
    void await_suspend(std::coroutine_handle<> h) {
      handle = h;
      domain = gate->sim_->current_domain();
      gate->waiters_.push_back(this);
      parked = true;
    }
    void await_resume() noexcept { parked = false; }
  };

  void remove(Awaiter* w) {
    for (auto it = waiters_.begin(); it != waiters_.end(); ++it) {
      if (*it == w) {
        waiters_.erase(it);
        return;
      }
    }
  }

  Simulation* sim_;
  bool open_;
  std::vector<Awaiter*> waiters_;
};

/// Unbounded FIFO channel with direct hand-off to parked receivers.
template <typename T>
class Mailbox {
 public:
  explicit Mailbox(Simulation& sim) : sim_(&sim) {}
  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;

  void send(T value) {
    if (!waiters_.empty()) {
      NLC_CHECK(queue_.empty());
      Awaiter* w = waiters_.front();
      waiters_.erase(waiters_.begin());
      w->parked = false;
      w->value.emplace(std::move(value));
      sim_->schedule_resume(sim_->now(), w->domain, w->handle);
      return;
    }
    queue_.push_back(std::move(value));
  }

  /// Awaitable receive; FIFO among waiters; values are handed directly to
  /// the receiver so no wakeup can be "stolen" by a later recv.
  auto recv() { return Awaiter{this}; }

  bool empty() const { return queue_.empty(); }
  std::size_t size() const { return queue_.size(); }

  /// Non-blocking receive.
  std::optional<T> try_recv() {
    if (queue_.empty()) return std::nullopt;
    T v = std::move(queue_.front());
    queue_.pop_front();
    return v;
  }

 private:
  struct Awaiter : detail::ParkedWaiter {
    Mailbox* mb;
    std::optional<T> value;
    bool parked = false;

    explicit Awaiter(Mailbox* m) : mb(m) {}
    Awaiter(Awaiter&&) = delete;
    ~Awaiter() {
      if (parked) mb->remove(this);
    }

    bool await_ready() {
      if (!mb->queue_.empty()) {
        value.emplace(std::move(mb->queue_.front()));
        mb->queue_.pop_front();
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) {
      handle = h;
      domain = mb->sim_->current_domain();
      mb->waiters_.push_back(this);
      parked = true;
    }
    T await_resume() {
      NLC_CHECK_MSG(value.has_value(), "mailbox wakeup without a value");
      return std::move(*value);
    }
  };

  void remove(Awaiter* w) {
    for (auto it = waiters_.begin(); it != waiters_.end(); ++it) {
      if (*it == w) {
        waiters_.erase(it);
        return;
      }
    }
  }

  Simulation* sim_;
  std::deque<T> queue_;
  std::vector<Awaiter*> waiters_;
};

/// Counts outstanding work items; wait() completes when the count is zero.
class WaitGroup {
 public:
  explicit WaitGroup(Simulation& sim) : event_(sim) {
    event_.set();  // zero outstanding => already complete
  }

  void add(int n = 1) {
    NLC_CHECK(n >= 0);
    if (n == 0) return;
    if (count_ == 0) event_.reset();
    count_ += n;
  }

  void done() {
    NLC_CHECK_MSG(count_ > 0, "WaitGroup::done without matching add");
    if (--count_ == 0) event_.set();
  }

  int count() const { return count_; }

  auto wait() { return event_.wait(); }

 private:
  Event event_;
  int count_ = 0;
};

}  // namespace nlc::sim
