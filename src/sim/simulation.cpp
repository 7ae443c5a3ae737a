#include "sim/simulation.hpp"

#include <limits>
#include <utility>

namespace nlc::sim {

namespace {
// Typical experiments keep hundreds of in-flight wakeups; reserving up
// front keeps the hot loop free of heap growth until a workload genuinely
// exceeds it.
constexpr std::size_t kInitialQueueCapacity = 1024;
// A purge needs at least this many cancelled timers in the heap (and half
// the heap cancelled), so a small heap is never rebuilt for a few of them.
constexpr std::size_t kPurgeMinCancelled = 64;
}  // namespace

void TimerHandle::cancel() {
  auto s = state_.lock();
  if (!s || s->cancelled || s->fired) return;
  s->cancelled = true;
  if (s->in_heap) {
    ++s->sim->cancelled_in_heap_;
    s->sim->purge_if_half_cancelled();
  }
}

Simulation::Simulation() {
  queue_.reserve(kInitialQueueCapacity);
  now_queue_.reserve(kInitialQueueCapacity);
}

Simulation::~Simulation() { shutdown(); }

TimerHandle Simulation::call_at(Time t, Domain* domain,
                                std::function<void()> fn) {
  NLC_CHECK_MSG(t >= now_, "cannot schedule an event in the past");
  ++timers_scheduled_;
  auto state = std::make_shared<TimerHandle::State>();
  state->fn = std::move(fn);
  state->sim = this;
  state->in_heap = t != now_;
  TimerHandle handle{std::weak_ptr<TimerHandle::State>(state)};
  enqueue(QueueEntry{t, next_seq_++, domain, {}, nullptr, std::move(state)});
  return handle;
}

TimerHandle Simulation::call_after(Time delay, Domain* domain,
                                   std::function<void()> fn) {
  NLC_CHECK_MSG(delay >= 0, "negative delay");
  return call_at(now_ + delay, domain, std::move(fn));
}

void Simulation::schedule_resume(Time t, Domain* domain,
                                 std::coroutine_handle<> h) {
  // Dedicated resume entry: no TimerHandle::State allocation and no
  // type-erased std::function — resumes dominate the event mix (sleep_for
  // + every sync-primitive wakeup), so this is the engine's hot path.
  NLC_CHECK_MSG(t >= now_, "cannot schedule a resume in the past");
  enqueue(QueueEntry{t, next_seq_++, domain, h, nullptr, nullptr});
}

void Simulation::post(Time t, Domain* domain, Deliverer* source) {
  NLC_CHECK_MSG(t >= now_, "cannot post a delivery in the past");
  enqueue(QueueEntry{t, next_seq_++, domain, {}, source, nullptr});
}

Simulation::RootDriver Simulation::drive(task<> t) {
  auto self = co_await SelfHandle{};
  register_root(self);
  // Ensure deregistration on every exit path, including frame destruction
  // during shutdown() while this driver is suspended inside `t`.
  struct Guard {
    Simulation* sim;
    std::coroutine_handle<> h;
    ~Guard() { sim->unregister_root(h); }
  } guard{this, self};

  try {
    co_await std::move(t);
  } catch (...) {
    record_exception(std::current_exception());
  }
}

void Simulation::spawn(Domain* domain, task<> t) {
  NLC_CHECK_MSG(t.valid(), "spawning an empty task");
  if (domain && !domain->alive()) return;  // code on a dead host never runs
  Domain* saved = std::exchange(current_domain_, domain);
  drive(std::move(t));  // runs eagerly until the first suspension
  current_domain_ = saved;
}

void Simulation::register_root(std::coroutine_handle<> h) {
  root_index_.emplace(h.address(), live_roots_.size());
  live_roots_.push_back(h.address());
}

void Simulation::unregister_root(std::coroutine_handle<> h) {
  if (tearing_down_) return;  // container is being drained by shutdown()
  auto it = root_index_.find(h.address());
  if (it == root_index_.end()) return;
  const std::size_t idx = it->second;
  void* const last = live_roots_.back();
  live_roots_[idx] = last;
  live_roots_.pop_back();
  if (last != h.address()) root_index_.find(last)->second = idx;
  root_index_.erase(it);
}

void Simulation::record_exception(std::exception_ptr e) {
  if (!pending_exception_) pending_exception_ = std::move(e);
  stop_requested_ = true;
}

void Simulation::rethrow_if_failed() {
  if (pending_exception_) {
    auto e = std::exchange(pending_exception_, nullptr);
    std::rethrow_exception(e);
  }
}

bool Simulation::dispatch(QueueEntry& entry) {
  Domain* const domain = entry.domain;
  if (entry.timer) {
    // entry.timer keeps the state alive across fn() even if the callback
    // drops its own TimerHandle.
    if (entry.timer->cancelled) return false;
    if (domain && !domain->alive()) return false;
    entry.timer->fired = true;
  } else if (domain && !domain->alive()) {
    if (entry.deliverer) entry.deliverer->drop_next();
    return false;
  }
  ++events_processed_;
  Domain* const saved = std::exchange(current_domain_, domain);
  if (entry.resume) {
    entry.resume.resume();
  } else if (entry.deliverer) {
    entry.deliverer->deliver_next();
  } else {
    entry.timer->fn();
  }
  current_domain_ = saved;
  if (audit_probe_ && ++events_since_probe_ >= audit_probe_every_) {
    events_since_probe_ = 0;
    audit_probe_();  // outside any coroutine: an InvariantError escapes run()
  }
  return true;
}

void Simulation::enqueue(QueueEntry entry) {
  if (entry.time == now_) {
    now_queue_.push_back(std::move(entry));
  } else {
    ++heap_pushes_;
    queue_.push(std::move(entry));
  }
}

void Simulation::purge_if_half_cancelled() {
  // Checked after every cancel and every live pop, the two steps that can
  // raise the cancelled share; a cancelled pop cannot. Pop order does not
  // change: (time, seq) is a strict total order, so every valid heap over
  // the same live entries pops the same sequence.
  if (cancelled_in_heap_ < kPurgeMinCancelled ||
      2 * cancelled_in_heap_ < queue_.size()) {
    return;
  }
  const std::size_t removed = queue_.remove_if(
      [](const QueueEntry& e) { return e.timer && e.timer->cancelled; });
  NLC_CHECK_MSG(removed == cancelled_in_heap_,
                "heap purge removed a different count than was cancelled");
  cancelled_in_heap_ = 0;
}

void Simulation::pop_heap(QueueEntry& out) {
  out = queue_.pop_top();
  if (out.timer) {
    out.timer->in_heap = false;
    if (out.timer->cancelled) {
      --cancelled_in_heap_;
      return;
    }
  }
  if (cancelled_in_heap_ >= kPurgeMinCancelled) purge_if_half_cancelled();
}

bool Simulation::pop_next(QueueEntry& out, Time limit) {
  if (now_head_ < now_queue_.size()) {
    // Heap entries at the current time (scheduled before now_ got here)
    // predate everything in the same-time lane, so they go first.
    if (!queue_.empty() && queue_.top().time == now_) {
      pop_heap(out);
      return true;
    }
    out = std::move(now_queue_[now_head_++]);
    if (now_head_ == now_queue_.size()) {
      now_queue_.clear();
      now_head_ = 0;
    }
    return true;
  }
  if (queue_.empty() || queue_.top().time > limit) return false;
  pop_heap(out);
  return true;
}

bool Simulation::step() {
  QueueEntry entry;
  while (pop_next(entry, std::numeric_limits<Time>::max())) {
    NLC_CHECK(entry.time >= now_);
    now_ = entry.time;
    if (dispatch(entry)) return true;
    // cancelled / dead-domain entries are skipped without counting
  }
  return false;
}

void Simulation::run() {
  stop_requested_ = false;
  rethrow_if_failed();
  while (!stop_requested_ && step()) {
  }
  rethrow_if_failed();
}

void Simulation::run_until(Time deadline) {
  NLC_CHECK(deadline >= now_);
  stop_requested_ = false;
  rethrow_if_failed();
  QueueEntry entry;
  while (!stop_requested_ && pop_next(entry, deadline)) {
    now_ = entry.time;
    dispatch(entry);
    entry = QueueEntry{};  // drop refs before the next pop
  }
  rethrow_if_failed();
  if (now_ < deadline) now_ = deadline;
}

void Simulation::shutdown() {
  if (tearing_down_) return;
  tearing_down_ = true;
  // Destroy suspended root frames. Destruction recursively destroys child
  // task frames and runs awaiter destructors, which deregister from sync
  // primitives (all still alive at this point by the documented ownership
  // convention: Simulation members are declared before the components its
  // coroutines reference, or shutdown() is called explicitly first).
  // Registration order: deterministic, unlike the frame addresses.
  auto roots = std::move(live_roots_);
  live_roots_.clear();
  root_index_.clear();
  for (void* addr : roots) {
    std::coroutine_handle<>::from_address(addr).destroy();
  }
}

}  // namespace nlc::sim
