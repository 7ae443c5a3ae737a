#include "sim/simulation.hpp"

#include <limits>
#include <utility>

namespace nlc::sim {

namespace {
// Typical experiments keep hundreds of in-flight wakeups; reserving up
// front keeps the hot loop free of heap growth until a workload genuinely
// exceeds it.
constexpr std::size_t kInitialQueueCapacity = 1024;
}  // namespace

Simulation::Simulation() {
  queue_.reserve(kInitialQueueCapacity);
  now_queue_.reserve(kInitialQueueCapacity);
}

Simulation::~Simulation() { shutdown(); }

TimerHandle Simulation::call_at(Time t, DomainPtr domain,
                                std::function<void()> fn) {
  NLC_CHECK_MSG(t >= now_, "cannot schedule an event in the past");
  ++timers_scheduled_;
  auto state = std::make_shared<TimerHandle::State>();
  state->fn = std::move(fn);
  state->domain = std::move(domain);
  TimerHandle handle{std::weak_ptr<TimerHandle::State>(state)};
  enqueue(QueueEntry{t, next_seq_++, {}, std::move(state)});
  return handle;
}

TimerHandle Simulation::call_after(Time delay, DomainPtr domain,
                                   std::function<void()> fn) {
  NLC_CHECK_MSG(delay >= 0, "negative delay");
  return call_at(now_ + delay, std::move(domain), std::move(fn));
}

void Simulation::schedule_resume(Time t, DomainPtr domain,
                                 std::coroutine_handle<> h) {
  // Dedicated resume entry: no TimerHandle::State allocation and no
  // type-erased std::function — resumes dominate the event mix (sleep_for
  // + every sync-primitive wakeup), so this is the engine's hot path.
  NLC_CHECK_MSG(t >= now_, "cannot schedule a resume in the past");
  enqueue(QueueEntry{t, next_seq_++, h, std::move(domain)});
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

void Simulation::spawn(DomainPtr domain, task<> t) {
  NLC_CHECK_MSG(t.valid(), "spawning an empty task");
  if (domain && !domain->alive()) return;  // code on a dead host never runs
  DomainPtr saved = std::exchange(current_domain_, std::move(domain));
  drive(std::move(t));  // runs eagerly until the first suspension
  current_domain_ = std::move(saved);
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
  if (entry.resume) {
    // Fast path: plain coroutine resume, no cancellation protocol. The
    // domain moves out of the entry, so a live resume costs no refcounts.
    auto* domain = static_cast<Domain*>(entry.ref.get());
    if (domain && !domain->alive()) return false;
    ++events_processed_;
    DomainPtr saved = std::exchange(
        current_domain_,
        std::static_pointer_cast<Domain>(std::move(entry.ref)));
    entry.resume.resume();
    current_domain_ = std::move(saved);
  } else {
    // entry.ref keeps the state alive across fn() even if the callback
    // drops its own TimerHandle.
    auto& state = *static_cast<TimerHandle::State*>(entry.ref.get());
    if (state.cancelled) return false;
    if (state.domain && !state.domain->alive()) return false;
    state.fired = true;
    ++events_processed_;
    DomainPtr saved = std::exchange(current_domain_, state.domain);
    state.fn();
    current_domain_ = std::move(saved);
  }
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

bool Simulation::pop_next(QueueEntry& out, Time limit) {
  if (now_head_ < now_queue_.size()) {
    // Heap entries at the current time (scheduled before now_ got here)
    // predate everything in the same-time lane, so they go first.
    if (!queue_.empty() && queue_.top().time == now_) {
      out = queue_.pop_top();
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
  out = queue_.pop_top();
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
