#include "kernel/cpu.hpp"

#include "util/assert.hpp"

namespace nlc::kern {

sim::task<> CpuSet::consume(Time t) {
  NLC_CHECK(t >= 0);
  if (t == 0) co_return;
  slices_.emplace_back();
  auto it = std::prev(slices_.end());
  it->remaining = t;
  it->done = std::make_unique<sim::Event>(*sim_);
  if (!frozen_ && running_ < core_limit_) {
    start_slice(it);
  } else {
    it->queued = true;
  }
  co_await it->done->wait();
  slices_.erase(it);
}

void CpuSet::set_core_limit(int cores) {
  NLC_CHECK(cores > 0);
  core_limit_ = cores;
  if (!frozen_) start_queued();
}

void CpuSet::start_slice(SliceIter it) {
  it->running = true;
  it->queued = false;
  it->started = sim_->now();
  ++running_;
  Time remaining = it->remaining;
  // The slice owns its timer handle (cancelled on freeze/teardown) and the
  // domain gate discards post-kill wakeups.
  // NLC_LINT_OK(detached-this): timer handle owned and cancelled
  it->timer = sim_->call_after(remaining, domain_.get(), [this, it] {
    usage_ += it->remaining;
    it->remaining = 0;
    it->running = false;
    --running_;
    it->done->set();
    if (!frozen_) start_queued();
  });
}

void CpuSet::start_queued() {
  for (auto it = slices_.begin();
       it != slices_.end() && running_ < core_limit_; ++it) {
    if (it->queued) start_slice(it);
  }
}

void CpuSet::freeze() {
  if (frozen_) return;
  frozen_ = true;
  for (auto it = slices_.begin(); it != slices_.end(); ++it) {
    if (!it->running) continue;
    it->timer.cancel();
    Time elapsed = sim_->now() - it->started;
    NLC_CHECK(elapsed >= 0 && elapsed <= it->remaining);
    usage_ += elapsed;
    it->remaining -= elapsed;
    it->running = false;
    --running_;
    // A burst that finished exactly at the freeze instant: its completion
    // timer was cancelled above, so complete it here.
    if (it->remaining == 0) {
      it->done->set();
    } else {
      it->queued = true;  // resumes (with core priority) on thaw
    }
  }
}

void CpuSet::unfreeze() {
  if (!frozen_) return;
  frozen_ = false;
  start_queued();
}

}  // namespace nlc::kern
