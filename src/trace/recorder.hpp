// Flight recorder: one bounded log of fixed-size binary events per run
// (DESIGN.md §11).
//
// One writer. A Recorder is created by one Cluster::protect() and
// subscribed to that cluster's main protocol event stream (stream.hpp).
// Every emitter on it — the agents, the arbiter, the backup DRBD, the TCP
// stacks and their plugs, the cluster — runs in the simulation's
// coroutines, on the one thread that runs the trial; no page-pipeline pool
// task emits. Readers drain after the run returns. So the log is a plain
// vector with no synchronization, and emission order is seq order.
//
// The log is reserved to its capacity up front, so recording never
// allocates. A full log drops the *newest* events and counts the drops: a
// truncated-but-intact prefix beats a half-overwritten timeline, and the
// ordering oracle (src/check) can trust what it does see.
//
// The recorder keeps every emission but the auditor-only stages
// (ring_keeps()). When Options::trace_level == kOff no Recorder exists at
// all, and with no other subscriber every protocol point is one
// null-pointer test — one predictable branch, gated at <= 1% by
// bench_trace_overhead.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "trace/events.hpp"
#include "trace/stream.hpp"
#include "util/time.hpp"

namespace nlc::trace {

class Recorder final : public Subscriber {
 public:
  static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 16;

  explicit Recorder(std::size_t capacity = kDefaultCapacity)
      : capacity_(capacity == 0 ? 1 : capacity) {
    events_.reserve(capacity_);
  }

  /// Appends the emission unless ring_keeps() skips it. `seq` is its index
  /// in the log; the wall stamp is taken here via util::wall_now_ns().
  void on_event(const Event& e, const Detail& d) override {
    if (!ring_keeps(e, d)) return;
    if (events_.size() == capacity_) {
      ++dropped_;
      return;
    }
    Event& r = events_.emplace_back(e);
    r.seq = events_.size() - 1;
    r.wall_ns = util::wall_now_ns();
  }

  /// Every recorded event, in emission (= seq) order. Non-consuming.
  const std::vector<Event>& drain() const { return events_; }

  /// Events recorded / dropped because the log was full.
  std::uint64_t recorded() const { return events_.size(); }
  std::uint64_t dropped() const { return dropped_; }

 private:
  std::size_t capacity_;
  std::vector<Event> events_;
  std::uint64_t dropped_ = 0;
};

}  // namespace nlc::trace
