// Lock-free flight recorder: per-thread single-writer rings of fixed-size
// binary events (DESIGN.md §11).
//
// Concurrency contract:
//   * Each OS thread records into its own ring — exactly one writer per
//     ring, so the hot path is: relaxed seq fetch_add, write the 40-byte
//     slot, release-store of the count. No locks, no CAS loops.
//   * drain() is a non-consuming snapshot from any thread: acquire-load of
//     each ring's count makes every published slot visible. Multiple
//     exporters and the critical-path analyzer can all read the same run.
//   * A full ring drops the *newest* events and counts the drops: a
//     truncated-but-intact prefix beats a half-overwritten timeline, and
//     the ordering oracle (src/check) can trust what it does see.
//
// Cross-thread order: `seq` comes from one relaxed atomic counter, so the
// total order it induces is consistent with each thread's program order —
// enough for the oracle to compare release vs. ack even when both carry the
// same simulated timestamp.
//
// In a run the recorder is one subscriber of the protocol event stream
// (stream.hpp) and keeps every emission but the auditor-only stages. When
// Options::trace_level == kOff no Recorder exists at all, and with no other
// subscriber every protocol point is one null-pointer test — one predictable
// branch, gated at <= 1% by bench_trace_overhead.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "trace/events.hpp"
#include "trace/stream.hpp"
#include "util/time.hpp"

namespace nlc::trace {

class Recorder final : public Subscriber {
 public:
  static constexpr std::size_t kDefaultRingCapacity = std::size_t{1} << 16;

  explicit Recorder(std::size_t ring_capacity = kDefaultRingCapacity);
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  /// The simulated timestamp is passed in by the call site (the recorder
  /// has no Simulation dependency); the wall stamp is taken internally via
  /// util::wall_now_ns().
  void span_begin(Track t, Stage s, Time sim_now, std::uint64_t arg = 0) {
    record(EventType::kSpanBegin, t, s, sim_now, arg);
  }
  void span_end(Track t, Stage s, Time sim_now, std::uint64_t arg = 0) {
    record(EventType::kSpanEnd, t, s, sim_now, arg);
  }
  void instant(Track t, Stage s, Time sim_now, std::uint64_t arg = 0) {
    record(EventType::kInstant, t, s, sim_now, arg);
  }
  void counter(Track t, Stage s, Time sim_now, std::uint64_t value) {
    record(EventType::kCounter, t, s, sim_now, value);
  }

  /// Stream subscription: records the emission unless the rings skip it
  /// (ring_keeps()).
  void on_event(const Event& e, const Detail& d) override {
    if (ring_keeps(e, d)) record(e.type, e.track, e.stage, e.sim_ns, e.arg);
  }

  /// Snapshot of every published event across all rings, sorted by seq.
  /// Non-consuming; safe to call while other threads keep recording (events
  /// published after the snapshot simply aren't in it).
  std::vector<Event> drain() const;

  /// Events successfully recorded / dropped on ring overflow, across all
  /// rings.
  std::uint64_t recorded() const;
  std::uint64_t dropped() const;

  std::size_t ring_capacity() const { return capacity_; }

 private:
  struct Ring {
    explicit Ring(std::size_t cap, int tid) : slots(cap), thread_id(tid) {}
    std::vector<Event> slots;
    std::atomic<std::size_t> count{0};   // release-published by the writer
    std::atomic<std::uint64_t> drops{0};
    int thread_id;  // global small thread id of the owning thread
  };

  void record(EventType type, Track t, Stage s, Time sim_now,
              std::uint64_t arg);
  Ring* ring_for_this_thread();

  const std::size_t capacity_;
  const std::uint64_t id_;  // process-unique, keys the thread-local cache
  std::atomic<std::uint64_t> seq_{0};
  mutable std::mutex mu_;  // guards rings_ growth only (cold path)
  std::vector<std::unique_ptr<Ring>> rings_;
};

}  // namespace nlc::trace
