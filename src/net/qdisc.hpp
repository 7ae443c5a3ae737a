// sch_plug-style queueing disciplines (paper §II-A, §IV, §V-C).
//
// PlugQdisc — egress output commit. While engaged, every outgoing packet
// of the protected container is buffered. At each epoch boundary the agent
// inserts a marker; when the backup acknowledges the epoch's state, the
// agent releases every packet buffered before that marker. Packets after
// the marker stay held: they belong to the next, uncommitted epoch.
//
// IngressFilter — input blocking during the pause. Three modes:
//   kPass   — normal operation;
//   kBuffer — NiLiCon's optimization (§V-C): hold packets, release on
//             unblock (43 us extra delay instead of drops);
//   kDrop   — stock CRIU behaviour via firewall rules: silently drop,
//             forcing TCP retransmission (up to 3 s for connection setup).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <utility>

#include "net/types.hpp"
#include "sim/simulation.hpp"
#include "trace/stream.hpp"
#include "util/assert.hpp"

namespace nlc::net {

class PlugQdisc {
 public:
  /// Takes each packet it sends by value: the plug moves its copy in.
  using TransmitFn = std::function<void(Packet)>;

  /// `clock` stamps the plug's protocol events; it may be null for a plug
  /// that never gets a stream.
  explicit PlugQdisc(TransmitFn transmit,
                     const sim::Simulation* clock = nullptr)
      : transmit_(std::move(transmit)), clock_(clock) {}

  /// When disengaged (stock execution, no replication) packets pass
  /// straight through.
  void engage() { engaged_ = true; }
  bool engaged() const { return engaged_; }

  /// Attaches (or clears) the protocol event stream. The plug reports its
  /// externally visible transitions on `track` — what was buffered, where
  /// the markers sit, what each release transmitted — so the output-commit
  /// mirror (src/check) need not trust the agent's account of them.
  void set_stream(trace::Stream* s, trace::Track track) {
    NLC_CHECK_MSG(s == nullptr || clock_ != nullptr,
                  "a plug with a stream needs a clock");
    obs_.attach(s);
    track_ = track;
  }

  /// Installs (or clears) a callback fired after each packet is buffered
  /// while engaged. Replay commit mode arms its log flusher on this: a
  /// response sitting in the plug is exactly what an event-log ack can
  /// release early (DESIGN.md §14).
  void set_enqueue_hook(std::function<void()> hook) {
    enqueue_hook_ = std::move(hook);
  }

  void enqueue(Packet p) {
    if (!engaged_) {
      transmit_(std::move(p));
      return;
    }
    pending_bytes_ += p.wire_bytes();
    buffer_.push_back(Entry{std::move(p), false});
    ++buffered_total_;
    emit(trace::Stage::kPlugEnqueue, 0);
    if (enqueue_hook_) enqueue_hook_();
  }

  /// Marks the current epoch boundary; returns a marker id.
  std::uint64_t insert_marker() {
    buffer_.push_back(Entry{{}, true, next_marker_});
    std::uint64_t marker = next_marker_++;
    emit(trace::Stage::kPlugMarker, marker);
    return marker;
  }

  /// Releases (transmits, in order) everything buffered before `marker`.
  /// Markers must be released in order.
  void release_to_marker(std::uint64_t marker) {
    std::uint64_t released = 0;
    while (!buffer_.empty()) {
      Entry e = std::move(buffer_.front());
      buffer_.pop_front();
      if (e.is_marker) {
        NLC_CHECK_MSG(e.marker_id <= marker, "marker released out of order");
        if (e.marker_id == marker) {
          emit(trace::Stage::kPlugRelease, released, marker);
          return;
        }
        continue;
      }
      pending_bytes_ -= e.packet.wire_bytes();
      transmit_(std::move(e.packet));
      ++released_total_;
      ++released;
    }
    NLC_CHECK_MSG(false, "marker not found in plug buffer");
  }

  /// Failover: uncommitted output must never reach the client.
  void discard_all() {
    std::uint64_t dropped = 0;
    for (const Entry& e : buffer_) dropped += e.is_marker ? 0 : 1;
    buffer_.clear();
    pending_bytes_ = 0;
    emit(trace::Stage::kPlugDiscard, dropped);
  }

  std::size_t pending_packets() const {
    std::size_t n = 0;
    for (const auto& e : buffer_) n += e.is_marker ? 0 : 1;
    return n;
  }
  /// Wire bytes currently held (maintained incrementally — the adaptive
  /// segment-cut policy reads this per flush tick, so it must be O(1)).
  std::uint64_t pending_bytes() const { return pending_bytes_; }
  std::uint64_t buffered_total() const { return buffered_total_; }
  std::uint64_t released_total() const { return released_total_; }

 private:
  struct Entry {
    Packet packet;
    bool is_marker = false;
    std::uint64_t marker_id = 0;
  };

  void emit(trace::Stage s, std::uint64_t arg, std::uint64_t marker = 0) {
    if (obs_) obs_.instant(track_, s, clock_->now(), arg, {.aux = marker});
  }

  TransmitFn transmit_;
  const sim::Simulation* clock_;
  trace::Observer obs_;
  trace::Track track_ = trace::Track::kNetPrimary;
  bool engaged_ = false;
  std::function<void()> enqueue_hook_;
  std::deque<Entry> buffer_;
  std::uint64_t next_marker_ = 1;
  std::uint64_t buffered_total_ = 0;
  std::uint64_t released_total_ = 0;
  std::uint64_t pending_bytes_ = 0;
};

class IngressFilter {
 public:
  enum class Mode : std::uint8_t { kPass, kBuffer, kDrop };

  using DeliverFn = std::function<void(const Packet&)>;

  explicit IngressFilter(DeliverFn deliver) : deliver_(std::move(deliver)) {}

  Mode mode() const { return mode_; }

  void set_mode(Mode m) {
    Mode prev = mode_;
    mode_ = m;
    if (prev == Mode::kBuffer && m == Mode::kPass) flush();
  }

  void input(const Packet& p) {
    switch (mode_) {
      case Mode::kPass:
        deliver_(p);
        return;
      case Mode::kBuffer:
        held_.push_back(p);
        return;
      case Mode::kDrop:
        ++dropped_total_;
        return;
    }
  }

  std::size_t held_packets() const { return held_.size(); }
  std::uint64_t dropped_total() const { return dropped_total_; }

 private:
  void flush() {
    // Deliver in arrival order; delivery may re-enter input() only in
    // kPass mode, which appends nothing to held_.
    std::deque<Packet> batch;
    batch.swap(held_);
    for (const auto& p : batch) deliver_(p);
  }

  DeliverFn deliver_;
  Mode mode_ = Mode::kPass;
  std::deque<Packet> held_;
  std::uint64_t dropped_total_ = 0;
};

}  // namespace nlc::net
