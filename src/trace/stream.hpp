// One protocol event stream (DESIGN.md §11).
//
// Every observed component — the agents, the promotion arbiter, the backup
// DRBD, the TCP stacks and their egress plugs — holds one trace::Observer.
// It is null until the Cluster attaches a Stream, so a protocol point costs
// one predictable branch when nothing watches. Each point is emitted once,
// to the Stream's fixed subscriber list:
//
//   * the flight recorder (trace::Recorder), whose log keeps a 40-byte
//     record of every emission except the auditor-only stages;
//   * one check::ReplicaAudit per backup replica, on the stream that
//     replica emits on, and the invariant auditor (check::InvariantAuditor)
//     on the main stream (primary, arbiter and replica 0).
//
// An emission is the Event the recorder keeps plus a Detail only in-process
// subscribers see. Per stage, the Detail carries:
//
//   kStateReady      state = the epoch message, aux = 1 for the initial sync
//   kMarkerInserted  aux = plug marker
//   kLogShip (begin) segment = the shipped segment, aux = plug marker
//   kReplicaAck      aux = replica index; ring = replicas > 1
//   kReplicaLogAck   aux = replica index
//   kAckSent         aux = newest DRBD barrier at the backup
//   kCommitDone      state = the folded message, pages still attached
//   kLogIngest       segment = the validated segment, aux = 1 if accepted
//   kReplayed        aux = final chain fingerprint
//   kPromote         candidates = the election's candidate set
//   kPlugRelease     aux = released marker
//
// The payloads are references into the protocol's own objects, valid only
// for the duration of the call; no subscriber may keep them.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "trace/events.hpp"
#include "util/time.hpp"

namespace nlc::core {
struct EpochStateMsg;
struct LogSegmentMsg;
struct PromotionCandidate;
}  // namespace nlc::core

namespace nlc::trace {

/// The in-process part of one emission; never recorded.
struct Detail {
  std::uint64_t aux = 0;
  const core::EpochStateMsg* state = nullptr;
  const core::LogSegmentMsg* segment = nullptr;
  const std::vector<core::PromotionCandidate>* candidates = nullptr;
  /// False keeps a recordable stage out of the recorder for this one
  /// emission.
  bool ring = true;
};

/// Whether the recorder keeps this emission.
inline bool ring_keeps(const Event& e, const Detail& d) {
  return d.ring && !auditor_only(e.stage);
}

class Subscriber {
 public:
  Subscriber() = default;
  // A Stream holds the subscriber's address.
  Subscriber(const Subscriber&) = delete;
  Subscriber& operator=(const Subscriber&) = delete;
  virtual ~Subscriber() = default;

  virtual void on_event(const Event& e, const Detail& d) = 0;
};

/// The fixed subscriber list one group of components emits to.
/// Subscribers join before the run starts (Cluster::on_agents_created);
/// they are called in subscription order.
class Stream {
 public:
  void subscribe(Subscriber* s) { subs_.push_back(s); }
  void unsubscribe(Subscriber* s) {
    subs_.erase(std::remove(subs_.begin(), subs_.end(), s), subs_.end());
  }
  bool empty() const { return subs_.empty(); }

  void emit(const Event& e, const Detail& d) const {
    for (Subscriber* s : subs_) s->on_event(e, d);
  }

 private:
  std::vector<Subscriber*> subs_;
};

/// A component's observer pointer. The simulated timestamp is passed in by
/// the call site; seq and the wall stamp are the recorder's to assign.
class Observer {
 public:
  void attach(Stream* s) { stream_ = s; }
  Stream* stream() const { return stream_; }
  explicit operator bool() const { return stream_ != nullptr; }

  void span_begin(Track t, Stage s, Time now, std::uint64_t arg = 0,
                  const Detail& d = {}) const {
    emit(EventType::kSpanBegin, t, s, now, arg, d);
  }
  void span_end(Track t, Stage s, Time now, std::uint64_t arg = 0,
                const Detail& d = {}) const {
    emit(EventType::kSpanEnd, t, s, now, arg, d);
  }
  void instant(Track t, Stage s, Time now, std::uint64_t arg = 0,
               const Detail& d = {}) const {
    emit(EventType::kInstant, t, s, now, arg, d);
  }
  void counter(Track t, Stage s, Time now, std::uint64_t value) const {
    emit(EventType::kCounter, t, s, now, value, {});
  }

 private:
  void emit(EventType type, Track t, Stage s, Time now, std::uint64_t arg,
            const Detail& d) const {
    if (stream_ != nullptr) stream_->emit(Event{0, now, 0, arg, type, t, s}, d);
  }

  Stream* stream_ = nullptr;
};

}  // namespace nlc::trace
