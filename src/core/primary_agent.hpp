// The NiLiCon primary agent (§IV): drives the epoch cycle on the protected
// container.
//
// Per epoch: let the container execute for epoch_length; freeze it; block
// network input; send the DRBD barrier; harvest the incremental checkpoint
// (CRIU engine + state cache); optionally ship it synchronously (no staging
// buffer) or stage it and ship after resume; unblock input, insert the
// output-commit marker, thaw. Buffered output of epoch k is released when
// the backup acknowledges epoch k's state (K-of-N with replicas: a
// CommitGate releases each epoch and log segment at its K-th ack).
#pragma once

#include <array>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "blockdev/drbd.hpp"
#include "core/commit_gate.hpp"
#include "core/epoch_controller.hpp"
#include "core/event_log.hpp"
#include "core/metrics.hpp"
#include "core/options.hpp"
#include "core/protocol.hpp"
#include "core/state_cache.hpp"
#include "criu/checkpoint.hpp"
#include "criu/delta.hpp"
#include "kernel/kernel.hpp"
#include "net/tcp.hpp"
#include "sim/sync.hpp"
#include "trace/stream.hpp"
#include "util/rng.hpp"

namespace nlc::core {

class PrimaryAgent {
 public:
  PrimaryAgent(Options opts, kern::Kernel& kernel, net::TcpStack& tcp,
               kern::ContainerId cid, blk::DrbdPrimary& drbd,
               ReplicationMetrics& metrics);
  /// Clears the callbacks installed into the plug and the container
  /// (both outlive the agent in the Cluster).
  ~PrimaryAgent();

  /// Registers one backup replica (index = registration order). `direct`
  /// = fed straight from this agent (star: every replica; chain: only the
  /// head — downstream replicas get their state forwarded by their
  /// upstream BackupAgent but still ack directly here). Every replica
  /// registers before start().
  void add_replica(StateChannel& state_out, AckChannel& ack_in,
                   HeartbeatChannel& hb_out, LogChannel& log_out,
                   LogAckChannel& log_ack_in, bool direct);

  /// Spawns the epoch loop, ack receiver and heartbeat sender under the
  /// primary host's domain. Returns once the initial full synchronization
  /// has been acknowledged by the backup (the container is protected from
  /// that point on).
  sim::task<> start();

  /// Stops taking checkpoints (end of measurement interval).
  void stop() { running_ = false; }

  /// Attaches (or clears) the protocol event stream. Observer only:
  /// emitting changes no simulated observable.
  void set_stream(trace::Stream* s) { obs_.attach(s); }

  std::uint64_t current_epoch() const { return epoch_; }
  /// The quorum cursor: the newest epoch K replicas acked (empty until
  /// the initial synchronization's ack).
  std::optional<std::uint64_t> acked_epoch() const {
    return epoch_gate_.quorum();
  }
  /// Replay mode: log segments cut but not yet released by a K-of-N ack.
  std::size_t log_segments_in_flight() const { return seg_recs_.size(); }

 private:
  sim::task<> epoch_loop();
  sim::task<> ack_loop(std::size_t replica);
  sim::task<> heartbeat_loop();
  sim::task<> log_flush_loop();
  sim::task<> log_ack_loop(std::size_t replica);
  bool replay_mode() const { return opts_.commit_mode == CommitMode::kReplay; }
  sim::task<> checkpoint_once(bool initial);
  /// `precopy` is the COW copy-out deferred from the stop window (replay
  /// mode): charged before the send, since the delta cannot serialize
  /// until the protected snapshot has been copied out.
  sim::task<> ship_state(EpochStateMsg msg, bool staged, Time precopy = 0);
  sim::task<> wait_acked(std::uint64_t epoch);
  Time send_side_cost(const EpochStateMsg& msg, bool staged) const;
  net::IpAddr service_ip() const;
  /// Egress plug of the service address, resolved once at start() — the
  /// plug map lookup is off the per-epoch hot path (marker insert, release,
  /// ack) after that.
  net::PlugQdisc& plug();

  Options opts_;
  kern::Kernel* kernel_;
  net::TcpStack* tcp_;
  kern::ContainerId cid_;
  blk::DrbdPrimary* drbd_;
  ReplicationMetrics* metrics_;
  trace::Observer obs_;

  // ---- N-way replication (DESIGN.md §16) ----------------------------------
  /// One entry per backup replica, in add_replica() order; replica 0 is
  /// the paper's single backup.
  struct Replica {
    StateChannel* state_out;
    AckChannel* ack_in;
    HeartbeatChannel* hb_out;
    LogChannel* log_out;
    LogAckChannel* log_ack_in;
    bool direct = true;
  };
  std::vector<Replica> replicas_;
  /// Replicas fed straight from this agent, counted once at start().
  int ndirect_ = 0;
  bool started_ = false;
  /// K-of-N release over the per-replica ack cursors: epochs, and log
  /// segments in replay mode. Sized at start(), once the replica set is
  /// final; at N = 1 every ack of the lone backup is a quorum advance.
  CommitGate epoch_gate_{1, 1};
  CommitGate seg_gate_{1, 1};
  /// Applies replica `r`'s ack and releases every epoch the quorum advance
  /// covers. The whole body runs in one scheduler step (no co_await).
  void apply_replica_ack(std::size_t r, std::uint64_t epoch);
  /// Sends `msg` to every directly-fed replica in replica order (star
  /// fan-out; chain replicas get it forwarded by their upstream
  /// BackupAgent): a copy to each but the last, which takes `msg` itself.
  template <typename Msg, typename Chan>
  void send_direct(Msg msg, std::uint64_t bytes, Chan* Replica::*out);

  criu::CheckpointEngine ckpt_;
  InfrequentStateCache cache_;
  criu::DeltaCodec delta_;  // scans at NLC_SIMD's tier
  Rng rng_;
  net::PlugQdisc* plug_ = nullptr;  // cached by plug()

  bool running_ = true;
  std::uint64_t epoch_ = 0;
  /// Set at every epoch quorum advance; wait_acked() parks on it.
  std::unique_ptr<sim::Event> ack_event_;
  /// Per-epoch record (plug marker, stop-begin time); marker released on
  /// ack. The epoch pipeline bounds the un-acked window at 2 (epoch_loop
  /// waits for epoch-2's ack before checkpointing), so the live set is
  /// tiny and bounded: a fixed ring indexed by epoch % kEpochWindow
  /// replaces the former std::map — no node allocation, lookup and erase
  /// are O(1) with no hashing/comparison.
  struct EpochRec {
    std::uint64_t epoch = 0;
    bool live = false;
    bool initial = false;
    std::uint64_t marker = 0;
    bool marker_inserted = false;
    Time stop_begin = 0;
    // Controller feed (DESIGN.md §15), stamped online so adaptation needs
    // no recorder attached.
    Time len_used = 0;    // execute-phase length this epoch ran
    Time epoch_wall = 0;  // previous steady pause begin → this pause begin
    Time pause_end = 0;
    Time harvest_e = 0;
    std::uint64_t nd_entries_delta = 0;
    std::uint64_t log_bytes_delta = 0;
    /// First replica ack's arrival (-1 = none yet); with N > 1 the quorum
    /// wait is the K-th ack minus this.
    Time first_ack_at = -1;
  };
  static constexpr std::size_t kEpochWindow = 8;  // > max in-flight epochs
  EpochRec& emplace_rec(std::uint64_t epoch);
  EpochRec* find_rec(std::uint64_t epoch);
  void erase_rec(std::uint64_t epoch);
  /// Commit point: emit the release, open the plug to the marker, record
  /// commit latency, retire the record. Shared by the synchronous ship
  /// path and the ack_loop.
  void release_epoch(EpochRec& rec);
  /// Builds the EpochObservation from the record's stamps and feeds the
  /// controller at the release point (acks are monotone, so observations
  /// arrive in epoch order).
  void feed_controller(const EpochRec& rec);
  std::array<EpochRec, kEpochWindow> epoch_recs_;

  // ---- Replay commit mode (DESIGN.md §14) ---------------------------------
  /// The container's nondeterminism recorder; installed as its NondetSink
  /// in start() when commit_mode == kReplay.
  EventLog nd_log_;
  LogCostModel log_costs_;

  // ---- Adaptive epoch control (DESIGN.md §15) -----------------------------
  /// Declared after log_costs_: its replay-time estimates use the cost
  /// model. Holds Options::epoch_length under EpochPolicy::kFixed.
  epochctl::EpochController controller_;
  /// Length the epoch_loop chose for the execute phase now running; the
  /// next checkpoint stamps it into its record and EpochStateMsg.
  Time last_execute_len_ = 0;
  /// Pause begin of the previous steady checkpoint (-1 before the first):
  /// the epoch_wall numerator's other end.
  Time last_steady_stop_begin_ = -1;
  /// nd_log_.entries_total() at the previous checkpoint, for the
  /// controller's per-epoch log-entry rate.
  std::uint64_t nd_entries_mark_ = 0;
  /// plug().released_total() at the previous controller feed, for the
  /// per-epoch released-output presence signal.
  std::uint64_t released_mark_ = 0;
  /// Whether the previous epoch release left the plug empty (all
  /// outstanding output committed) — the controller's drain signal.
  bool last_release_drained_ = false;
  /// Container CPU usage at the previous controller feed (capacity gate).
  Time cpu_mark_ = 0;
  /// Wakes the flush loop when buffered output is waiting on a log ship.
  std::unique_ptr<sim::Event> log_flush_event_;
  /// In-flight segments in seq order: the plug marker bounding each one's
  /// output and its cut time. Popped when seg_gate_ makes the segment
  /// quorate, so the deque holds only segments cut but not yet
  /// quorum-acked, whatever happens to the other N - K replicas.
  struct SegRec {
    std::uint64_t seq = 0;
    std::uint64_t marker = 0;
    Time cut_at = 0;
  };
  std::deque<SegRec> seg_recs_;
  /// log_bytes_shipped at the previous checkpoint, for the controller's
  /// per-epoch log-stream growth.
  std::uint64_t log_bytes_at_last_epoch_ = 0;
  /// The single dumper/sender thread's busy horizon: staged ships (and
  /// their deferred COW copy-outs) serialize behind it so EpochStateMsg
  /// arrivals stay in epoch order.
  Time ship_busy_until_ = 0;
};

}  // namespace nlc::core
