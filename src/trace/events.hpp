// Protocol event model (DESIGN.md §11).
//
// One fixed-size binary record per event, dual-stamped:
//   * sim_ns  — simulated time (nlc::Time), the deterministic domain every
//     protocol decision lives in;
//   * wall_ns — wall clock via util::wall_now_ns(), the only place real time
//     appears, used to see where the host actually spent cycles.
// Events never feed back into simulated behaviour: they are emitted once per
// protocol point on a trace::Stream (stream.hpp), whose subscribers — the
// flight recorder and the src/check auditors — only observe.
#pragma once

#include <cstdint>

#include "util/time.hpp"

namespace nlc::trace {

/// What kind of record this is (maps 1:1 onto Chrome trace-event phases).
enum class EventType : std::uint8_t {
  kSpanBegin,  // "B" — a pipeline stage starts (kPause, kRecv, ...)
  kSpanEnd,    // "E" — the matching stage ends
  kInstant,    // "i" — a point event (ack received, heartbeat miss, ...)
  kCounter,    // "C" — a sampled value (dirty pages, buffered writes, ...)
};

/// Logical timeline the event belongs to. Exported as one Perfetto thread
/// per track so the epoch pipeline reads like the paper's Fig. 2: the two
/// agents on top, shipping / network / disk / detector lanes below.
enum class Track : std::uint8_t {
  kPrimary,      // PrimaryAgent epoch loop (pause, harvest, encode, resume)
  kPrimaryShip,  // staged state shipping — overlaps the next execute phase
  kBackup,       // BackupAgent (recv, fold, commit, materialize, restore)
  kNetPrimary,   // primary-side net: plug/ingress/marker release, retransmit
  kNetBackup,    // backup-side net: gratuitous ARP, post-failover retransmit
  kDrbd,         // backup DRBD: buffered writes, barriers, commits
  kDetector,     // failure detection: heartbeat misses, recovery trigger
  kCount,
};

/// Stage / event name. Span begin+end carry the same stage; instants and
/// counters use it as the event name.
enum class Stage : std::uint16_t {
  // PrimaryAgent epoch pipeline
  kPause,        // span: container frozen (freeze .. thaw)
  kHarvest,      // span: dirty-page harvest (simulated cost)
  kEncode,       // span: delta encode (wall cost; sim cost rides ship)
  kShip,         // span: state transfer on the replication wire
  kResume,       // instant: container thawed, execute phase begins
  kRelease,      // instant: epoch output released to the outside world
  kAckRecv,      // instant: backup ack arrived at the primary
  kBarrierSent,  // instant: DRBD epoch barrier issued by the primary
  // BackupAgent pipeline
  kRecv,         // span: receive + ingest of the epoch state message
  kBarrierWait,  // span: waiting for the DRBD barrier to arrive
  kAckSent,      // instant: ack sent back to the primary
  kFold,         // span: radix/list store fold of received pages (wall cost)
  kCommit,       // span: epoch commit (store fold applied + commit cost)
  kMaterialize,  // span: restore image materialization during failover
  kRestore,      // span: full failover restore (detection .. takeover)
  // net
  kPlugEngage,     // instant: sch_plug engaged on container egress
  kIngressBlock,   // instant: ingress filter set to buffer/drop
  kIngressUnblock, // instant: ingress filter passing again
  kPlugRelease,    // instant: buffered output released (arg = packets)
  kUnplug,         // instant: primary fail-stop (domain kill)
  kGratuitousArp,  // instant: backup announces the service address
  kRetransmit,     // instant: repaired-socket retransmission (arg = socket)
  kSocketRepair,   // instant: TCP connection restored in repair mode
  // blockdev
  kDrbdBuffer,   // instant: writes buffered into the open epoch (arg = n)
  kDrbdBarrier,  // instant: epoch barrier arrived at the backup disk
  kDrbdCommit,   // instant: epoch's buffered writes applied (arg = epoch)
  kDrbdDiscard,  // instant: uncommitted epochs discarded at failover
  // failure detection
  kHeartbeatMiss,  // instant: missed heartbeat (arg = consecutive misses)
  kRecoveryStart,  // instant: miss threshold hit, recovery begins
  // counters
  kDirtyPages,         // counter: pages harvested this epoch
  kWireBytes,          // counter: bytes shipped this epoch
  kDrbdBufferedWrites, // counter: writes buffered and not yet committed
  // replay commit mode (DESIGN.md §14); appended so older stage ids stay
  // stable for the golden trace fixtures
  kLogShip,     // span: event-log segment flush + ship (arg = seq)
  kLogAckRecv,  // instant: log-segment ack arrived at the primary (arg = seq)
  kLogRelease,  // instant: segment output released on log ack (arg = seq)
  kLogRecv,     // span: backup receive + chain validation (arg = seq)
  kLogAckSent,  // instant: segment ack sent to the primary (arg = seq)
  kLogReject,   // instant: segment failed chain validation (arg = seq)
  kReplay,      // span: failover deterministic replay (arg = epoch)
  kLogBytes,    // counter: event-log wire bytes per shipped segment
  // N-way quorum replication (DESIGN.md §16); appended for id stability.
  // Emitted only when replicas > 1, so two-node traces stay byte-identical.
  kReplicaAck,  // instant: one replica's epoch ack arrived (arg = epoch)
  kPromote,     // instant: arbiter elected a failover winner (arg = index)
  kResilver,    // span: full-state catch-up to a survivor (arg = index)
  // Auditor-only points (see auditor_only()): they reach the live checkers
  // with their payload by reference and are never recorded.
  kStateReady,      // epoch state harvested, not yet shipped (arg = epoch)
  kMarkerInserted,  // agent's output-commit marker (arg = epoch)
  kCommitDone,      // backup fold finished, pages still attached (arg = epoch)
  kLogIngest,       // backup validated a log segment (arg = seq)
  kReplayed,        // failover replay finished (arg = entries replayed)
  kResilverAdopted, // survivor adopted the winner's state (arg = epoch)
  kReplicaLogAck,   // one replica's log-segment ack arrived (arg = seq)
  kPlugEnqueue,     // a packet entered the engaged egress plug
  kPlugMarker,      // the plug appended a marker (arg = marker)
  kPlugDiscard,     // the plug dropped its buffer (arg = packets)
  kCount,
};

/// Stages only the in-process subscribers see; the recorder skips them, so
/// the recorded stream is the same with or without an auditor attached.
inline bool auditor_only(Stage s) {
  switch (s) {
    case Stage::kStateReady:
    case Stage::kMarkerInserted:
    case Stage::kCommitDone:
    case Stage::kLogIngest:
    case Stage::kReplayed:
    case Stage::kResilverAdopted:
    case Stage::kReplicaLogAck:
    case Stage::kPlugEnqueue:
    case Stage::kPlugMarker:
    case Stage::kPlugDiscard:
      return true;
    default:
      return false;
  }
}

/// Fixed-size binary event record. 40 bytes; appended to the recorder's
/// log by the one thread that runs the trial.
struct Event {
  std::uint64_t seq;      // emission order: the index in the recorder's log
  Time sim_ns;            // simulated timestamp
  std::uint64_t wall_ns;  // util::wall_now_ns() at record time
  std::uint64_t arg;      // stage-specific payload (epoch, count, value, ...)
  EventType type;
  Track track;
  Stage stage;
};

inline const char* track_name(Track t) {
  switch (t) {
    case Track::kPrimary: return "primary-agent";
    case Track::kPrimaryShip: return "primary-ship";
    case Track::kBackup: return "backup-agent";
    case Track::kNetPrimary: return "net-primary";
    case Track::kNetBackup: return "net-backup";
    case Track::kDrbd: return "drbd-backup";
    case Track::kDetector: return "failure-detector";
    case Track::kCount: break;
  }
  return "?";
}

inline const char* stage_name(Stage s) {
  switch (s) {
    case Stage::kPause: return "pause";
    case Stage::kHarvest: return "harvest";
    case Stage::kEncode: return "encode";
    case Stage::kShip: return "ship";
    case Stage::kResume: return "resume";
    case Stage::kRelease: return "release";
    case Stage::kAckRecv: return "ack-recv";
    case Stage::kBarrierSent: return "barrier-sent";
    case Stage::kRecv: return "recv";
    case Stage::kBarrierWait: return "barrier-wait";
    case Stage::kAckSent: return "ack-sent";
    case Stage::kFold: return "fold";
    case Stage::kCommit: return "commit";
    case Stage::kMaterialize: return "materialize";
    case Stage::kRestore: return "restore";
    case Stage::kPlugEngage: return "plug-engage";
    case Stage::kIngressBlock: return "ingress-block";
    case Stage::kIngressUnblock: return "ingress-unblock";
    case Stage::kPlugRelease: return "plug-release";
    case Stage::kUnplug: return "unplug";
    case Stage::kGratuitousArp: return "gratuitous-arp";
    case Stage::kRetransmit: return "retransmit";
    case Stage::kSocketRepair: return "socket-repair";
    case Stage::kDrbdBuffer: return "drbd-buffer";
    case Stage::kDrbdBarrier: return "drbd-barrier";
    case Stage::kDrbdCommit: return "drbd-commit";
    case Stage::kDrbdDiscard: return "drbd-discard";
    case Stage::kHeartbeatMiss: return "heartbeat-miss";
    case Stage::kRecoveryStart: return "recovery-start";
    case Stage::kDirtyPages: return "dirty-pages";
    case Stage::kWireBytes: return "wire-bytes";
    case Stage::kDrbdBufferedWrites: return "drbd-buffered-writes";
    case Stage::kLogShip: return "log-ship";
    case Stage::kLogAckRecv: return "log-ack-recv";
    case Stage::kLogRelease: return "log-release";
    case Stage::kLogRecv: return "log-recv";
    case Stage::kLogAckSent: return "log-ack-sent";
    case Stage::kLogReject: return "log-reject";
    case Stage::kReplay: return "replay";
    case Stage::kLogBytes: return "log-bytes";
    case Stage::kReplicaAck: return "replica-ack";
    case Stage::kPromote: return "promote";
    case Stage::kResilver: return "resilver";
    case Stage::kStateReady: return "state-ready";
    case Stage::kMarkerInserted: return "marker-inserted";
    case Stage::kCommitDone: return "commit-done";
    case Stage::kLogIngest: return "log-ingest";
    case Stage::kReplayed: return "replayed";
    case Stage::kResilverAdopted: return "resilver-adopted";
    case Stage::kReplicaLogAck: return "replica-log-ack";
    case Stage::kPlugEnqueue: return "plug-enqueue";
    case Stage::kPlugMarker: return "plug-marker";
    case Stage::kPlugDiscard: return "plug-discard";
    case Stage::kCount: break;
  }
  return "?";
}

}  // namespace nlc::trace
