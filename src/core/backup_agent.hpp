// The NiLiCon backup agent (§III, §IV): receives epoch state, buffers it,
// acknowledges, commits — and on primary failure, materializes images and
// restores the container.
//
// Unlike Remus, the backup never runs a warm container: applying in-kernel
// state requires too many syscalls per epoch. Instead the committed state
// lives in buffers (page store, latest record image, accumulated fs-cache
// delta, DRBD write buffer) and is applied only at failover.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>

#include "blockdev/drbd.hpp"
#include "core/event_log.hpp"
#include "core/metrics.hpp"
#include "core/options.hpp"
#include "core/protocol.hpp"
#include "core/replay.hpp"
#include "criu/pagestore.hpp"
#include "criu/restore.hpp"
#include "kernel/kernel.hpp"
#include "net/tcp.hpp"
#include "sim/sync.hpp"
#include "trace/stream.hpp"

namespace nlc::core {

class PromotionArbiter;

/// Passed to the application-level failover hook after restore: the app
/// framework re-attaches its service loops to the restored kernel objects
/// (the simulation analogue of the restored processes resuming execution).
struct FailoverContext {
  kern::Kernel* kernel;
  net::TcpStack* tcp;
  kern::ContainerId container;
  std::uint64_t committed_epoch;
};

class BackupAgent {
 public:
  BackupAgent(Options opts, kern::Kernel& kernel, net::TcpStack& tcp,
              blk::DrbdBackup& drbd, StateChannel& state_in,
              AckChannel& ack_out, HeartbeatChannel& hb_in,
              LogChannel& log_in, LogAckChannel& log_ack_out,
              ReplicationMetrics& metrics);

  /// Spawns the state receiver, the DRBD receiver, and the heartbeat
  /// watchdog under the backup host's domain.
  void start();

  /// Application-level post-restore hook.
  void set_on_restored(std::function<void(const FailoverContext&)> fn) {
    on_restored_ = std::move(fn);
  }

  /// Disables the watchdog (used while tearing an experiment down).
  void disarm();

  /// Forces recovery now (tests / manual failover).
  void trigger_recovery();

  // ---- N-way replication (DESIGN.md §16) ----------------------------------
  /// This replica's index in the cluster (0 = the paper's single backup).
  void set_replica_index(int i) { replica_index_ = i; }
  int replica_index() const { return replica_index_; }
  /// Chain topology: store-and-forward received state / log segments to
  /// the next replica down the chain.
  void set_downstream(StateChannel* state, LogChannel* log) {
    downstream_state_ = state;
    downstream_log_ = log;
  }
  /// With an arbiter installed (N > 1), the watchdog reports the primary's
  /// death there instead of recovering unilaterally; the arbiter elects
  /// the most caught-up replica and calls promote() on the winner.
  void set_arbiter(PromotionArbiter* a) { arbiter_ = a; }
  /// Arbiter entry point: run the failover restore on this replica.
  void promote();
  /// Last epoch this replica acknowledged (its catch-up cursor — the
  /// election key; ahead of committed_epoch() while a commit is in
  /// flight). Empty until the first ack.
  std::optional<std::uint64_t> acked_epoch() const { return acked_epoch_; }
  std::uint64_t committed_nd_entries() const { return committed_nd_entries_; }
  /// Re-silvering (DESIGN.md §16): replace this survivor's committed
  /// stores with copies of the promoted winner's. The page store is
  /// installed as one PageStore::clone() of the winner's, records sharing
  /// their payload handles, instead of re-storing every page; the audit
  /// checks the copy record for record at kResilverAdopted. The transfer
  /// itself is metered by the arbiter on the replication link.
  void adopt_resilver(const BackupAgent& src);
  /// Arbiter bookkeeping recorded into this (winner) replica's recovery
  /// metrics.
  void note_promoted(int winner_index) {
    recovery_.promoted_replica = winner_index;
  }
  void record_resilver(std::uint64_t bytes, Time elapsed) {
    recovery_.resilver_bytes += bytes;
    ++recovery_.replicas_resilvered;
    recovery_.resilver_time += elapsed;
  }

  /// Attaches (or clears) the protocol event stream. Observer only:
  /// emitting changes no simulated observable.
  void set_stream(trace::Stream* s) { obs_.attach(s); }

  std::uint64_t committed_epoch() const { return committed_epoch_; }
  /// Execute-phase length stamped on the newest committed checkpoint —
  /// the primary's adapted cadence as seen from this end of the wire.
  Time last_primary_epoch_len() const { return last_primary_epoch_len_; }
  bool recovered() const { return recovered_; }
  const RecoveryMetrics& recovery_metrics() const { return recovery_; }
  const criu::PageStore& page_store() const { return *pages_; }

 private:
  sim::task<> state_loop();
  sim::task<> log_loop();
  sim::task<> watchdog();
  sim::task<> recover();
  criu::CheckpointImage take_restore_image();

  Options opts_;
  kern::Kernel* kernel_;
  net::TcpStack* tcp_;
  blk::DrbdBackup* drbd_;
  StateChannel* state_in_;
  AckChannel* ack_out_;
  HeartbeatChannel* hb_in_;
  LogChannel* log_in_;
  LogAckChannel* log_ack_out_;
  ReplicationMetrics* metrics_;
  trace::Observer obs_;
  std::function<void(const FailoverContext&)> on_restored_;

  // ---- N-way replication (DESIGN.md §16) ----------------------------------
  int replica_index_ = 0;
  StateChannel* downstream_state_ = nullptr;
  LogChannel* downstream_log_ = nullptr;
  PromotionArbiter* arbiter_ = nullptr;
  std::optional<std::uint64_t> acked_epoch_;

  std::unique_ptr<criu::PageStore> pages_;
  std::optional<criu::CheckpointImage> committed_image_;  // latest records
  std::map<std::pair<kern::InodeNum, std::uint64_t>, kern::DncPageEntry>
      committed_fs_pages_;
  std::map<kern::InodeNum, kern::InodeAttr> committed_fs_inodes_;
  std::uint64_t committed_epoch_ = 0;

  Time last_heartbeat_ = 0;
  std::uint64_t heartbeats_seen_ = 0;
  bool armed_ = false;
  bool recovered_ = false;
  bool commit_in_progress_ = false;
  /// Set at the instant recovery starts. A commit already in progress is
  /// waited out (its state fully arrived — it belongs in the restored
  /// image), but no NEW commit may begin: the restore's modeled sleeps
  /// span real simulated time, and a checkpoint draining from the state
  /// channel during them would advance committed_nd_entries_ / prune the
  /// log / fold pages underneath a restore already built from the older
  /// image — the replay filter would then skip inputs the restored TCP
  /// state has never seen, leaving a receive-stream gap at re-injection.
  /// Uncommitted in-flight state dies with the primary (§IV).
  bool recovering_ = false;
  std::unique_ptr<sim::Event> commit_idle_;
  RecoveryMetrics recovery_;
  criu::BackupCosts backup_costs_;

  // ---- Replay commit mode (DESIGN.md §14) ---------------------------------
  replay::ReplayEngine replay_;
  LogCostModel log_costs_;
  /// Event-log stamp of the newest committed checkpoint: the point replay
  /// starts from at failover.
  std::uint64_t committed_nd_entries_ = 0;
  std::uint64_t committed_nd_fp_ = kNdChainSeed;
  Time last_primary_epoch_len_ = 0;
};

}  // namespace nlc::core
