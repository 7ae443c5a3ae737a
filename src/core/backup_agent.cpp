#include "core/backup_agent.hpp"

#include <utility>

#include "core/promotion.hpp"
#include "util/assert.hpp"

namespace nlc::core {

using trace::Stage;
using trace::Track;

BackupAgent::BackupAgent(Options opts, kern::Kernel& kernel,
                         net::TcpStack& tcp, blk::DrbdBackup& drbd,
                         StateChannel& state_in, AckChannel& ack_out,
                         HeartbeatChannel& hb_in, LogChannel& log_in,
                         LogAckChannel& log_ack_out,
                         ReplicationMetrics& metrics)
    : opts_(opts), kernel_(&kernel), tcp_(&tcp), drbd_(&drbd),
      state_in_(&state_in), ack_out_(&ack_out), hb_in_(&hb_in),
      log_in_(&log_in), log_ack_out_(&log_ack_out),
      metrics_(&metrics),
      commit_idle_(std::make_unique<sim::Event>(kernel.simulation())) {
  if (opts_.optimize_criu) {
    pages_ = std::make_unique<criu::RadixPageStore>();
  } else {
    pages_ = std::make_unique<criu::ListPageStore>();
  }
  commit_idle_->set();
}

void BackupAgent::start() {
  sim::Simulation& sim = kernel_->simulation();
  last_heartbeat_ = sim.now();
  armed_ = true;
  sim.spawn(kernel_->domain(), state_loop());
  if (opts_.commit_mode == CommitMode::kReplay) {
    sim.spawn(kernel_->domain(), log_loop());
  }
  sim.spawn(kernel_->domain(), drbd_->run());
  sim.spawn(kernel_->domain(), watchdog());
  // Heartbeat receiver: just tracks arrival times.
  sim.spawn(kernel_->domain(), [](BackupAgent* self) -> sim::task<> {
    while (true) {
      (void)co_await self->hb_in_->recv();
      self->last_heartbeat_ = self->kernel_->simulation().now();
      ++self->heartbeats_seen_;
    }
  }(this));
}

void BackupAgent::disarm() { armed_ = false; }

sim::task<> BackupAgent::state_loop() {
  sim::Simulation& sim = kernel_->simulation();
  while (true) {
    EpochStateMsg msg = co_await state_in_->recv();
    obs_.span_begin(Track::kBackup, Stage::kRecv, sim.now(), msg.epoch);

    // Receive-side processing: read() per chunk into the staging buffers.
    Time recv_cost = backup_costs_.recv_base +
                     static_cast<Time>(chunk_count(msg.image)) *
                         backup_costs_.read_per_chunk;
    co_await sim.sleep_for(recv_cost);
    metrics_->backup_busy += recv_cost;
    obs_.span_end(Track::kBackup, Stage::kRecv, sim.now(), msg.epoch);
    obs_.span_begin(Track::kBackup, Stage::kBarrierWait, sim.now(),
                    msg.epoch);

    // Chain topology (DESIGN.md §16): store-and-forward the received state
    // to the next replica down the chain, with the primary's wire
    // accounting. Forwarding happens after the receive-side processing (the
    // message is fully buffered here first) but before the barrier wait, so
    // the downstream replica's receive overlaps this one's commit.
    if (downstream_state_ != nullptr) {
      metrics_->wire_bytes_fanout += msg.wire_bytes;
      downstream_state_->send(EpochStateMsg{msg}, msg.wire_bytes);
    }

    // The epoch is durable at the backup once all its disk writes (up to
    // the barrier) and its container state are buffered here: acknowledge,
    // letting the primary release the epoch's buffered output (§IV).
    co_await drbd_->wait_barrier(msg.epoch);
    obs_.span_end(Track::kBackup, Stage::kBarrierWait, sim.now(), msg.epoch);
    // The acked cursor is this replica's catch-up position — the promotion
    // arbiter's election key (DESIGN.md §16).
    acked_epoch_ = msg.epoch;
    ack_out_->send(AckMsg{msg.epoch}, 64);
    obs_.instant(Track::kBackup, Stage::kAckSent, sim.now(), msg.epoch,
                 {.aux = drbd_->last_barrier().value_or(0)});

    // Once recovery has started, no new commit may begin: the restore is
    // (or will be) built from the currently-committed image, and folding
    // another epoch underneath it would desynchronize the replay cursor
    // from the restored TCP state (see recovering_ in the header).
    if (recovering_) co_return;

    // Commit: fold the epoch into the committed stores.
    commit_in_progress_ = true;
    obs_.span_begin(Track::kBackup, Stage::kCommit, sim.now(), msg.epoch);
    obs_.span_begin(Track::kBackup, Stage::kFold, sim.now(), msg.epoch);
    commit_idle_->reset();
    pages_->begin_checkpoint(msg.epoch);
    const std::uint64_t fold_t0 = util::wall_now_ns();
    const std::uint64_t visits = pages_->store_batch(msg.image.pages);
    metrics_->shard_stage_ns.fold += util::wall_now_ns() - fold_t0;
    // Zero-width in simulated time (the modeled cost is the commit sleep
    // below); the wall stamps expose the real fold cost.
    obs_.span_end(Track::kBackup, Stage::kFold, sim.now(), msg.epoch);
    Time commit_cost =
        static_cast<Time>(visits) * backup_costs_.pagestore_per_visit +
        static_cast<Time>(msg.image.pages.size()) *
            backup_costs_.commit_per_page +
        // Delta-compressed pages are reconstructed against the committed
        // version while folding (decompress-and-fold, extension).
        static_cast<Time>(msg.compressed_pages) *
            backup_costs_.delta_fold_per_page;
    co_await sim.sleep_for(commit_cost);
    metrics_->backup_busy += commit_cost;

    drbd_->commit(msg.epoch);
    for (const kern::DncInodeEntry& ie : msg.image.fs_cache.inodes) {
      committed_fs_inodes_[ie.attr.ino] = ie.attr;
    }
    for (kern::DncPageEntry& pe : msg.image.fs_cache.pages) {
      committed_fs_pages_[{pe.ino, pe.page_index}] = std::move(pe);
    }
    // Emitted before the folded sections are cleared so the auditor can
    // compare the shipped records against what the page store now holds.
    obs_.instant(Track::kBackup, Stage::kCommitDone, sim.now(), msg.epoch,
                 {.state = &msg});
    msg.image.pages.clear();     // folded into the page store
    msg.image.fs_cache = {};     // folded into the fs-cache maps
    committed_image_ = std::move(msg.image);
    committed_epoch_ = msg.epoch;
    // Replay mode: this checkpoint bakes in every event at or below its
    // stamp; failover replays only what follows, so fully-covered log
    // segments can be dropped.
    committed_nd_entries_ = msg.nd_entries;
    committed_nd_fp_ = msg.nd_fp;
    last_primary_epoch_len_ = msg.epoch_len;
    if (opts_.commit_mode == CommitMode::kReplay) {
      metrics_->log_pruned_segments += replay_.prune_below(msg.nd_entries);
    }
    commit_in_progress_ = false;
    commit_idle_->set();
    obs_.span_end(Track::kBackup, Stage::kCommit, sim.now(), msg.epoch);
  }
}

sim::task<> BackupAgent::log_loop() {
  sim::Simulation& sim = kernel_->simulation();
  while (true) {
    LogSegmentMsg seg = co_await log_in_->recv();
    obs_.span_begin(Track::kBackup, Stage::kLogRecv, sim.now(), seg.seq);
    Time cost = log_costs_.recv_base +
                static_cast<Time>(seg.entries.size()) *
                    log_costs_.recv_per_entry;
    co_await sim.sleep_for(cost);
    metrics_->backup_busy += cost;
    // Chain topology: forward before validating — the downstream replica
    // runs the same deterministic validation itself.
    if (downstream_log_ != nullptr) {
      const std::uint64_t fw_bytes = log_segment_wire_bytes(seg);
      metrics_->wire_bytes_fanout += fw_bytes;
      downstream_log_->send(LogSegmentMsg{seg}, fw_bytes);
    }
    const bool accepted = replay_.ingest(seg);
    if (accepted &&
        replay_.retained_bytes() > metrics_->log_retained_bytes_peak) {
      metrics_->log_retained_bytes_peak = replay_.retained_bytes();
    }
    obs_.instant(Track::kBackup, Stage::kLogIngest, sim.now(), seg.seq,
                 {.aux = accepted ? 1u : 0u, .segment = &seg});
    obs_.span_end(Track::kBackup, Stage::kLogRecv, sim.now(), seg.seq);
    if (!accepted) {
      // Never acknowledged: the primary holds the matching output forever
      // rather than releasing output this backup cannot replay
      // (correctness over liveness; a real system would resynchronize
      // with a fresh checkpoint).
      obs_.instant(Track::kBackup, Stage::kLogReject, sim.now(), seg.seq);
      continue;
    }
    // The ack is the promise that failover replays to this segment's end.
    log_ack_out_->send(LogAckMsg{seg.seq}, 64);
    obs_.instant(Track::kBackup, Stage::kLogAckSent, sim.now(), seg.seq);
  }
}

sim::task<> BackupAgent::watchdog() {
  sim::Simulation& sim = kernel_->simulation();
  int misses = 0;
  std::uint64_t seen_at_last_tick = 0;
  while (true) {
    co_await sim.sleep_for(kHeartbeatInterval);
    if (!armed_) continue;
    // A 30ms interval with no new heartbeat counts as a miss (§IV).
    if (heartbeats_seen_ == seen_at_last_tick) {
      ++misses;
      obs_.instant(Track::kDetector, Stage::kHeartbeatMiss, sim.now(),
                   static_cast<std::uint64_t>(misses));
    } else {
      misses = 0;
    }
    seen_at_last_tick = heartbeats_seen_;
    if (misses >= kHeartbeatMissThreshold) {
      armed_ = false;
      recovery_.detection_started = sim.now();
      recovery_.detection_latency = sim.now() - last_heartbeat_;
      obs_.instant(Track::kDetector, Stage::kRecoveryStart, sim.now(),
                   committed_epoch_);
      if (arbiter_ != nullptr) {
        // N > 1: report the detection instead of recovering unilaterally;
        // the arbiter elects the most caught-up replica and promotes it.
        arbiter_->report(replica_index_);
        co_return;
      }
      co_await recover();
      co_return;
    }
  }
}

void BackupAgent::trigger_recovery() {
  NLC_CHECK_MSG(!recovered_, "already recovered");
  armed_ = false;
  sim::Simulation& sim = kernel_->simulation();
  recovery_.detection_started = sim.now();
  recovery_.detection_latency = 0;
  obs_.instant(Track::kDetector, Stage::kRecoveryStart, sim.now(),
               committed_epoch_);
  sim.spawn(kernel_->domain(), recover());
}

void BackupAgent::promote() {
  NLC_CHECK_MSG(!recovered_, "already recovered");
  armed_ = false;
  sim::Simulation& sim = kernel_->simulation();
  // The winner's own watchdog usually stamped detection when it reported;
  // if another replica's watchdog won the race to the arbiter, stamp now.
  if (recovery_.detection_started == 0) {
    recovery_.detection_started = sim.now();
    recovery_.detection_latency = sim.now() - last_heartbeat_;
    obs_.instant(Track::kDetector, Stage::kRecoveryStart, sim.now(),
                 committed_epoch_);
  }
  sim.spawn(kernel_->domain(), recover());
}

void BackupAgent::adopt_resilver(const BackupAgent& src) {
  // Install a copy of the winner's committed page store. Page payloads are
  // shared handles, so the copy takes records, not page bytes; the bulk
  // transfer itself is metered by the arbiter on the replication link.
  pages_ = src.pages_->clone();
  committed_fs_pages_ = src.committed_fs_pages_;
  committed_fs_inodes_ = src.committed_fs_inodes_;
  committed_epoch_ = src.committed_epoch_;
  committed_nd_entries_ = src.committed_nd_entries_;
  committed_nd_fp_ = src.committed_nd_fp_;
  last_primary_epoch_len_ = src.last_primary_epoch_len_;
  acked_epoch_ = src.committed_epoch_;
  // Emitted before the uncommitted DRBD tail is discarded, so the checker
  // can authorize that discard.
  obs_.instant(Track::kBackup, Stage::kResilverAdopted,
               kernel_->simulation().now(), committed_epoch_);
  // The dead primary's uncommitted buffered tail dies here too.
  drbd_->discard_uncommitted();
  // The winner consumed its record image during its restore, so there is
  // no current record set to copy; the survivor is caught up on pages, fs
  // cache and cursors, and would take fresh records from the promoted
  // node's first post-failover checkpoint once re-protected.
  committed_image_.reset();
  armed_ = false;  // no primary heartbeats to watch until re-protected
}

criu::CheckpointImage BackupAgent::take_restore_image() {
  NLC_CHECK_MSG(committed_image_.has_value(),
                "failover before the initial synchronization committed");
  // Recovery runs once: move the committed records out instead of copying
  // them (page payloads already live in the page store as shared handles).
  criu::CheckpointImage img = std::move(*committed_image_);
  committed_image_.reset();
  img.fs_cache.inodes.clear();
  img.fs_cache.pages.clear();
  return img;
}

sim::task<> BackupAgent::recover() {
  sim::Simulation& sim = kernel_->simulation();
  criu::KernelInterfaceCosts costs;  // restore-side cost model
  // From here on the committed stores are frozen for the restore: an
  // in-flight commit below drains, but no new one may start (the flag is
  // checked in state_loop before commit-begin).
  recovering_ = true;
  Time t0 = sim.now();

  // Never restore from a half-committed epoch: wait out an in-flight
  // commit (its state fully arrived and was acknowledged, so it belongs in
  // the restored image).
  co_await commit_idle_->wait();
  // The restore span opens after the in-flight commit drains so the two
  // spans nest cleanly on the backup track; the detection point itself is
  // the kRecoveryStart instant on the detector track. Its begin is the
  // restore point the auditor holds the recovery to.
  obs_.span_begin(Track::kBackup, Stage::kRestore, sim.now(),
                  committed_epoch_);

  // Uncommitted buffered state dies with the primary (§IV).
  drbd_->discard_uncommitted();

  criu::CheckpointImage img = take_restore_image();
  auto service_ip = static_cast<net::IpAddr>(img.service_ip);

  // Connect the container's address to this host but keep ingress blocked:
  // the §III RST hazard window is open from netns creation until the
  // sockets are repaired.
  tcp_->add_address(service_ip);
  // Blocking uses the same buffer-and-release mechanism as the epoch pause
  // (§V-C): packets arriving during the restore are held and delivered once
  // the sockets exist, so clients pay no retransmission backoff on top of
  // the restore itself.
  tcp_->ingress(service_ip).set_mode(
      opts_.block_input_during_recovery ? net::IngressFilter::Mode::kBuffer
                                        : net::IngressFilter::Mode::kPass);

  // Materialize CRIU image files from the buffered state.
  obs_.span_begin(Track::kBackup, Stage::kMaterialize, sim.now(),
                  committed_epoch_);
  double mb = static_cast<double>(img.byte_size() +
                                  pages_->page_count() * nlc::kPageSize) /
              static_cast<double>(nlc::kMiB);
  co_await sim.sleep_for(costs.image_build_base +
                         static_cast<Time>(mb * static_cast<double>(
                                                    costs.image_build_per_mb)));
  obs_.span_end(Track::kBackup, Stage::kMaterialize, sim.now(),
                committed_epoch_);

  kern::DncHarvest fs;
  for (const auto& [ino, attr] : committed_fs_inodes_) {
    fs.inodes.push_back(kern::DncInodeEntry{attr});
  }
  for (const auto& [key, pe] : committed_fs_pages_) {
    fs.pages.push_back(pe);
  }

  criu::RestoreEngine engine(*kernel_, *tcp_, costs);
  criu::RestoreTimeline tl = co_await engine.restore(
      img, pages_->all_pages(), fs, opts_.rto_repair_fix,
      /*ack_runahead=*/opts_.commit_mode == CommitMode::kReplay);

  // Residual recovery actions (Table II "Others").
  co_await sim.sleep_for(costs.recovery_misc);

  if (opts_.commit_mode == CommitMode::kReplay) {
    // Deterministic replay (DESIGN.md §14): re-drive the accepted event
    // log on top of the restored checkpoint, so the container re-reaches
    // the exact point whose output was already released. The sim's
    // restored TCP queues re-deliver the same requests in logged order;
    // the engine charges the cost and the fingerprint proves equivalence.
    obs_.span_begin(Track::kBackup, Stage::kReplay, sim.now(),
                    committed_epoch_);
    replay::ReplayResult rr =
        replay_.replay(committed_nd_entries_, committed_nd_fp_);
    co_await sim.sleep_for(rr.cost);
    // Re-inject logged inputs the restored checkpoint has never seen:
    // their TCP acks were released on log acks, so the clients will never
    // retransmit them. Injection is idempotent by sequence number, so
    // inputs already inside the checkpoint's read queues are skipped.
    for (const LogSegmentMsg& held : replay_.held_segments()) {
      for (const NetInputRec& in : held.inputs) {
        if (in.entry_index < committed_nd_entries_) continue;
        if (tcp_->inject_repaired_input(in.local, in.remote, in.seg)) {
          ++recovery_.inputs_reinjected;
        }
      }
    }
    recovery_.events_replayed = rr.entries_replayed;
    recovery_.segments_replayed = rr.segments_replayed;
    recovery_.replay_time = rr.cost;
    obs_.instant(Track::kBackup, Stage::kReplayed, sim.now(),
                 rr.entries_replayed, {.aux = rr.final_fp});
    obs_.span_end(Track::kBackup, Stage::kReplay, sim.now(),
                  committed_epoch_);
  }

  // Reconnect to the bridge: gratuitous ARP moves the service address.
  co_await sim.sleep_for(costs.gratuitous_arp);
  obs_.instant(Track::kNetBackup, Stage::kGratuitousArp, sim.now(),
               committed_epoch_);
  tcp_->takeover_address(service_ip);
  tcp_->ingress(service_ip).set_mode(net::IngressFilter::Mode::kPass);

  recovery_.triggered = true;
  recovery_.restore_time = tl.finished - t0;
  recovery_.arp_time = costs.gratuitous_arp;
  recovery_.misc_time = costs.recovery_misc;
  recovery_.total_unavailability = sim.now() - t0;
  recovery_.pages_restored = tl.pages_restored;
  recovery_.sockets_restored = tl.sockets_restored;
  recovery_.committed_epoch = committed_epoch_;
  recovered_ = true;
  obs_.span_end(Track::kBackup, Stage::kRestore, sim.now(), committed_epoch_);

  if (on_restored_) {
    on_restored_(FailoverContext{kernel_, tcp_, img.container,
                                 committed_epoch_});
  }
}

}  // namespace nlc::core
