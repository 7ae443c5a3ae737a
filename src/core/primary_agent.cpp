#include "core/primary_agent.hpp"

#include <utility>

#include "util/assert.hpp"

namespace nlc::core {

using trace::Stage;
using trace::Track;

namespace {

/// Replay mode: how long the primary coalesces buffered output before
/// cutting and shipping a log segment. Bounds the added client latency
/// together with the replication-link round trip.
constexpr Time kLogFlushDelay = nlc::microseconds(50);
/// Adaptive segment cut (DESIGN.md §15): flush once this many
/// buffered-output or pending-log bytes are waiting, instead of after every
/// kLogFlushDelay tick...
constexpr std::uint64_t kLogCutBytes = 4096;
/// ...but never hold a response longer than this past the first wake.
constexpr Time kLogCutMaxDelay = nlc::microseconds(250);

}  // namespace

PrimaryAgent::PrimaryAgent(Options opts, kern::Kernel& kernel,
                           net::TcpStack& tcp, kern::ContainerId cid,
                           blk::DrbdPrimary& drbd,
                           ReplicationMetrics& metrics)
    : opts_(opts), kernel_(&kernel), tcp_(&tcp), cid_(cid), drbd_(&drbd),
      metrics_(&metrics), ckpt_(kernel, tcp), cache_(kernel, cid),
      rng_(opts.seed ^ 0x9e37'79b9'7f4a'7c15ull),
      ack_event_(std::make_unique<sim::Event>(kernel.simulation())),
      controller_(opts, log_costs_),
      log_flush_event_(std::make_unique<sim::Event>(kernel.simulation())) {
  metrics_->simd_tier_used = delta_.simd_tier();
}

void PrimaryAgent::add_replica(StateChannel& state_out, AckChannel& ack_in,
                               HeartbeatChannel& hb_out, LogChannel& log_out,
                               LogAckChannel& log_ack_in, bool direct) {
  NLC_CHECK_MSG(!started_, "add_replica after start");
  replicas_.push_back(
      Replica{&state_out, &ack_in, &hb_out, &log_out, &log_ack_in, direct});
}

PrimaryAgent::~PrimaryAgent() {
  // The plug (TcpStack) and the container (Kernel) outlive the agent;
  // drop the callbacks that point back into this object.
  if (plug_ != nullptr) plug_->set_enqueue_hook(nullptr);
  kern::Container* cont = kernel_->container(cid_);
  if (cont != nullptr) {
    if (cont->nondet_sink() == &nd_log_) cont->set_nondet_sink(nullptr);
    if (opts_.commit_mode == CommitMode::kReplay) {
      tcp_->set_input_tap(service_ip(), nullptr);
    }
  }
}

net::IpAddr PrimaryAgent::service_ip() const {
  return static_cast<net::IpAddr>(kernel_->container(cid_)->service_ip());
}

PrimaryAgent::EpochRec& PrimaryAgent::emplace_rec(std::uint64_t epoch) {
  EpochRec& rec = epoch_recs_[epoch % kEpochWindow];
  NLC_CHECK_MSG(!rec.live, "epoch window overflow: un-acked epochs exceed "
                           "the bounded pipeline depth");
  rec = EpochRec{};
  rec.epoch = epoch;
  rec.live = true;
  return rec;
}

PrimaryAgent::EpochRec* PrimaryAgent::find_rec(std::uint64_t epoch) {
  EpochRec& rec = epoch_recs_[epoch % kEpochWindow];
  return rec.live && rec.epoch == epoch ? &rec : nullptr;
}

void PrimaryAgent::erase_rec(std::uint64_t epoch) {
  EpochRec& rec = epoch_recs_[epoch % kEpochWindow];
  if (rec.live && rec.epoch == epoch) rec.live = false;
}

net::PlugQdisc& PrimaryAgent::plug() {
  // TcpStack keeps plugs in per-IP unique_ptrs, so the resolved pointer is
  // stable for the agent's lifetime.
  if (plug_ == nullptr) plug_ = &tcp_->plug(service_ip());
  return *plug_;
}

sim::task<> PrimaryAgent::start() {
  sim::Simulation& sim = kernel_->simulation();
  started_ = true;
  NLC_CHECK_MSG(!replicas_.empty(), "start before any add_replica");
  epoch_gate_ = CommitGate(replicas_.size(), opts_.resolved_quorum());
  seg_gate_ = CommitGate(replicas_.size(), opts_.resolved_quorum());
  for (const Replica& rp : replicas_) ndirect_ += rp.direct ? 1 : 0;
  NLC_CHECK(ndirect_ >= 1);
  if (replicas_.size() > 1) {
    metrics_->replica_ack_lag.assign(replicas_.size(), Samples{});
  }
  // Output commit from the very beginning: no packet escapes without a
  // committed checkpoint behind it.
  plug().engage();
  obs_.instant(Track::kNetPrimary, Stage::kPlugEngage, sim.now());

  // Heartbeats start before the initial synchronization: the initial full
  // state copy takes far longer than the detector's 90 ms budget, and the
  // agent driving it is proof of life.
  sim.spawn(kernel_->domain(), heartbeat_loop());
  for (std::size_t r = 0; r < replicas_.size(); ++r) {
    sim.spawn(kernel_->domain(), ack_loop(r));
  }

  if (replay_mode()) {
    // HyCoR output commit (DESIGN.md §14): record every nondeterministic
    // input the container observes, and release buffered output on the
    // event-log ack instead of the epoch ack.
    kern::Container* cont = kernel_->container(cid_);
    NLC_CHECK_MSG(cont != nullptr, "protecting an unknown container");
    cont->set_nondet_sink(&nd_log_);
    // Receive-time input durability: every in-order data segment enters
    // the log (with its payload sidecar) before its TCP ack reaches the
    // plug, so a released ack implies the input is already at the backup.
    tcp_->set_input_tap(
        service_ip(),
        [this](net::SocketId sock, net::Endpoint local, net::Endpoint remote,
               const net::Segment& seg) {
          nd_log_.record_net_input(sock, local, remote, seg);
        });
    plug().set_enqueue_hook([this] { log_flush_event_->set(); });
    sim.spawn(kernel_->domain(), log_flush_loop());
    for (std::size_t r = 0; r < replicas_.size(); ++r) {
      sim.spawn(kernel_->domain(), log_ack_loop(r));
    }
  }

  // Initial full synchronization (Remus's initial state copy).
  co_await checkpoint_once(/*initial=*/true);

  sim.spawn(kernel_->domain(), epoch_loop());
}

sim::task<> PrimaryAgent::epoch_loop() {
  sim::Simulation& sim = kernel_->simulation();
  while (running_) {
    // The controller's current length; stamped into the epoch's record at
    // the checkpoint so observations attribute it to the right epoch even
    // after the controller has moved on.
    last_execute_len_ = controller_.epoch_length();
    co_await sim.sleep_for(last_execute_len_);  // execute phase
    if (!running_) break;
    // The ack gates output *release*, not the next epoch: transfer of
    // epoch k overlaps execution of k+1 (Remus's asynchronous pipeline).
    // A bounded window of two un-acked epochs provides the back-pressure
    // that keeps a slow backup (Table I's "Basic" list-walk page store)
    // from accumulating unbounded staged state.
    NLC_CHECK(epoch_ >= 1);
    if (epoch_ >= 2) co_await wait_acked(epoch_ - 2);
    co_await checkpoint_once(false);
  }
}

sim::task<> PrimaryAgent::wait_acked(std::uint64_t epoch) {
  while (!epoch_gate_.quorate(epoch)) {
    ack_event_->reset();
    co_await ack_event_->wait();
  }
}

Time PrimaryAgent::send_side_cost(const EpochStateMsg& msg, bool staged) const {
  const auto& c = ckpt_.costs();
  double mb = static_cast<double>(msg.wire_bytes) /
              static_cast<double>(nlc::kMiB);
  // Staged shipping streams out of the staging buffer concurrently with
  // execution at near-wire speed; the synchronous path pays the full
  // user-space TCP copy cost while the container is paused (§V-D(2)).
  Time t = static_cast<Time>(
      mb * static_cast<double>(staged ? c.staged_send_per_mb
                                      : c.sync_send_per_mb));
  if (!opts_.optimize_criu) {
    // Stock CRIU page-server proxies: two extra full copies (§V-A).
    t += static_cast<Time>(2.0 * mb *
                           static_cast<double>(c.proxy_copy_per_mb));
  }
  // Delta encoding runs on the shipping path: staged, it overlaps the next
  // execute phase instead of extending the pause.
  t += static_cast<Time>(msg.compressed_pages) * c.delta_compress_per_page;
  return t;
}

template <typename Msg, typename Chan>
void PrimaryAgent::send_direct(Msg msg, std::uint64_t bytes,
                               Chan* Replica::*out) {
  metrics_->wire_bytes_fanout += bytes * static_cast<std::uint64_t>(ndirect_);
  int left = ndirect_;
  for (Replica& rp : replicas_) {
    if (!rp.direct) continue;
    if (--left == 0) {
      (rp.*out)->send(std::move(msg), bytes);
      return;
    }
    (rp.*out)->send(Msg{msg}, bytes);
  }
}

sim::task<> PrimaryAgent::ship_state(EpochStateMsg msg, bool staged,
                                     Time precopy) {
  sim::Simulation& sim = kernel_->simulation();
  const std::uint64_t epoch = msg.epoch;
  // Star fan-out (DESIGN.md §16): each directly-fed replica is a separate
  // socket write from the one dumper thread — the per-MB send cost repeats
  // per destination, while the COW copy-out and the delta encode happen
  // once regardless of fan-out.
  const Time per_dest = send_side_cost(msg, staged);
  const Time encode_once = static_cast<Time>(msg.compressed_pages) *
                           ckpt_.costs().delta_compress_per_page;
  Time cost = precopy + per_dest +
              static_cast<Time>(ndirect_ - 1) * (per_dest - encode_once);
  // One dumper/sender thread: staged ships of consecutive epochs queue
  // behind each other rather than overlapping. Besides modeling the real
  // backpressure, this keeps EpochStateMsg arrivals in epoch order — a
  // long copy-out (COW dump) followed by a short one must not let the
  // later epoch's send overtake the earlier one on the channel.
  Time start = sim.now() > ship_busy_until_ ? sim.now() : ship_busy_until_;
  ship_busy_until_ = start + cost;
  // The span includes the queue wait behind the previous epoch's ship.
  obs_.span_begin(Track::kPrimaryShip, Stage::kShip, sim.now(), epoch);
  co_await sim.sleep_for(ship_busy_until_ - sim.now());
  const std::uint64_t bytes = msg.wire_bytes;
  send_direct(std::move(msg), bytes, &Replica::state_out);
  obs_.span_end(Track::kPrimaryShip, Stage::kShip, sim.now(), epoch);
}

sim::task<> PrimaryAgent::checkpoint_once(bool initial) {
  sim::Simulation& sim = kernel_->simulation();
  const auto& costs = ckpt_.costs();
  std::uint64_t epoch = epoch_;
  EpochRec& rec = emplace_rec(epoch);
  rec.initial = initial;
  rec.len_used = initial ? 0 : last_execute_len_;
  rec.stop_begin = sim.now();
  // Pause-to-pause wall time: the denominator of the controller's
  // overhead fraction. Zero for the first steady epoch (its predecessor
  // is the initial full sync, whose wall time is no epoch's).
  if (!initial) {
    rec.epoch_wall =
        last_steady_stop_begin_ >= 0 ? sim.now() - last_steady_stop_begin_ : 0;
    last_steady_stop_begin_ = sim.now();
  }
  obs_.span_begin(Track::kPrimary, Stage::kPause, sim.now(), epoch);

  // ---- Stop the container (freezer, §II-B / §V-A) -------------------------
  kernel_->freeze_container(cid_);
  if (opts_.optimize_criu) {
    Time poll = static_cast<Time>(rng_.normal_clamped(
        static_cast<double>(costs.freezer_poll_mean),
        static_cast<double>(costs.freezer_poll_mean) / 2.0,
        50e3, 1e6));
    co_await sim.sleep_for(poll);
  } else {
    co_await sim.sleep_for(costs.freezer_sleep_quantum);
  }

  // ---- Block network input (§III / §V-C) -----------------------------------
  auto& ingress = tcp_->ingress(service_ip());
  obs_.instant(Track::kNetPrimary, Stage::kIngressBlock, sim.now(), epoch);
  if (opts_.plug_input_blocking) {
    ingress.set_mode(net::IngressFilter::Mode::kBuffer);
    co_await sim.sleep_for(costs.plug_block_cost);
  } else {
    ingress.set_mode(net::IngressFilter::Mode::kDrop);
    co_await sim.sleep_for(costs.firewall_block_cost);
  }

  // ---- Mark the end of this epoch's disk writes ----------------------------
  drbd_->send_barrier(epoch);
  obs_.instant(Track::kPrimary, Stage::kBarrierSent, sim.now(), epoch);

  // ---- Harvest the container state (CRIU engine) ---------------------------
  criu::HarvestOptions ho;
  ho.incremental = !initial;
  ho.vma_via_netlink = opts_.vma_via_netlink;
  ho.pages_via_shared_memory = opts_.pages_via_shared_memory;
  ho.fs_cache_via_dnc = opts_.fs_cache_via_dnc;
  const criu::InfrequentSnapshot cached =
      opts_.cache_infrequent_state ? cache_.get() : nullptr;
  obs_.span_begin(Track::kPrimary, Stage::kHarvest, sim.now(), epoch);
  const std::uint64_t harvest_t0 = util::wall_now_ns();
  criu::HarvestResult hr = ckpt_.harvest(cid_, epoch, cached, ho);
  metrics_->shard_stage_ns.harvest += util::wall_now_ns() - harvest_t0;
  if (opts_.cache_infrequent_state) cache_.update(hr.image.infrequent);
  // HyCoR-style COW dump (replay mode, DESIGN.md §14): the frozen window
  // arms write protection on the dirty set instead of copying it; the
  // copy-out overlaps the next execute phase and is charged to the
  // shipping path below (the delta cannot serialize before it finishes).
  // Epoch mode keeps the copy inside the stop (NiLiCon §V-D), since the
  // epoch's output is plugged until commit anyway.
  const bool cow_dump = replay_mode() && opts_.staging_buffer && !initial;
  Time stop_cost = hr.cost.total();
  Time deferred_copy = 0;
  if (cow_dump) {
    deferred_copy = hr.cost.page_copy;
    stop_cost -= deferred_copy;
    stop_cost += static_cast<Time>(hr.image.dirty_page_count()) *
                 costs.cow_protect_per_page;
  }
  co_await sim.sleep_for(stop_cost);
  rec.harvest_e = sim.now();
  obs_.span_end(Track::kPrimary, Stage::kHarvest, sim.now(), epoch);

  EpochStateMsg msg;
  msg.epoch = epoch;
  if (opts_.delta_compress_pages) {
    // Stamp per-page compressed wire sizes (real XOR/run-length encode
    // against the last shipped versions); the modeled CPU cost rides the
    // shipping path below.
    obs_.span_begin(Track::kPrimary, Stage::kEncode, sim.now(), epoch);
    const std::uint64_t encode_t0 = util::wall_now_ns();
    const criu::EpochDeltaStats ds = delta_.encode_epoch(hr.image);
    metrics_->shard_stage_ns.encode += util::wall_now_ns() - encode_t0;
    obs_.span_end(Track::kPrimary, Stage::kEncode, sim.now(), epoch);
    msg.compressed_pages = ds.content_pages;
    if (!initial && ds.content_pages > 0) {
      metrics_->compression_ratio.add(ds.ratio());
      metrics_->wire_bytes_saved += ds.raw_bytes - ds.wire_bytes;
    }
  }
  msg.wire_bytes = hr.image.byte_size();
  std::uint64_t dirty = hr.image.dirty_page_count();
  std::uint64_t bytes = msg.wire_bytes;
  msg.image = std::move(hr.image);
  // Replay mode: stamp the event-log position whose effects this image
  // already contains. The container is frozen, so the stamp is exact;
  // failover replays only events recorded after it.
  msg.nd_entries = nd_log_.entries_total();
  msg.nd_fp = nd_log_.chain_fp();
  msg.epoch_len = rec.len_used;
  // Controller feed: the epoch's log-stream growth (entries recorded /
  // bytes shipped since the last checkpoint).
  rec.nd_entries_delta = nd_log_.entries_total() - nd_entries_mark_;
  nd_entries_mark_ = nd_log_.entries_total();
  rec.log_bytes_delta = metrics_->log_bytes_shipped - log_bytes_at_last_epoch_;
  log_bytes_at_last_epoch_ = metrics_->log_bytes_shipped;
  // Fires before the image moves onto the replication wire.
  obs_.instant(Track::kPrimary, Stage::kStateReady, sim.now(), epoch,
               {.aux = initial ? 1u : 0u, .state = &msg});
  obs_.counter(Track::kPrimary, Stage::kDirtyPages, sim.now(), dirty);
  obs_.counter(Track::kPrimary, Stage::kWireBytes, sim.now(), bytes);

  // ---- Ship (synchronously if no staging buffer, §V-D(2)) ------------------
  bool sync_ship = initial || !opts_.staging_buffer;
  if (sync_ship) {
    co_await ship_state(std::move(msg), /*staged=*/false);
    co_await wait_acked(epoch);
  }

  // ---- Unblock input, arm output commit, resume ---------------------------
  if (opts_.plug_input_blocking) {
    ingress.set_mode(net::IngressFilter::Mode::kPass);
  } else {
    ingress.set_mode(net::IngressFilter::Mode::kPass);
    co_await sim.sleep_for(costs.firewall_unblock_cost);
  }
  obs_.instant(Track::kNetPrimary, Stage::kIngressUnblock, sim.now(), epoch);
  if (!replay_mode()) {
    rec.marker = plug().insert_marker();
    obs_.instant(Track::kPrimary, Stage::kMarkerInserted, sim.now(), epoch,
                 {.aux = rec.marker});
  }
  // In replay mode no epoch marker exists — output is bounded by log-
  // segment markers and released by log_ack_loop() — but the record is
  // still armed so the epoch ack retires it (and its commit latency).
  rec.marker_inserted = true;
  kernel_->thaw_container(cid_);
  rec.pause_end = sim.now();
  obs_.span_end(Track::kPrimary, Stage::kPause, sim.now(), epoch);
  obs_.instant(Track::kPrimary, Stage::kResume, sim.now(), epoch);

  Time stop = sim.now() - rec.stop_begin;
  // The initial full synchronization is a one-off warm-up, not an epoch of
  // steady-state operation: keep it out of the per-epoch statistics.
  if (!initial) {
    metrics_->stop_time_ms.add(to_millis(stop));
    metrics_->state_bytes.add(static_cast<double>(bytes));
    metrics_->dirty_pages.add(static_cast<double>(dirty));
    metrics_->epoch_len_ms.add(to_millis(rec.len_used));
    ++metrics_->epochs_completed;
    metrics_->bytes_shipped += bytes;
  }

  if (sync_ship) {
    // The ack arrived while the container was still paused: the epoch is
    // committed, release its buffered output now.
    release_epoch(rec);
  } else {
    // Staged: ship concurrently with the next execute phase; the ack_loop
    // releases the marker when the backup confirms.
    sim.spawn(kernel_->domain(),
              ship_state(std::move(msg), /*staged=*/true, deferred_copy));
  }
  ++epoch_;
}

sim::task<> PrimaryAgent::ack_loop(std::size_t replica) {
  // Gated on running_ like epoch_loop/heartbeat_loop: after stop() the
  // next ack (if any) is still applied — releasing output that the backup
  // committed is always correct — but then the loop exits instead of
  // parking on recv() until teardown destroys the frame.
  while (running_) {
    AckMsg ack = co_await replicas_[replica].ack_in->recv();
    apply_replica_ack(replica, ack.epoch);
  }
}

void PrimaryAgent::apply_replica_ack(std::size_t r, std::uint64_t epoch) {
  const CommitGate::Advance adv = epoch_gate_.ack(r, epoch);
  const Time now = kernel_->simulation().now();
  const bool multi = replicas_.size() > 1;
  // Recorded only with replicas > 1: a two-node trace carries no
  // per-replica acks.
  obs_.instant(Track::kPrimary, Stage::kReplicaAck, now, epoch,
               {.aux = r, .ring = multi});
  if (multi) {
    if (EpochRec* rec = find_rec(epoch);
        rec != nullptr && rec->first_ack_at < 0) {
      rec->first_ack_at = now;
    }
  }
  if (adv.empty()) return;
  const std::uint64_t q = adv.end - 1;
  obs_.instant(Track::kPrimary, Stage::kAckRecv, now, q);
  ack_event_->set();
  if (multi) {
    // Per-replica ack lag behind the new quorum cursor, and the quorum
    // wait: the K-th ack of epoch q minus its first.
    for (std::size_t i = 0; i < replicas_.size(); ++i) {
      const std::uint64_t cursor = epoch_gate_.cursor(i).value_or(0);
      metrics_->replica_ack_lag[i].add(
          static_cast<double>(cursor >= q ? 0 : q - cursor));
    }
    if (EpochRec* rec = find_rec(q);
        rec != nullptr && rec->first_ack_at >= 0) {
      metrics_->quorum_wait_ms.add(to_millis(now - rec->first_ack_at));
    }
  }
  // Release every live epoch the quorum advance covers. A single advance
  // can commit several epochs at once when the K-th replica catches up in
  // one jump (chain topology under lag).
  for (std::uint64_t e = adv.begin; e < adv.end; ++e) {
    EpochRec* rec = find_rec(e);
    if (rec != nullptr && rec->marker_inserted) release_epoch(*rec);
  }
}

void PrimaryAgent::feed_controller(const EpochRec& rec) {
  epochctl::EpochObservation o;
  o.epoch = rec.epoch;
  o.pause_work = rec.harvest_e - rec.stop_begin;
  o.stop = rec.pause_end - rec.stop_begin;
  o.epoch_wall = rec.epoch_wall;
  o.log_entries = rec.nd_entries_delta;
  o.log_bytes = rec.log_bytes_delta;
  // Released-output presence since the previous observation (the epoch-mode
  // shrink gate). released_total() is cumulative across release paths
  // (epoch markers and replay log acks alike).
  const std::uint64_t released_now = plug().released_total();
  o.output_packets = released_now - released_mark_;
  released_mark_ = released_now;
  o.plug_drained = last_release_drained_;
  // Container capacity signal: CPU time consumed since the previous feed.
  const Time cpu_now = kernel_->container(cid_)->cpu().usage();
  o.busy = cpu_now - cpu_mark_;
  cpu_mark_ = cpu_now;
  controller_.observe(o);
  metrics_->ctl_grow_steps = controller_.grow_steps();
  metrics_->ctl_shrink_steps = controller_.shrink_steps();
  metrics_->ctl_last_change_epoch = controller_.last_change_epoch();
  metrics_->ctl_final_epoch_len = controller_.epoch_length();
}

void PrimaryAgent::release_epoch(EpochRec& rec) {
  const Time now = kernel_->simulation().now();
  if (!rec.initial) feed_controller(rec);
  // In replay mode output already flows on log acks; the epoch ack only
  // marks the asynchronous page-delta commit and retires the record.
  if (!replay_mode()) {
    obs_.instant(Track::kPrimary, Stage::kRelease, now, rec.epoch);
    plug().release_to_marker(rec.marker);  // the plug emits kPlugRelease
    // Post-release plug state for the controller's next observation: an
    // empty plug here means this commit drained all outstanding output
    // (the request-response regime the epoch-mode shrink gate looks for).
    last_release_drained_ = plug().pending_bytes() == 0;
  }
  metrics_->commit_latency_ms.add(to_millis(now - rec.stop_begin));
  erase_rec(rec.epoch);
}

sim::task<> PrimaryAgent::log_flush_loop() {
  sim::Simulation& sim = kernel_->simulation();
  while (running_) {
    co_await log_flush_event_->wait();
    log_flush_event_->reset();
    if (!running_) break;
    // Coalesce: output enqueued within the window shares one segment (and
    // one replication-link round trip).
    co_await sim.sleep_for(kLogFlushDelay);
    if (opts_.epoch_policy == EpochPolicy::kAdaptive) {
      // Adaptive segment cut (DESIGN.md §15): instead of shipping after
      // every flush tick, keep coalescing until enough buffered-output or
      // pending-log bytes justify a wire round trip — fewer, larger log
      // ships under long epochs — but never hold a response longer than
      // kLogCutMaxDelay past the first wake.
      const Time armed_at = sim.now();
      while (running_ && plug().pending_bytes() < kLogCutBytes &&
             nd_log_.pending_wire_bytes() < kLogCutBytes &&
             sim.now() - armed_at < kLogCutMaxDelay) {
        co_await sim.sleep_for(kLogFlushDelay);
      }
    }
    // Cut and marker insert run in one scheduler step, so the marker
    // bounds exactly the output produced by the events in this segment.
    LogSegmentMsg seg = nd_log_.cut_segment();
    const std::uint64_t seq = seg.seq;
    const std::uint64_t marker = plug().insert_marker();
    seg_recs_.push_back(SegRec{seq, marker, sim.now()});
    const std::uint64_t bytes = log_segment_wire_bytes(seg);
    const Time cost =
        log_costs_.flush_base +
        static_cast<Time>(seg.entries.size()) * log_costs_.flush_per_entry;
    metrics_->log_entries_recorded += seg.entries.size();
    ++metrics_->log_segments_shipped;
    metrics_->log_bytes_shipped += bytes;
    obs_.span_begin(Track::kPrimaryShip, Stage::kLogShip, sim.now(), seq,
                    {.aux = marker, .segment = &seg});
    obs_.counter(Track::kPrimaryShip, Stage::kLogBytes, sim.now(), bytes);
    co_await sim.sleep_for(cost);
    send_direct(std::move(seg), bytes, &Replica::log_out);
    obs_.span_end(Track::kPrimaryShip, Stage::kLogShip, sim.now(), seq);
  }
}

sim::task<> PrimaryAgent::log_ack_loop(std::size_t replica) {
  while (running_) {
    LogAckMsg ack = co_await replicas_[replica].log_ack_in->recv();
    NLC_CHECK_MSG(ack.seq < nd_log_.segments_cut(),
                  "log ack for an unknown segment");
    const Time now = kernel_->simulation().now();
    obs_.instant(Track::kPrimary, Stage::kReplicaLogAck, now, ack.seq,
                 {.aux = replica});
    // K-of-N log quorum. A replica acks a gapless prefix of segments (its
    // ReplayEngine rejects every segment after a rejected one), so the
    // K-th largest cursor passes a segment exactly at its K-th ack. The
    // K-th replica can replay to the segment's end, so everything buffered
    // before its marker may leave. The record retires here, so a dead
    // replica cannot pin it.
    const CommitGate::Advance adv = seg_gate_.ack(replica, ack.seq);
    while (!seg_recs_.empty() && seg_recs_.front().seq < adv.end) {
      const SegRec& seg = seg_recs_.front();
      obs_.instant(Track::kPrimary, Stage::kLogAckRecv, now, seg.seq);
      obs_.instant(Track::kPrimary, Stage::kLogRelease, now, seg.seq);
      plug().release_to_marker(seg.marker);  // emits kPlugRelease
      metrics_->log_commit_latency_ms.add(to_millis(now - seg.cut_at));
      seg_recs_.pop_front();
    }
  }
}

sim::task<> PrimaryAgent::heartbeat_loop() {
  sim::Simulation& sim = kernel_->simulation();
  std::uint64_t seq = 0;
  Time last_usage = -1;
  while (running_) {
    co_await sim.sleep_for(kHeartbeatInterval);
    const kern::Container* c = kernel_->container(cid_);
    if (c == nullptr) break;
    Time usage = c->cpu().usage();
    // Send as long as the container makes progress (§IV). A container
    // frozen by our own checkpoint is alive by construction, so the agent
    // keeps beating through long pauses instead of inducing a false alarm.
    if (usage > last_usage || c->frozen()) {
      // The control plane is a star regardless of replication topology:
      // every replica's detector hears the primary directly.
      for (Replica& rp : replicas_) {
        rp.hb_out->send(HeartbeatMsg{seq, sim.now()}, 64);
      }
      ++seq;
    }
    last_usage = usage;
  }
}

}  // namespace nlc::core
