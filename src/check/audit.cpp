#include "check/audit.hpp"

#include <algorithm>
#include <utility>

#include "kernel/kernel.hpp"
#include "kernel/process.hpp"

namespace nlc::check {

using trace::EventType;
using trace::Stage;

namespace {

/// Restored memory must equal the committed page store byte for byte:
/// walks the restored container's resident content pages before the
/// application resumes and compares them against the store's committed
/// copies. Returns the number of pages compared.
std::uint64_t restore_equivalence_walk(const criu::PageStore& store,
                                       const kern::Kernel& kernel,
                                       kern::ContainerId cid) {
  std::uint64_t compared = 0;
  for (const kern::Process* p : kernel.container_processes(cid)) {
    // The page table walks in ascending page-number order: when more than
    // one page diverges, the report (and the failing-check identity a
    // negative test asserts on) must not depend on allocation addresses.
    p->mm().for_each_resident(
        [&](kern::PageNum page, const kern::AddressSpace::PageState& state) {
          if (!state.payload) return;
          const criu::PageRecord* rec = store.lookup(page);
          NLC_CHECK_MSG(rec != nullptr,
                        "audit: restored content page missing from the store");
          NLC_CHECK_MSG(rec->content != nullptr,
                        "audit: restored bytes for an accounting-only page");
          if (rec->content.get() != state.payload.get()) {
            NLC_CHECK_MSG(*rec->content == *state.payload,
                          "audit: restored memory diverged from the committed "
                          "page store");
          }
          ++compared;
        });
  }
  return compared;
}

/// The stream replica `i` emits on (the main one for replica 0).
trace::Stream& replica_stream(core::Cluster& cluster, std::size_t i) {
  return *cluster.backups[i]->stream;
}

}  // namespace

// ---------------------------------------------------------------------------
// ReplicaAudit

void ReplicaAudit::on_event(const trace::Event& e, const trace::Detail& d) {
  switch (e.stage) {
    case Stage::kAckSent:
      epoch_.ack_sent(e.arg, d.aux);
      break;
    case Stage::kCommit:
      if (e.type == EventType::kSpanBegin) epoch_.commit_begin(e.arg);
      break;
    case Stage::kCommitDone:
      store_.check(cluster_->backup(index_).page_store(), d.state->image);
      epoch_.committed(e.arg);
      break;
    case Stage::kRestore:
      // The span's begin and end bracket the restore of committed epoch
      // `arg`.
      if (e.type == EventType::kSpanBegin) {
        epoch_.recovery_started(e.arg);
        break;
      }
      epoch_.recovered(e.arg);
      restore_equiv_checks_ += restore_equivalence_walk(
          cluster_->backup(index_).page_store(),
          cluster_->backup_kernel_of(index_), cid_);
      break;
    case Stage::kResilverAdopted:
      epoch_.resilver_adopted(e.arg);
      NLC_CHECK_MSG(winner_ >= 0, "audit: re-silver before any promotion");
      store_.resilvered(cluster_->backup(index_).page_store(),
                        cluster_->backup(winner_).page_store());
      break;
    case Stage::kDrbdCommit:
      epoch_.drbd_applied(e.arg);
      break;
    case Stage::kDrbdDiscard:
      epoch_.drbd_discarded();
      break;
    default:
      break;
  }
}

// ---------------------------------------------------------------------------
// InvariantAuditor

InvariantAuditor::InvariantAuditor(core::Cluster& cluster,
                                   kern::ContainerId cid,
                                   const core::Options& opts)
    : cluster_(&cluster), cid_(cid), level_(opts.audit_level),
      delta_enabled_(opts.delta_compress_pages),
      replay_mode_(opts.commit_mode == core::CommitMode::kReplay),
      quorum_(opts.replicas, opts.resolved_quorum()),
      rules_(opts.resolved_quorum()) {
  NLC_CHECK_MSG(level_ != core::AuditLevel::kOff,
                "constructing an auditor with auditing off");
  NLC_CHECK_MSG(cluster.primary_agent != nullptr &&
                    std::ranges::all_of(cluster.backups,
                                        [](const auto& r) {
                                          return r->agent != nullptr;
                                        }),
                "auditor needs every agent (attach from on_agents_created)");
  const kern::Container* cont = cluster.primary_kernel->container(cid);
  NLC_CHECK_MSG(cont != nullptr, "auditing an unknown container");
  plug_ = &cluster.primary_tcp.plug(
      static_cast<net::IpAddr>(cont->service_ip()));
  for (int i = 0; i < cluster.replica_count(); ++i) {
    replica_audits_.push_back(
        std::make_unique<ReplicaAudit>(cluster, i, cid));
  }
}

InvariantAuditor::~InvariantAuditor() { detach(); }

void InvariantAuditor::attach() {
  if (attached_) return;
  // Replica 0's audit subscribes ahead of this auditor, so on a shared
  // point its store and epoch checks run before the replay and freeze ones.
  for (std::size_t i = 0; i < replica_audits_.size(); ++i) {
    replica_stream(*cluster_, i).subscribe(replica_audits_[i].get());
  }
  cluster_->stream.subscribe(this);
  if (level_ == core::AuditLevel::kContinuous) {
    // NLC_LINT_OK(detached-this): detach() clears the probe in ~auditor
    cluster_->sim.set_audit_probe([this] { sweep(); }, kProbeEveryEvents);
  }
  attached_ = true;
}

void InvariantAuditor::detach() {
  if (!attached_) return;
  cluster_->stream.unsubscribe(this);
  for (std::size_t i = 0; i < replica_audits_.size(); ++i) {
    replica_stream(*cluster_, i).unsubscribe(replica_audits_[i].get());
  }
  if (level_ == core::AuditLevel::kContinuous) {
    cluster_->sim.set_audit_probe(nullptr);
  }
  attached_ = false;
}

AuditStats InvariantAuditor::stats() const {
  AuditStats st;
  st.output_commit_checks = occ_.checks();
  st.payload_pins = freeze_.pins();
  st.payload_verifications = freeze_.verifications();
  st.delta_replay_checks = delta_.checks();
  st.replay_equivalence_checks = replay_.checks();
  st.quorum_checks = quorum_.checks();
  st.trace_order_checks = rules_.stats().total();
  st.sweeps = sweeps_;
  for (const auto& ra : replica_audits_) {
    st.epoch_commit_checks += ra->epoch_checks();
    st.store_equivalence_checks += ra->store_checks();
    st.restore_equivalence_checks += ra->restore_checks();
  }
  return st;
}

void InvariantAuditor::final_audit() {
  freeze_.verify_all();
  NLC_CHECK_MSG(occ_.mirrored_packets() == plug_->pending_packets(),
                "audit: plug buffer diverged from the output-commit mirror");
}

void InvariantAuditor::on_event(const trace::Event& e,
                                const trace::Detail& d) {
  // The ordering rules see exactly what the recorder keeps, so a replay of a
  // drained trace re-runs the same checks.
  if (trace::ring_keeps(e, d)) rules_.observe(e);
  const bool continuous = level_ == core::AuditLevel::kContinuous;
  switch (e.stage) {
    // ---- Plug (primary egress)
    case Stage::kPlugEnqueue:
      occ_.packet_buffered();
      break;
    case Stage::kPlugMarker:
      last_plug_marker_ = e.arg;
      saw_plug_marker_ = true;
      break;
    case Stage::kPlugRelease:
      occ_.released(d.aux, e.arg,
                    std::exchange(pending_release_epoch_,
                                  OutputCommitChecker::kAnyEpoch));
      break;
    case Stage::kPlugDiscard:
      occ_.discarded(e.arg);
      break;

    // ---- Primary agent
    case Stage::kStateReady:
      on_state_ready(*d.state, d.aux != 0);
      break;
    case Stage::kMarkerInserted:
      expect_plug_marker(d.aux, "audit: agent marker does not match the "
                                "plug's last marker");
      occ_.marker_inserted(e.arg, d.aux);
      break;
    case Stage::kReplicaAck:
      quorum_.replica_ack(static_cast<int>(d.aux), e.arg);
      break;
    case Stage::kAckRecv:
      // Replay mode commits output per log segment: the occ_ mirror runs
      // on segment seq numbers, so epoch acks must not leak into it.
      if (!replay_mode_) occ_.ack_received(e.arg);
      // With replicas > 1 this reports *quorum* advances; re-derive the
      // quorum cursor from the per-replica mirror. At N = 1 every ack is a
      // quorum advance and the check degenerates to cursor equality.
      quorum_.quorum_advanced(e.arg);
      break;
    case Stage::kRelease:
      pending_release_epoch_ = e.arg;
      break;
    case Stage::kLogShip:
      if (e.type != EventType::kSpanBegin) break;
      expect_plug_marker(d.aux, "audit: segment marker does not match the "
                                "plug's last marker");
      // Segment seq plays the epoch role in the output-commit mirror:
      // output up to this marker may leave only after this segment's ack.
      occ_.marker_inserted(e.arg, d.aux);
      replay_.log_shipped(*d.segment);
      break;
    case Stage::kReplicaLogAck:
      quorum_.replica_log_ack(static_cast<int>(d.aux), e.arg);
      break;
    case Stage::kLogAckRecv:
      occ_.ack_received(e.arg);
      break;
    case Stage::kLogRelease:
      pending_release_epoch_ = e.arg;
      quorum_.log_release(e.arg);
      break;
    case Stage::kPromote:
      on_promoted(static_cast<int>(e.arg), *d.candidates);
      break;

    // ---- Backup replica 0: the chain and freeze checks that need the
    // primary side's mirrors (its ReplicaAudit has already run).
    case Stage::kLogIngest:
      replay_.log_ingested(*d.segment, d.aux != 0);
      break;
    case Stage::kReplayed:
      replay_.replayed(d.aux, e.arg);
      break;
    case Stage::kCommitDone:
      if (replay_mode_) replay_.committed(d.state->nd_entries, d.state->nd_fp);
      // The fold copied shared handles; any mutation since harvest would
      // show here and in the budgeted re-fingerprint.
      if (continuous) freeze_.verify_budget(kVerifyBudget);
      break;
    case Stage::kRestore:
      if (e.type == EventType::kSpanEnd && continuous) freeze_.verify_all();
      break;
    default:
      break;
  }
}

void InvariantAuditor::on_state_ready(const core::EpochStateMsg& msg,
                                      bool initial) {
  NLC_CHECK_MSG(msg.epoch == msg.image.epoch,
                "audit: state message and image disagree on the epoch");
  NLC_CHECK_MSG(msg.image.full == initial,
                "audit: only the initial synchronization ships a full image");
  if (replay_mode_) replay_.checkpoint_stamped(msg.nd_entries, msg.nd_fp);
  if (level_ == core::AuditLevel::kContinuous) {
    // The payloads in this image must stay frozen from here through ship,
    // fold and store residency, no matter what the container writes next.
    for (const criu::PageRecord& rec : msg.image.pages) {
      freeze_.pin(rec.content);
    }
    delta_.replay(msg.image, delta_enabled_);
  }
}

void InvariantAuditor::expect_plug_marker(std::uint64_t marker,
                                          const char* what) const {
  NLC_CHECK_MSG(saw_plug_marker_ && marker == last_plug_marker_, what);
}

void InvariantAuditor::on_promoted(
    int winner, const std::vector<core::PromotionCandidate>& cs) {
  std::vector<QuorumCommitChecker::Candidate> conv;
  conv.reserve(cs.size());
  for (const core::PromotionCandidate& c : cs) {
    conv.push_back(QuorumCommitChecker::Candidate{
        c.index, c.any_ack, c.acked_epoch, c.committed_nd_entries});
  }
  quorum_.promoted(winner, conv);
  for (const auto& ra : replica_audits_) ra->promoted(winner);
}

void InvariantAuditor::sweep() {
  ++sweeps_;
  NLC_CHECK_MSG(occ_.mirrored_packets() == plug_->pending_packets(),
                "audit: plug buffer diverged from the output-commit mirror");
  freeze_.verify_budget(kVerifyBudget);
}

}  // namespace nlc::check
