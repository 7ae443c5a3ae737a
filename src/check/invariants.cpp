#include "check/invariants.hpp"

#include <algorithm>
#include <bit>
#include <functional>
#include <tuple>

namespace nlc::check {

std::uint64_t fnv1a_page(const kern::PageBytes& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::byte b : bytes) {
    h ^= static_cast<std::uint64_t>(b);
    h *= 0x100000001b3ull;
  }
  return h;
}

// ---------------------------------------------------------------------------
// OutputCommitChecker

void OutputCommitChecker::marker_inserted(std::uint64_t epoch,
                                          std::uint64_t marker) {
  if (!segments_.empty()) {
    NLC_CHECK_MSG(marker > segments_.back().marker,
                  "audit: plug markers must be strictly increasing");
    NLC_CHECK_MSG(epoch > segments_.back().epoch,
                  "audit: marker epochs must be strictly increasing");
  }
  segments_.push_back(Segment{epoch, marker, open_packets_});
  open_packets_ = 0;
}

void OutputCommitChecker::ack_received(std::uint64_t epoch) {
  NLC_CHECK_MSG(!has_ack_ || epoch > acked_,
                "audit: primary received acks out of order");
  acked_ = epoch;
  has_ack_ = true;
}

void OutputCommitChecker::released(std::uint64_t marker, std::uint64_t packets,
                                   std::uint64_t expected_epoch) {
  // The plug releases in FIFO order up to `marker`; every segment at or
  // before it carries output of an epoch the backup must already have
  // acknowledged — the output-commit property, checked per packet batch.
  std::uint64_t covered = 0;
  bool matched = false;
  while (!segments_.empty() && segments_.front().marker <= marker) {
    const Segment& seg = segments_.front();
    NLC_CHECK_MSG(has_ack_ && seg.epoch <= acked_,
                  "audit: output released before the backup acknowledged its "
                  "epoch (output commit violated)");
    if (seg.marker == marker) {
      matched = true;
      NLC_CHECK_MSG(
          expected_epoch == kAnyEpoch || seg.epoch == expected_epoch,
          "audit: released marker does not belong to the committing epoch");
    }
    covered += seg.packets;
    segments_.pop_front();
    ++checks_;
  }
  NLC_CHECK_MSG(matched, "audit: plug released a marker the mirror never saw");
  NLC_CHECK_MSG(covered == packets,
                "audit: plug released a different packet count than the "
                "mirror buffered for those epochs");
}

void OutputCommitChecker::discarded(std::uint64_t packets) {
  // Failover: dropping uncommitted output is always legal, but the count
  // must match the mirror or packets leaked out of (or into) the buffer.
  NLC_CHECK_MSG(packets == mirrored_packets(),
                "audit: plug discard count diverged from the mirror");
  segments_.clear();
  open_packets_ = 0;
  ++checks_;
}

std::uint64_t OutputCommitChecker::mirrored_packets() const {
  std::uint64_t n = open_packets_;
  for (const Segment& seg : segments_) n += seg.packets;
  return n;
}

// ---------------------------------------------------------------------------
// EpochCommitChecker

void EpochCommitChecker::ack_sent(std::uint64_t epoch,
                                  std::uint64_t last_barrier) {
  NLC_CHECK_MSG(epoch == next_ack_,
                "audit: backup acks must be sequential, exactly once");
  NLC_CHECK_MSG(last_barrier >= epoch,
                "audit: ack sent before the epoch's DRBD barrier arrived");
  ++next_ack_;
  ++checks_;
}

void EpochCommitChecker::commit_begin(std::uint64_t epoch) {
  NLC_CHECK_MSG(!folding_, "audit: overlapping backup state commits");
  NLC_CHECK_MSG(epoch == next_commit_,
                "audit: backup commits must be sequential, exactly once");
  NLC_CHECK_MSG(epoch < next_ack_,
                "audit: commit of an epoch that was never acknowledged");
  folding_ = true;
  fold_epoch_ = epoch;
  ++checks_;
}

void EpochCommitChecker::committed(std::uint64_t epoch) {
  NLC_CHECK_MSG(folding_ && epoch == fold_epoch_,
                "audit: commit completion does not match the open fold");
  folding_ = false;
  ++next_commit_;
  ++checks_;
}

void EpochCommitChecker::drbd_applied(std::uint64_t epoch) {
  // Buffered disk writes reach the backup disk only inside the fold of a
  // state-committed epoch and never ahead of it (§IV: disk and memory
  // state commit atomically per epoch).
  NLC_CHECK_MSG(folding_,
                "audit: DRBD epoch applied outside a state commit fold");
  NLC_CHECK_MSG(epoch <= fold_epoch_,
                "audit: DRBD applied disk writes of a future epoch");
  NLC_CHECK_MSG(epoch >= last_applied_,
                "audit: DRBD applied epochs out of order");
  last_applied_ = epoch;
  ++checks_;
}

void EpochCommitChecker::drbd_discarded() {
  NLC_CHECK_MSG(in_recovery_ || resilver_discard_ok_,
                "audit: uncommitted DRBD writes discarded outside failover");
  resilver_discard_ok_ = false;
  ++checks_;
}

void EpochCommitChecker::resilver_adopted(std::uint64_t committed_epoch) {
  // A survivor adopts only outside its own recovery and outside a fold
  // (the arbiter re-silvers after the winner's restore completes, and a
  // dead primary cannot have a fold in flight on a live survivor).
  NLC_CHECK_MSG(!in_recovery_, "audit: resilver adoption during recovery");
  NLC_CHECK_MSG(!folding_, "audit: resilver adoption inside an open fold");
  // The election picked the maximal cursor, so adoption never rewinds a
  // survivor behind its own committed prefix.
  NLC_CHECK_MSG(next_commit_ == 0 || committed_epoch + 1 >= next_commit_,
                "audit: resilver moved a survivor backwards");
  next_commit_ = committed_epoch + 1;
  if (next_ack_ < next_commit_) next_ack_ = next_commit_;
  if (last_applied_ < committed_epoch) last_applied_ = committed_epoch;
  resilver_discard_ok_ = true;
  ++checks_;
}

void EpochCommitChecker::recovery_started(std::uint64_t committed_epoch) {
  NLC_CHECK_MSG(!in_recovery_ && !recovered_,
                "audit: recovery started twice");
  // Reported when the restore begins, after any in-flight fold drained:
  // the restore point must cover every fully committed epoch so far.
  NLC_CHECK_MSG(next_commit_ == 0 || committed_epoch + 1 >= next_commit_,
                "audit: recovery forgot already-committed epochs");
  in_recovery_ = true;
  ++checks_;
}

void EpochCommitChecker::recovered(std::uint64_t committed_epoch) {
  NLC_CHECK_MSG(in_recovery_, "audit: recovered without recovery_started");
  NLC_CHECK_MSG(!folding_, "audit: recovery finished with an open fold");
  NLC_CHECK_MSG(next_commit_ > 0 && committed_epoch == next_commit_ - 1,
                "audit: restore point is not the newest committed epoch "
                "(exactly-once commit violated)");
  in_recovery_ = false;
  recovered_ = true;
  ++checks_;
}

// ---------------------------------------------------------------------------
// PayloadFreezeGuard

void PayloadFreezeGuard::pin(const kern::PagePayload& payload) {
  if (!payload) return;
  const kern::PageBytes* key = payload.get();
  auto [it, inserted] = entries_.try_emplace(key);
  if (!inserted && !it->second.ref.expired()) return;  // already pinned
  // First sight — or a new payload at the address of a retired one, which
  // is a new pin at the end of the order.
  it->second.ref = payload;
  it->second.fingerprint = fnv1a_page(*payload);
  it->second.seq = ++pins_;
  order_.push_back(Pin{key, pins_});
}

PayloadFreezeGuard::EntryMap::iterator PayloadFreezeGuard::live_entry(
    const Pin& pin) {
  auto it = entries_.find(pin.key);
  return it != entries_.end() && it->second.seq == pin.seq ? it
                                                           : entries_.end();
}

void PayloadFreezeGuard::verify_entry(EntryMap::iterator it) {
  std::shared_ptr<const kern::PageBytes> live = it->second.ref.lock();
  if (!live) {
    // Every pipeline stage dropped its handle; the payload may be gone.
    entries_.erase(it);
    return;
  }
  NLC_CHECK_MSG(fnv1a_page(*live) == it->second.fingerprint,
                "audit: frozen COW page payload mutated while the "
                "checkpoint pipeline still references it");
  ++verifications_;
}

void PayloadFreezeGuard::compact_order() {
  std::erase_if(order_, [&](const Pin& pin) {
    return live_entry(pin) == entries_.end();
  });
}

void PayloadFreezeGuard::verify_all() {
  // Walk the pin-order list, never the hash map: with pointer keys, map
  // order follows allocation addresses and would make the point at which a
  // corruption check fires (and which of several corruptions reports
  // first) differ run to run.
  compact_order();
  for (const Pin& pin : order_) {
    auto it = live_entry(pin);
    if (it != entries_.end()) verify_entry(it);
  }
  cycle_pos_ = 0;
}

void PayloadFreezeGuard::verify_budget(std::uint64_t budget) {
  for (std::uint64_t done = 0; done < budget; ++done) {
    if (cycle_pos_ >= order_.size()) {
      compact_order();
      cycle_pos_ = 0;
      if (order_.empty()) return;
    }
    auto it = live_entry(order_[cycle_pos_++]);
    if (it != entries_.end()) verify_entry(it);
  }
}

// ---------------------------------------------------------------------------
// ReplayEquivalenceChecker

void ReplayEquivalenceChecker::log_shipped(const core::LogSegmentMsg& seg) {
  NLC_CHECK_MSG(seg.seq == next_seq_,
                "audit: shipped log segment out of sequence");
  NLC_CHECK_MSG(seg.start_index == p_entries_ && seg.start_fp == p_fp_,
                "audit: log segment does not continue the primary's "
                "shipped event chain");
  for (const core::NdEvent& e : seg.entries) {
    p_fp_ = core::nd_chain_fold(p_fp_, e);
    ++p_entries_;
    // Checkpoint stamps taken while these entries were still pending in
    // the primary's log become verifiable as the chain reaches them.
    while (!pending_stamps_.empty() &&
           pending_stamps_.front().first == p_entries_) {
      NLC_CHECK_MSG(pending_stamps_.front().second == p_fp_,
                    "audit: checkpoint nondet stamp is off the shipped "
                    "event chain");
      pending_stamps_.pop_front();
      ++checks_;
    }
  }
  NLC_CHECK_MSG(p_fp_ == seg.end_fp,
                "audit: log segment end fingerprint does not match an "
                "independent refold of its entries");
  ++next_seq_;
  ++checks_;
}

void ReplayEquivalenceChecker::checkpoint_stamped(std::uint64_t nd_entries,
                                                  std::uint64_t nd_fp) {
  if (nd_entries <= p_entries_) {
    // The stamp's position is already covered by shipped segments, so the
    // fingerprints must agree right now; a position strictly behind the
    // shipped prefix means the agent stamped a stale chain state.
    NLC_CHECK_MSG(nd_entries == p_entries_ && nd_fp == p_fp_,
                  "audit: checkpoint nondet stamp is off the shipped "
                  "event chain");
    ++checks_;
    return;
  }
  if (!pending_stamps_.empty()) {
    NLC_CHECK_MSG(nd_entries >= pending_stamps_.back().first,
                  "audit: checkpoint nondet stamps went backwards");
  }
  pending_stamps_.emplace_back(nd_entries, nd_fp);
}

void ReplayEquivalenceChecker::log_ingested(const core::LogSegmentMsg& seg,
                                            bool accepted) {
  std::uint64_t fp = seg.start_fp;
  for (const core::NdEvent& e : seg.entries) fp = core::nd_chain_fold(fp, e);
  const bool chain_ok = seg.seq == b_seq_ && seg.start_index == b_entries_ &&
                        seg.start_fp == b_fp_ && fp == seg.end_fp;
  NLC_CHECK_MSG(accepted == chain_ok,
                "audit: backup's segment accept decision disagrees with an "
                "independent chain validation");
  if (accepted) {
    b_seq_ = seg.seq + 1;
    b_entries_ = seg.start_index + seg.entries.size();
    b_fp_ = seg.end_fp;
  }
  ++checks_;
}

void ReplayEquivalenceChecker::committed(std::uint64_t nd_entries,
                                         std::uint64_t nd_fp) {
  NLC_CHECK_MSG(nd_entries >= committed_entries_,
                "audit: committed nondet chain stamp went backwards");
  committed_entries_ = nd_entries;
  committed_fp_ = nd_fp;
  ++checks_;
}

void ReplayEquivalenceChecker::replayed(std::uint64_t final_fp,
                                        std::uint64_t entries_replayed) {
  // Replay runs from the committed checkpoint's stamp to the accepted end
  // of the backup's chain. When the committed stamp already covers (or
  // overtakes — entries recorded but never flushed before the crash) the
  // accepted prefix, replay must be empty and end on the stamp itself.
  const bool beyond = b_entries_ > committed_entries_;
  const std::uint64_t expect_entries =
      beyond ? b_entries_ - committed_entries_ : 0;
  NLC_CHECK_MSG(entries_replayed == expect_entries,
                "audit: failover replay covered the wrong entry span");
  const std::uint64_t expect_fp = beyond ? b_fp_ : committed_fp_;
  NLC_CHECK_MSG(final_fp == expect_fp,
                "audit: failover replay ended off the accepted event chain");
  ++checks_;
}

// ---------------------------------------------------------------------------
// StoreEquivalenceChecker

void StoreEquivalenceChecker::check(const criu::PageStore& store,
                                    const criu::CheckpointImage& img) {
  for (const criu::PageRecord& rec : img.pages) {
    const criu::PageRecord* got = store.lookup(rec.page);
    NLC_CHECK_MSG(got != nullptr,
                  "audit: folded page missing from the page store");
    NLC_CHECK_MSG(got->version == rec.version,
                  "audit: page store holds the wrong version after fold");
    if (rec.has_content()) {
      NLC_CHECK_MSG(got->content != nullptr,
                    "audit: content page stored without its payload");
      // Zero-copy fold stores the shared handle itself; a differing handle
      // is legal only if the bytes still match exactly.
      if (got->content != rec.content) {
        NLC_CHECK_MSG(*got->content == *rec.content,
                      "audit: page store bytes diverged from the shipped "
                      "image (delta/fold equivalence violated)");
      }
    } else {
      NLC_CHECK_MSG(got->content == nullptr,
                    "audit: accounting page grew a payload in the store");
    }
    ++checks_;
  }
}

void StoreEquivalenceChecker::resilvered(const criu::PageStore& survivor,
                                         const criu::PageStore& winner) {
  NLC_CHECK_MSG(survivor.page_count() == winner.page_count(),
                "audit: re-silvered store holds a different page count than "
                "the winner's");
  const std::vector<const criu::PageRecord*> got = survivor.all_pages();
  const std::vector<const criu::PageRecord*> want = winner.all_pages();
  NLC_CHECK_MSG(got.size() == want.size(),
                "audit: re-silvered store walks a different number of pages "
                "than the winner's");
  for (std::size_t i = 0; i < got.size(); ++i) {
    const criu::PageRecord& a = *got[i];
    const criu::PageRecord& b = *want[i];
    NLC_CHECK_MSG(a.page == b.page && a.version == b.version &&
                      a.wire_size == b.wire_size && a.content == b.content,
                  "audit: re-silvered store diverged from the winner's "
                  "(page, version, wire size or payload handle)");
  }
  ++checks_;
}

// ---------------------------------------------------------------------------
// QuorumCommitChecker

QuorumCommitChecker::QuorumCommitChecker(int replicas, int quorum_k)
    : n_(replicas), k_(quorum_k) {
  NLC_CHECK_MSG(replicas >= 1 && replicas <= 32,
                "audit: replica count out of range");
  NLC_CHECK_MSG(quorum_k >= 1 && quorum_k <= replicas,
                "audit: quorum K out of range");
  cursor_.assign(static_cast<std::size_t>(replicas), 0);
  any_.assign(static_cast<std::size_t>(replicas), false);
}

void QuorumCommitChecker::replica_ack(int r, std::uint64_t epoch) {
  NLC_CHECK_MSG(r >= 0 && r < n_, "audit: ack from unknown replica");
  const auto i = static_cast<std::size_t>(r);
  NLC_CHECK_MSG(!any_[i] || epoch >= cursor_[i],
                "audit: per-replica ack cursor went backwards");
  cursor_[i] = epoch;
  any_[i] = true;
  ++checks_;
}

void QuorumCommitChecker::quorum_advanced(std::uint64_t epoch) {
  // Independent re-derivation: the quorum cursor is the K-th largest
  // per-replica cursor, defined only once K replicas have acked at all.
  std::vector<std::uint64_t> acked;
  for (int r = 0; r < n_; ++r) {
    if (any_[static_cast<std::size_t>(r)]) {
      acked.push_back(cursor_[static_cast<std::size_t>(r)]);
    }
  }
  NLC_CHECK_MSG(static_cast<int>(acked.size()) >= k_,
                "audit: quorum declared before K replicas acked");
  std::sort(acked.begin(), acked.end(), std::greater<>());
  NLC_CHECK_MSG(acked[static_cast<std::size_t>(k_ - 1)] == epoch,
                "audit: declared quorum cursor is not the K-th largest "
                "replica cursor");
  NLC_CHECK_MSG(!any_quorum_ || epoch >= quorum_cursor_,
                "audit: quorum cursor went backwards");
  quorum_cursor_ = epoch;
  any_quorum_ = true;
  ++checks_;
}

void QuorumCommitChecker::replica_log_ack(int r, std::uint64_t seq) {
  NLC_CHECK_MSG(r >= 0 && r < n_, "audit: log ack from unknown replica");
  Seg& s = segs_[seq];
  const std::uint32_t bit = 1u << static_cast<unsigned>(r);
  NLC_CHECK_MSG((s.acks & bit) == 0,
                "audit: duplicate log ack from one replica");
  s.acks |= bit;
  ++checks_;
  if (s.released && std::popcount(s.acks) == n_) segs_.erase(seq);
}

void QuorumCommitChecker::log_release(std::uint64_t seq) {
  auto it = segs_.find(seq);
  NLC_CHECK_MSG(it != segs_.end(),
                "audit: release of a segment no replica acked");
  NLC_CHECK_MSG(!it->second.released,
                "audit: segment output released twice");
  NLC_CHECK_MSG(std::popcount(it->second.acks) >= k_,
                "audit: segment output released before K replica acks");
  it->second.released = true;
  ++checks_;
  if (std::popcount(it->second.acks) == n_) segs_.erase(it);
}

void QuorumCommitChecker::promoted(int winner,
                                   const std::vector<Candidate>& candidates) {
  const Candidate* w = nullptr;
  for (const Candidate& c : candidates) {
    if (c.index == winner) w = &c;
  }
  NLC_CHECK_MSG(w != nullptr, "audit: promoted a non-candidate replica");
  for (const Candidate& c : candidates) {
    NLC_CHECK_MSG(
        std::tuple(w->any_ack, w->acked_epoch, w->nd_entries) >=
            std::tuple(c.any_ack, c.acked_epoch, c.nd_entries),
        "audit: promotion must pick a most-caught-up replica");
    // A replica's own cursor can only be AHEAD of what the (now dead)
    // primary saw: acks in flight at the crash were sent but not observed.
    if (c.index >= 0 && c.index < n_ &&
        any_[static_cast<std::size_t>(c.index)]) {
      NLC_CHECK_MSG(
          c.acked_epoch >= cursor_[static_cast<std::size_t>(c.index)],
          "audit: candidate cursor behind the primary-side mirror");
    }
  }
  // Zero client-visible output loss: every epoch whose output a quorum
  // released is covered by the winner's cursor.
  if (any_quorum_) {
    NLC_CHECK_MSG(w->any_ack && w->acked_epoch >= quorum_cursor_,
                  "audit: promoted replica misses quorum-released output");
  }
  ++checks_;
}

// ---------------------------------------------------------------------------
// DeltaReplayChecker

void DeltaReplayChecker::replay(const criu::CheckpointImage& img,
                                bool delta_enabled) {
  for (const criu::PageRecord& rec : img.pages) {
    if (!rec.has_content()) {
      NLC_CHECK_MSG(rec.wire_size == nlc::kPageSize,
                    "audit: accounting page with a compressed wire size");
      continue;
    }
    if (!delta_enabled) {
      NLC_CHECK_MSG(rec.wire_size == nlc::kPageSize,
                    "audit: compressed wire size with the delta stage off");
      continue;
    }
    auto it = prev_.find(rec.page);
    const kern::PageBytes* ref = it == prev_.end() ? nullptr : it->second.get();
    criu::PageDelta d = criu::delta_encode(ref, *rec.content);
    NLC_CHECK_MSG(d.wire_size == rec.wire_size,
                  "audit: stamped wire size disagrees with a shadow encode");
    kern::PageBytes rebuilt = criu::delta_apply(ref, d, rec.content.get());
    NLC_CHECK_MSG(rebuilt == *rec.content,
                  "audit: delta codec failed the byte-exact round trip");
    prev_[rec.page] = rec.content;
    ++checks_;
  }
}

}  // namespace nlc::check
