#include "core/promotion.hpp"

#include <optional>
#include <tuple>

#include "core/backup_agent.hpp"
#include "core/options.hpp"
#include "util/assert.hpp"
#include "util/bytes.hpp"

namespace nlc::core {

void PromotionArbiter::report(int reporter) {
  NLC_CHECK(reporter >= 0 &&
            reporter < static_cast<int>(replicas_.size()));
  ++reports_;
  if (closed_) return;
  // The closer runs under the reporter's domain: if this reporter dies
  // while the election is open its closer dies with it, and another
  // reporter's closer closes the election instead.
  sim_->spawn(replicas_[static_cast<std::size_t>(reporter)].domain.get(),
              close_election());
}

sim::task<> PromotionArbiter::close_election() {
  // Hold the election open long enough for every surviving watchdog to
  // report (their miss counters run on the same heartbeat clock, so two
  // intervals bound the spread).
  co_await sim_->sleep_for(2 * kHeartbeatInterval);
  if (closed_) co_return;  // another reporter's closer won the race
  closed_ = true;

  std::vector<PromotionCandidate> candidates;
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    const Entry& e = replicas_[i];
    if (!e.domain->alive()) continue;  // died with (or after) the primary
    const std::optional<std::uint64_t> acked = e.agent->acked_epoch();
    candidates.push_back(PromotionCandidate{
        static_cast<int>(i), acked.has_value(), acked.value_or(0),
        e.agent->committed_nd_entries()});
  }
  NLC_CHECK_MSG(!candidates.empty(), "election with no surviving replica");

  // Most caught-up replica wins: the acked cursor first (it bounds every
  // epoch output may have been released for — a quorum needs K acks and
  // the winner's cursor is the max, so nothing released is lost), the
  // accepted log prefix as the replay-mode tiebreak, lowest index last
  // (deterministic).
  const PromotionCandidate* best = &candidates.front();
  for (const PromotionCandidate& c : candidates) {
    if (std::tuple(c.any_ack, c.acked_epoch, c.committed_nd_entries,
                   -c.index) > std::tuple(best->any_ack, best->acked_epoch,
                                          best->committed_nd_entries,
                                          -best->index)) {
      best = &c;
    }
  }
  winner_ = best->index;

  Entry& w = replicas_[static_cast<std::size_t>(winner_)];
  w.agent->note_promoted(winner_);
  obs_.instant(trace::Track::kDetector, trace::Stage::kPromote, sim_->now(),
               static_cast<std::uint64_t>(winner_),
               {.candidates = &candidates});
  w.agent->promote();
  // Re-silvering runs under the winner's domain: it is the new primary's
  // responsibility, and dies with it.
  sim_->spawn(w.domain.get(), resilver_survivors());
}

sim::task<> PromotionArbiter::resilver_survivors() {
  Entry& w = replicas_[static_cast<std::size_t>(winner_)];
  // The winner's committed stores are frozen (and consistent) only once
  // its restore has finished; poll on the heartbeat clock.
  while (!w.agent->recovered()) {
    co_await sim_->sleep_for(kHeartbeatInterval);
  }
  // Sequential full-state catch-up of each survivor, metered on the shared
  // replication link (they would contend there anyway; sequential is the
  // conservative model and keeps the transfers deterministic).
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    Entry& s = replicas_[i];
    if (static_cast<int>(i) == winner_ || !s.domain->alive()) continue;
    const std::uint64_t bytes =
        w.agent->page_store().page_count() * nlc::kPageSize;
    const Time xfer =
        kReplicationLinkLatency +
        static_cast<Time>(static_cast<double>(bytes) * 8.0 /
                          kReplicationLinkBps * 1e9);
    obs_.span_begin(trace::Track::kBackup, trace::Stage::kResilver,
                    sim_->now(), i);
    co_await sim_->sleep_for(xfer);
    s.agent->adopt_resilver(*w.agent);
    w.agent->record_resilver(bytes, xfer);
    ++resilvered_;
    obs_.span_end(trace::Track::kBackup, trace::Stage::kResilver,
                  sim_->now(), i);
  }
}

}  // namespace nlc::core
