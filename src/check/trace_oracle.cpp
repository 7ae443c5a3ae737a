#include "check/trace_oracle.hpp"

#include "util/assert.hpp"

namespace nlc::check {

using trace::EventType;
using trace::Stage;
using trace::Track;

OrderingRules::OrderingRules(int quorum_k) : quorum_k_(quorum_k) {
  NLC_CHECK_MSG(quorum_k >= 1, "trace oracle: quorum_k must be >= 1");
}

void OrderingRules::observe(const trace::Event& e) {
  const bool instant = e.type == EventType::kInstant;
  const bool begin = e.type == EventType::kSpanBegin;
  if (e.track == Track::kPrimary && instant && e.stage == Stage::kAckRecv) {
    if (!any_ack_ || e.arg > acked_) acked_ = e.arg;
    any_ack_ = true;
  } else if (e.track == Track::kPrimary && instant &&
             e.stage == Stage::kReplicaAck) {
    if (quorum_k_ > 1 && (!any_quorate_ || e.arg > quorate_) &&
        ++replica_acks_[e.arg] >= quorum_k_) {
      quorate_ = e.arg;
      any_quorate_ = true;
      replica_acks_.erase(replica_acks_.begin(),
                          replica_acks_.upper_bound(e.arg));
    }
  } else if (e.track == Track::kDetector && instant &&
             e.stage == Stage::kPromote) {
    promoted_ = true;
  } else if (e.track == Track::kBackup && begin &&
             e.stage == Stage::kResilver) {
    NLC_CHECK_MSG(promoted_,
                  "trace oracle: resilver span opened before the arbiter "
                  "recorded a promotion");
    ++stats_.promotion_checks;
  } else if (e.track == Track::kPrimary && instant &&
             e.stage == Stage::kLogAckRecv) {
    if (!any_log_ack_ || e.arg > log_acked_) log_acked_ = e.arg;
    any_log_ack_ = true;
  } else if (e.track == Track::kPrimary && instant &&
             e.stage == Stage::kLogRelease) {
    NLC_CHECK_MSG(any_log_ack_ && log_acked_ >= e.arg,
                  "trace oracle: log segment output released before its "
                  "ack reached the primary");
    ++stats_.log_release_checks;
  } else if (e.track == Track::kDrbd && instant &&
             e.stage == Stage::kDrbdBarrier) {
    if (!any_barrier_ || e.arg > barrier_) barrier_ = e.arg;
    any_barrier_ = true;
  } else if (e.track == Track::kPrimary && instant &&
             e.stage == Stage::kRelease) {
    NLC_CHECK_MSG(any_ack_ && acked_ >= e.arg,
                  "trace oracle: epoch output released before its ack "
                  "reached the primary");
    ++stats_.release_checks;
    if (quorum_k_ > 1) {
      NLC_CHECK_MSG(any_quorate_ && quorate_ >= e.arg,
                    "trace oracle: epoch output released before a quorum "
                    "of replica acks arrived");
      ++stats_.quorum_release_checks;
    }
  } else if (e.track == Track::kBackup && begin &&
             e.stage == Stage::kCommit) {
    NLC_CHECK_MSG(any_barrier_ && barrier_ >= e.arg,
                  "trace oracle: epoch commit began before its DRBD "
                  "barrier arrived at the backup");
    ++stats_.commit_checks;
  }
}

TraceOrderStats audit_trace_ordering(const std::vector<trace::Event>& events,
                                     int quorum_k) {
  OrderingRules rules(quorum_k);
  for (const trace::Event& e : events) rules.observe(e);
  return rules.stats();
}

}  // namespace nlc::check
