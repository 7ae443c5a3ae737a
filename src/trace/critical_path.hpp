// Per-epoch critical-path analysis over a flight-recorder stream
// (DESIGN.md §11).
//
// For every epoch that both paused and released output, the commit latency
// (pause begin → release instant, the paper's client-visible delay) is
// decomposed into six consecutive simulated-time segments:
//
//   freeze    pause begin → harvest begin   (freeze + input-block + barrier)
//   harvest   dirty-page harvest cost
//   encode    delta encode (sim cost rides the ship span; usually ~0)
//   tail      harvest/encode end → ship begin (resume + staging handoff)
//   ship      state transfer on the replication wire
//   ack-wait  ship end → release (backup recv + barrier wait + ack flight)
//
// The dominant stage is the argmax — the answer to "which stage made epoch
// 4712's commit latency spike".
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "trace/events.hpp"

namespace nlc::trace {

enum PathStage : int {
  kPsFreeze,
  kPsHarvest,
  kPsEncode,
  kPsTail,
  kPsShip,
  kPsAckWait,
  kPsStageCount,
};

struct EpochAttribution {
  std::uint64_t epoch = 0;
  Time commit_latency = 0;  // pause begin → release, simulated ns
  std::array<Time, kPsStageCount> stage_ns{};
  int dominant = kPsFreeze;  // largest-share PathStage, earliest on a tie
};

/// Replay commit mode (DESIGN.md §14): per-log-segment decomposition of
/// the output-commit delay into the two segments that replace ship +
/// ack-wait — the log ship span (`log_ship`) and the wait for its ack
/// (`log_ack`: ship end → release instant).
struct LogSegmentAttribution {
  std::uint64_t seq = 0;
  Time ship_ns = 0;      // kLogShip span width
  Time ack_wait_ns = 0;  // ship end → kLogRelease instant
  Time total_ns = 0;     // ship begin → release
};

class CriticalPath {
 public:
  /// Builds the per-epoch attribution from a drained event stream. Epochs
  /// with a truncated record (no release, e.g. in-flight at failover) are
  /// skipped — a flight recorder only explains what it saw complete.
  explicit CriticalPath(const std::vector<Event>& events);

  const std::vector<EpochAttribution>& epochs() const { return epochs_; }

  /// Per-log-segment attribution (empty outside replay commit mode or when
  /// no segment completed its release while the recorder ran).
  const std::vector<LogSegmentAttribution>& log_segments() const {
    return log_segments_;
  }

  /// The attribution for one epoch, or nullptr if it wasn't recorded.
  const EpochAttribution* find(std::uint64_t epoch) const;

  /// Per-stage breakdown table (mean/p99/max ms, share of total latency,
  /// dominant-epoch count) for the bench harness and nlc_run to print.
  std::string table() const;

  static const char* stage_label(int ps);

 private:
  /// The replay-mode rows of table() (log-ship / log-ack breakdown).
  std::string log_table() const;
  std::vector<EpochAttribution> epochs_;
  std::vector<LogSegmentAttribution> log_segments_;
};

}  // namespace nlc::trace
