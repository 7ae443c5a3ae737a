#include "trace/critical_path.hpp"

#include <algorithm>
#include <cstdio>
#include <map>

#include "util/stats.hpp"

namespace nlc::trace {

namespace {

constexpr Time kUnset = -1;

// Raw per-epoch timestamps scraped from the stream.
struct EpochTimes {
  Time pause_b = kUnset, pause_e = kUnset;
  Time harvest_b = kUnset, harvest_e = kUnset;
  Time encode_b = kUnset, encode_e = kUnset;
  Time ship_b = kUnset, ship_e = kUnset;
  Time release = kUnset;
};

// Raw per-log-segment timestamps (replay commit mode).
struct SegTimes {
  Time ship_b = kUnset, ship_e = kUnset;
  Time release = kUnset;
};

Time clamp0(Time t) { return t < 0 ? 0 : t; }

int dominant_stage(const std::array<Time, kPsStageCount>& stage_ns) {
  return static_cast<int>(
      std::max_element(stage_ns.begin(), stage_ns.end()) - stage_ns.begin());
}

}  // namespace

CriticalPath::CriticalPath(const std::vector<Event>& events) {
  std::map<std::uint64_t, EpochTimes> times;
  std::map<std::uint64_t, SegTimes> seg_times;
  for (const Event& e : events) {
    const bool begin = e.type == EventType::kSpanBegin;
    const bool end = e.type == EventType::kSpanEnd;
    if (e.track == Track::kPrimary) {
      if (e.stage == Stage::kLogRelease) {
        if (e.type == EventType::kInstant) seg_times[e.arg].release = e.sim_ns;
        continue;
      }
      // Log-segment instants are keyed by seq, not epoch: keep them out of
      // the epoch map.
      if (e.stage == Stage::kLogAckRecv) continue;
      EpochTimes& t = times[e.arg];
      switch (e.stage) {
        case Stage::kPause:
          if (begin) t.pause_b = e.sim_ns;
          if (end) t.pause_e = e.sim_ns;
          break;
        case Stage::kHarvest:
          if (begin) t.harvest_b = e.sim_ns;
          if (end) t.harvest_e = e.sim_ns;
          break;
        case Stage::kEncode:
          if (begin) t.encode_b = e.sim_ns;
          if (end) t.encode_e = e.sim_ns;
          break;
        case Stage::kRelease:
          if (e.type == EventType::kInstant) t.release = e.sim_ns;
          break;
        default:
          break;
      }
    } else if (e.track == Track::kPrimaryShip && e.stage == Stage::kShip) {
      EpochTimes& t = times[e.arg];
      if (begin) t.ship_b = e.sim_ns;
      if (end) t.ship_e = e.sim_ns;
    } else if (e.track == Track::kPrimaryShip && e.stage == Stage::kLogShip) {
      SegTimes& t = seg_times[e.arg];
      if (begin) t.ship_b = e.sim_ns;
      if (end) t.ship_e = e.sim_ns;
    }
  }

  for (const auto& [seq, t] : seg_times) {
    if (t.ship_b == kUnset || t.release == kUnset) continue;
    LogSegmentAttribution a;
    a.seq = seq;
    const Time ship_e = t.ship_e == kUnset ? t.ship_b : t.ship_e;
    a.ship_ns = clamp0(ship_e - t.ship_b);
    a.ack_wait_ns = clamp0(t.release - ship_e);
    a.total_ns = clamp0(t.release - t.ship_b);
    log_segments_.push_back(a);
  }

  for (const auto& [epoch, t] : times) {
    if (t.pause_b == kUnset || t.release == kUnset) continue;
    EpochAttribution a;
    a.epoch = epoch;
    a.commit_latency = clamp0(t.release - t.pause_b);
    const Time harvest_b = t.harvest_b == kUnset ? t.pause_b : t.harvest_b;
    const Time harvest_e = t.harvest_e == kUnset ? harvest_b : t.harvest_e;
    const Time encode_w =
        t.encode_b == kUnset ? 0 : clamp0(t.encode_e - t.encode_b);
    const Time work_end = std::max(
        harvest_e, t.encode_e == kUnset ? harvest_e : t.encode_e);
    const Time ship_b = t.ship_b == kUnset ? work_end : t.ship_b;
    const Time ship_e = t.ship_e == kUnset ? ship_b : t.ship_e;
    a.stage_ns[kPsFreeze] = clamp0(harvest_b - t.pause_b);
    a.stage_ns[kPsHarvest] = clamp0(harvest_e - harvest_b);
    a.stage_ns[kPsEncode] = encode_w;
    a.stage_ns[kPsTail] = clamp0(ship_b - work_end);
    a.stage_ns[kPsShip] = clamp0(ship_e - ship_b);
    a.stage_ns[kPsAckWait] = clamp0(t.release - ship_e);
    a.dominant = dominant_stage(a.stage_ns);
    epochs_.push_back(a);
  }
}

const EpochAttribution* CriticalPath::find(std::uint64_t epoch) const {
  for (const auto& a : epochs_) {
    if (a.epoch == epoch) return &a;
  }
  return nullptr;
}

const char* CriticalPath::stage_label(int ps) {
  switch (ps) {
    case kPsFreeze: return "freeze";
    case kPsHarvest: return "harvest";
    case kPsEncode: return "encode";
    case kPsTail: return "tail";
    case kPsShip: return "ship";
    case kPsAckWait: return "ack-wait";
  }
  return "?";
}

std::string CriticalPath::table() const {
  std::string out;
  char line[160];
  if (epochs_.empty() && log_segments_.empty()) {
    return "critical path: no complete epochs in trace\n";
  }
  if (epochs_.empty()) return log_table();
  std::array<Samples, kPsStageCount> per_stage;
  std::array<std::size_t, kPsStageCount> dominant_count{};
  Samples latency;
  for (const auto& a : epochs_) {
    latency.add(to_millis(a.commit_latency));
    ++dominant_count[static_cast<std::size_t>(a.dominant)];
    for (int s = 0; s < kPsStageCount; ++s) {
      per_stage[static_cast<std::size_t>(s)].add(
          to_millis(a.stage_ns[static_cast<std::size_t>(s)]));
    }
  }
  std::snprintf(line, sizeof line,
                "critical path: %zu epochs, commit latency mean %.3f ms "
                "p99 %.3f ms\n",
                epochs_.size(), latency.mean(), latency.percentile(99));
  out += line;
  std::snprintf(line, sizeof line, "  %-8s %10s %10s %10s %8s %9s\n",
                "stage", "mean ms", "p99 ms", "max ms", "share", "dominant");
  out += line;
  const double total = latency.sum();
  for (int s = 0; s < kPsStageCount; ++s) {
    const Samples& ps = per_stage[static_cast<std::size_t>(s)];
    std::snprintf(line, sizeof line,
                  "  %-8s %10.3f %10.3f %10.3f %7.1f%% %9zu\n",
                  stage_label(s), ps.mean(), ps.percentile(99), ps.max(),
                  total > 0 ? ps.sum() / total * 100.0 : 0.0,
                  dominant_count[static_cast<std::size_t>(s)]);
    out += line;
  }
  out += log_table();
  return out;
}

std::string CriticalPath::log_table() const {
  if (log_segments_.empty()) return "";
  std::string out;
  char line[160];
  Samples ship, ack_wait, total;
  for (const auto& a : log_segments_) {
    ship.add(to_millis(a.ship_ns));
    ack_wait.add(to_millis(a.ack_wait_ns));
    total.add(to_millis(a.total_ns));
  }
  std::snprintf(line, sizeof line,
                "log commit path: %zu segments, ship->release mean %.3f ms "
                "p99 %.3f ms\n",
                log_segments_.size(), total.mean(), total.percentile(99));
  out += line;
  const double sum = total.sum();
  const Samples* rows[] = {&ship, &ack_wait};
  const char* labels[] = {"log-ship", "log-ack"};
  for (int i = 0; i < 2; ++i) {
    const Samples& ps = *rows[i];
    std::snprintf(line, sizeof line,
                  "  %-8s %10.3f %10.3f %10.3f %7.1f%%\n",
                  labels[i], ps.mean(), ps.percentile(99), ps.max(),
                  sum > 0 ? ps.sum() / sum * 100.0 : 0.0);
    out += line;
  }
  return out;
}

}  // namespace nlc::trace
