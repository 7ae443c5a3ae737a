#include "harness/parallel.hpp"

#include <limits>
#include <thread>

#include "util/cli.hpp"

namespace nlc::harness {

int TrialRunner::env_jobs() {
  const auto j = static_cast<int>(cli::env_int(
      "NLC_JOBS", 0, std::numeric_limits<int>::max(), 0));
  if (j >= 1) return j;
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

double TrialRunner::total_trial_seconds() const {
  double s = 0;
  for (const auto& t : stats_) s += t.wall_seconds;
  return s;
}

std::uint64_t TrialRunner::total_sim_events() const {
  std::uint64_t e = 0;
  for (const auto& t : stats_) e += t.sim_events;
  return e;
}

double TrialRunner::events_per_second() const {
  if (batch_wall_seconds_ <= 0) return 0;
  return static_cast<double>(total_sim_events()) / batch_wall_seconds_;
}

}  // namespace nlc::harness
