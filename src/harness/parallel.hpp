// Deterministic parallel trial execution.
//
// Every experiment in this repo is a set of *independent* trials: each
// trial constructs its own sim::Simulation (its own Cluster, apps, RNGs)
// and runs it to completion. Parallelism is therefore strictly *across*
// simulations, never within one — a trial's event order, metrics and
// events_processed() are byte-identical whether it runs on the calling
// thread or on a worker, which is what keeps the reproduction's numbers
// seed-stable while the wall clock drops by ~#cores.
//
// Design: work-stealing-free. Workers pull trial indices from a single
// atomic counter (no deques, no stealing, no ordering dependence) and
// write results into a slot pre-addressed by the submission index, so
// `run()` returns results in submission order regardless of completion
// order. The first-failing-*index* exception is rethrown (not the first
// in wall-clock order, which would be racy).
//
// The fan-out itself lives in util::WorkerPool; TrialRunner owns a pool of
// jobs-1 helpers, created lazily on the first parallel run() and reused
// across batches, with the calling thread always participating. Each trial
// runs on one thread, page pipeline included (DESIGN.md §10).
//
// Concurrency knob: NLC_JOBS. Unset or 0 = hardware_concurrency;
// NLC_JOBS=1 forces the old serial path (trials run inline on the calling
// thread, no worker threads are created at all).
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/assert.hpp"
#include "util/time.hpp"
#include "util/worker_pool.hpp"

namespace nlc::harness {

/// Per-trial accounting filled in by the runner (wall clock) and by the
/// trial itself (simulation events, via TrialContext).
struct TrialStats {
  double wall_seconds = 0;
  std::uint64_t sim_events = 0;
};

/// Handed to each trial closure. `index` is the submission index;
/// `sim_events` should be set to Simulation::events_processed() before the
/// closure returns so the harness can report aggregate events/sec.
struct TrialContext {
  std::size_t index = 0;
  std::uint64_t sim_events = 0;
};

namespace detail {
/// Adapts a trial closure taking either (TrialContext&) or (std::size_t).
template <typename Fn>
auto invoke_trial(Fn& fn, TrialContext& ctx) {
  if constexpr (std::is_invocable_v<Fn&, TrialContext&>) {
    return fn(ctx);
  } else {
    return fn(ctx.index);
  }
}
}  // namespace detail

class TrialRunner {
 public:
  /// Reads NLC_JOBS, a whole integer >= 0; unset/0 means
  /// hardware_concurrency, minimum 1. Anything else exits 2.
  static int env_jobs();

  explicit TrialRunner(int jobs = env_jobs())
      : jobs_(jobs < 1 ? 1 : jobs) {}

  int jobs() const { return jobs_; }

  /// Executes trials 0..n-1. `fn` is invoked as fn(TrialContext&) or
  /// fn(std::size_t index), must be const-callable from multiple threads,
  /// and must not touch shared mutable state (each trial owns its world).
  /// Returns results in submission order. If any trial throws, the
  /// exception of the lowest-index failing trial is rethrown after all
  /// workers have drained.
  template <typename Fn>
  auto run(std::size_t n, Fn&& fn)
      -> std::vector<decltype(detail::invoke_trial(
          fn, std::declval<TrialContext&>()))> {
    using R = decltype(detail::invoke_trial(fn, std::declval<TrialContext&>()));
    std::vector<std::optional<R>> slots(n);
    std::vector<std::exception_ptr> errors(n);
    stats_.assign(n, TrialStats{});
    const std::uint64_t batch_start = util::wall_now_ns();

    auto one = [&](std::size_t i) {
      TrialContext ctx;
      ctx.index = i;
      const std::uint64_t t0 = util::wall_now_ns();
      try {
        slots[i].emplace(detail::invoke_trial(fn, ctx));
      } catch (...) {
        errors[i] = std::current_exception();
      }
      stats_[i].wall_seconds = util::wall_seconds_since(t0);
      stats_[i].sim_events = ctx.sim_events;
    };

    int workers = static_cast<int>(
        std::min<std::size_t>(static_cast<std::size_t>(jobs_), n));
    if (workers <= 1) {
      for (std::size_t i = 0; i < n; ++i) one(i);
    } else {
      if (pool_ == nullptr) {
        pool_ = std::make_unique<util::WorkerPool>(jobs_ - 1);
      }
      pool_->run(n, one);
    }

    batch_wall_seconds_ = util::wall_seconds_since(batch_start);

    for (std::size_t i = 0; i < n; ++i) {
      if (errors[i]) std::rethrow_exception(errors[i]);
    }
    std::vector<R> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      NLC_CHECK_MSG(slots[i].has_value(), "trial produced no result");
      out.push_back(std::move(*slots[i]));
    }
    return out;
  }

  /// Accounting for the most recent run().
  const std::vector<TrialStats>& stats() const { return stats_; }
  /// Wall clock of the whole batch (not the sum of per-trial times).
  double batch_wall_seconds() const { return batch_wall_seconds_; }
  /// Sum of per-trial wall clocks (= serial-equivalent time).
  double total_trial_seconds() const;
  std::uint64_t total_sim_events() const;
  /// Aggregate simulation events per wall-clock second of the batch.
  double events_per_second() const;

 private:
  int jobs_;
  /// Lazily created on the first parallel run(); reused across batches so
  /// repeated sweeps do not pay thread creation per call.
  std::unique_ptr<util::WorkerPool> pool_;
  std::vector<TrialStats> stats_;
  double batch_wall_seconds_ = 0;
};

}  // namespace nlc::harness
