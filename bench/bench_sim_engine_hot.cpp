// Wall-clock microbenchmark of the simulation event loop's hot path.
//
// The event mix of every experiment is dominated by plain coroutine
// resumes: sleep_for wakeups and sync-primitive (Event/Gate/Mailbox)
// hand-offs. The engine gives those a dedicated queue entry — (time, seq,
// domain, coroutine_handle) — that bypasses the shared_ptr<State> +
// type-erased std::function allocation the generic call_at path pays per
// event, and routes same-time wakeups (every sync-primitive hand-off)
// through a FIFO lane that skips the heap entirely. This bench measures
// events/sec on a sleep-heavy ping-pong workload with the fast path on vs
// off (Simulation::set_resume_fast_path, off = the legacy cost model) and
// on the timer path as a reference.
//
// Modes: default ~2M events per variant; --smoke 200K (CI, with a
// regression gate: the fast path must beat the generic path); --full /
// NLC_BENCH_FULL=1 ~20M.
#include <cstdio>

#include "bench/common.hpp"
#include "sim/simulation.hpp"
#include "sim/sync.hpp"
#include "util/time.hpp"

namespace {

using namespace nlc;

sim::task<> sleeper(sim::Simulation& sim, long long wakeups) {
  for (long long i = 0; i < wakeups; ++i) {
    co_await sim.sleep_for(nlc::microseconds(1));
  }
}

/// Two coroutines per pair bouncing a Mailbox token, with a sleep between
/// bounces — the sync-primitive + sleep mix of a real protocol loop.
sim::task<> ping(sim::Simulation& sim, sim::Mailbox<int>& out,
                 sim::Mailbox<int>& in, long long bounces) {
  for (long long i = 0; i < bounces; ++i) {
    out.send(1);
    (void)co_await in.recv();
    co_await sim.sleep_for(nlc::microseconds(1));
  }
}

sim::task<> pong(sim::Mailbox<int>& in, sim::Mailbox<int>& out,
                 long long bounces) {
  for (long long i = 0; i < bounces; ++i) {
    (void)co_await in.recv();
    out.send(1);
  }
}

struct Score {
  double events_per_sec = 0;
  std::uint64_t events = 0;
};

/// Sleep-dominated workload: `tasks` coroutines, `wakeups` sleeps each.
Score run_sleep(bool fast_path, int tasks, long long wakeups) {
  sim::Simulation sim;
  sim.set_resume_fast_path(fast_path);
  for (int t = 0; t < tasks; ++t) sim.spawn(sleeper(sim, wakeups));
  const std::uint64_t t0 = util::wall_now_ns();
  sim.run();
  Score s;
  s.events = sim.events_processed();
  double secs = util::wall_seconds_since(t0);
  s.events_per_sec = secs > 0 ? static_cast<double>(s.events) / secs : 0;
  return s;
}

Score run_pingpong(bool fast_path, int pairs, long long bounces) {
  sim::Simulation sim;
  sim.set_resume_fast_path(fast_path);
  std::vector<std::unique_ptr<sim::Mailbox<int>>> boxes;
  for (int p = 0; p < pairs * 2; ++p) {
    boxes.push_back(std::make_unique<sim::Mailbox<int>>(sim));
  }
  for (int p = 0; p < pairs; ++p) {
    sim.spawn(ping(sim, *boxes[p * 2], *boxes[p * 2 + 1], bounces));
    sim.spawn(pong(*boxes[p * 2], *boxes[p * 2 + 1], bounces));
  }
  const std::uint64_t t0 = util::wall_now_ns();
  sim.run();
  Score s;
  s.events = sim.events_processed();
  double secs = util::wall_seconds_since(t0);
  s.events_per_sec = secs > 0 ? static_cast<double>(s.events) / secs : 0;
  return s;
}

/// Timer-callback workload (call_after chains): unchanged by the fast
/// path; shows the cost floor of the generic entry.
Score run_timers(int chains, long long links) {
  sim::Simulation sim;
  struct Chain {
    sim::Simulation* sim;
    long long left;
    void fire() {
      if (--left <= 0) return;
      // NLC_LINT_OK(detached-this): chains outlive the run() below
      sim->call_after(nlc::microseconds(1), [this] { fire(); });
    }
  };
  std::vector<std::unique_ptr<Chain>> cs;
  for (int c = 0; c < chains; ++c) {
    cs.push_back(std::make_unique<Chain>(Chain{&sim, links}));
    Chain* ch = cs.back().get();
    sim.call_after(nlc::microseconds(1), [ch] { ch->fire(); });
  }
  const std::uint64_t t0 = util::wall_now_ns();
  sim.run();
  Score s;
  s.events = sim.events_processed();
  double secs = util::wall_seconds_since(t0);
  s.events_per_sec = secs > 0 ? static_cast<double>(s.events) / secs : 0;
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace nlc::bench;
  const auto [smoke, full] = parse_size_flags(argc, argv);

  long long per_task = smoke ? 2'000 : full ? 200'000 : 20'000;
  const int kTasks = 100;  // sleepers; also 50 ping-pong pairs

  header("Engine hot path: dedicated coroutine-resume queue entry",
         "extension — simulation event-loop fast path");

  // Warm-up (page in, populate allocator caches) then best-of-3.
  (void)run_sleep(true, kTasks, per_task / 10);
  Score sleep_fast{}, sleep_generic{}, pp_fast{}, pp_generic{};
  for (int r = 0; r < 3; ++r) {
    auto a = run_sleep(true, kTasks, per_task);
    if (a.events_per_sec > sleep_fast.events_per_sec) sleep_fast = a;
    auto b = run_sleep(false, kTasks, per_task);
    if (b.events_per_sec > sleep_generic.events_per_sec) sleep_generic = b;
    auto c = run_pingpong(true, kTasks / 2, per_task);
    if (c.events_per_sec > pp_fast.events_per_sec) pp_fast = c;
    auto d = run_pingpong(false, kTasks / 2, per_task);
    if (d.events_per_sec > pp_generic.events_per_sec) pp_generic = d;
  }
  Score timers = run_timers(kTasks, per_task);

  double sleep_speedup = sleep_fast.events_per_sec /
                         (sleep_generic.events_per_sec > 0
                              ? sleep_generic.events_per_sec
                              : 1);
  double pp_speedup = pp_fast.events_per_sec /
                      (pp_generic.events_per_sec > 0
                           ? pp_generic.events_per_sec
                           : 1);

  std::printf("%-44s | %12s | %10s\n", "workload (events best-of-3)",
              "events/sec", "speedup");
  std::printf("--------------------------------------------------------------"
              "--------\n");
  std::printf("%-44s | %10.2fM | %9s\n", "sleep-heavy, generic entry",
              sleep_generic.events_per_sec / 1e6, "1.00x");
  std::printf("%-44s | %10.2fM | %9.2fx\n", "sleep-heavy, fast-path entry",
              sleep_fast.events_per_sec / 1e6, sleep_speedup);
  std::printf("%-44s | %10.2fM | %9s\n", "ping-pong+sleep, generic entry",
              pp_generic.events_per_sec / 1e6, "1.00x");
  std::printf("%-44s | %10.2fM | %9.2fx\n", "ping-pong+sleep, fast-path entry",
              pp_fast.events_per_sec / 1e6, pp_speedup);
  std::printf("%-44s | %10.2fM | %9s\n", "timer-callback chains (reference)",
              timers.events_per_sec / 1e6, "n/a");

  BenchJson json("sim_engine_hot");
  json.point("sleep_generic_events_per_sec", sleep_generic.events_per_sec);
  json.point("sleep_fast_events_per_sec", sleep_fast.events_per_sec);
  json.point("pingpong_generic_events_per_sec", pp_generic.events_per_sec);
  json.point("pingpong_fast_events_per_sec", pp_fast.events_per_sec);
  json.point("timer_events_per_sec", timers.events_per_sec);
  json.scalar("sleep_speedup", sleep_speedup);
  json.scalar("pingpong_speedup", pp_speedup);
  json.write();

  // Regression gates for the smoke ctest target (the acceptance target is
  // >= 2x on the sleep-heavy ping-pong workload; the gates sit below the
  // measured speedups to absorb CI noise).
  NLC_CHECK_MSG(pp_fast.events_per_sec > 1.6 * pp_generic.events_per_sec,
                "resume fast path lost its advantage on the ping-pong "
                "workload");
  NLC_CHECK_MSG(sleep_fast.events_per_sec > 1.2 * sleep_generic.events_per_sec,
                "resume fast path lost its advantage on the sleep workload");
  return 0;
}
