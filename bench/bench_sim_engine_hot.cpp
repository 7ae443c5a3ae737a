// Wall-clock microbenchmark of the simulation event loop's hot path.
//
// The event mix of every experiment is dominated by plain coroutine
// resumes (sleep_for wakeups and sync-primitive hand-offs) and by
// deliveries (packets and channel messages). The engine gives each a
// dedicated queue entry that needs no allocation and no refcount: a resume
// entry is (time, seq, domain, coroutine_handle), and a delivery entry
// names the Deliverer whose FIFO holds the payload. Same-time wakeups
// (every sync-primitive hand-off) take a FIFO lane that skips the heap.
// Timers take the generic call_at entry, and cancelled ones are purged
// from the heap once they make up half of it. This bench reports
// events/sec on a sleep-heavy workload, on a ping-pong workload that
// mixes Mailbox hand-offs with sleeps, on a channel ping-pong (a delivery
// and a wake-up per bounce), on timer-callback chains, and on TCP's
// retransmit pattern (arm a 200 ms timer, cancel it 1 us later).
//
// It gates nothing on wall clock. What each path does is checked
// deterministically instead: SimEngineCountersTest in tests/sim_test.cpp
// runs the sleep, ping-pong, channel and cancel/re-arm workloads and
// asserts that no resume or delivery allocates a timer, that every
// hand-off takes the lane, and that cancelled timers leave the heap.
//
// Modes: default ~2M events per workload; --smoke 200K (CI: does it run);
// --full / NLC_BENCH_FULL=1 ~20M.
#include <cstdio>

#include "bench/common.hpp"
#include "net/channel.hpp"
#include "net/link.hpp"
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

/// A token bounced over a pair of channels on 1 us links: each bounce is
/// a delivery entry plus the receiver's wake-up.
sim::task<> chan_ping(net::Channel<int>& out, net::Channel<int>& in,
                      long long bounces) {
  for (long long i = 0; i < bounces; ++i) {
    out.send(1, 0);
    (void)co_await in.recv();
  }
}

sim::task<> chan_pong(net::Channel<int>& in, net::Channel<int>& out,
                      long long bounces) {
  for (long long i = 0; i < bounces; ++i) {
    (void)co_await in.recv();
    out.send(1, 0);
  }
}

/// TCP's retransmit pattern: arm a 200 ms timer, cancel it 1 us later.
/// Only the sleeps count as events; the dead timers leave the heap by
/// the purge instead of waiting out their 200 ms.
sim::task<> rearm(sim::Simulation& sim, long long rounds) {
  for (long long i = 0; i < rounds; ++i) {
    sim::TimerHandle rto = sim.call_after(nlc::milliseconds(200), [] {});
    co_await sim.sleep_for(nlc::microseconds(1));
    rto.cancel();
  }
}

struct Score {
  double events_per_sec = 0;
  std::uint64_t events = 0;
};

Score timed_run(sim::Simulation& sim) {
  const std::uint64_t t0 = util::wall_now_ns();
  sim.run();
  Score s;
  s.events = sim.events_processed();
  double secs = util::wall_seconds_since(t0);
  s.events_per_sec = secs > 0 ? static_cast<double>(s.events) / secs : 0;
  return s;
}

/// Sleep-dominated workload: `tasks` coroutines, `wakeups` sleeps each.
Score run_sleep(int tasks, long long wakeups) {
  sim::Simulation sim;
  for (int t = 0; t < tasks; ++t) sim.spawn(sleeper(sim, wakeups));
  return timed_run(sim);
}

Score run_pingpong(int pairs, long long bounces) {
  sim::Simulation sim;
  std::vector<std::unique_ptr<sim::Mailbox<int>>> boxes;
  for (int p = 0; p < pairs * 2; ++p) {
    boxes.push_back(std::make_unique<sim::Mailbox<int>>(sim));
  }
  for (int p = 0; p < pairs; ++p) {
    sim.spawn(ping(sim, *boxes[p * 2], *boxes[p * 2 + 1], bounces));
    sim.spawn(pong(*boxes[p * 2], *boxes[p * 2 + 1], bounces));
  }
  return timed_run(sim);
}

Score run_channels(int pairs, long long bounces) {
  sim::Simulation sim;
  std::vector<std::unique_ptr<net::Link>> links;
  std::vector<std::unique_ptr<net::Channel<int>>> chans;
  for (int c = 0; c < pairs * 2; ++c) {
    links.push_back(std::make_unique<net::Link>(sim, net::kTenGigabit,
                                                nlc::microseconds(1)));
    chans.push_back(
        std::make_unique<net::Channel<int>>(sim, *links.back(), nullptr));
  }
  for (int p = 0; p < pairs; ++p) {
    sim.spawn(chan_ping(*chans[p * 2], *chans[p * 2 + 1], bounces));
    sim.spawn(chan_pong(*chans[p * 2], *chans[p * 2 + 1], bounces));
  }
  return timed_run(sim);
}

Score run_rearm(int tasks, long long rounds) {
  sim::Simulation sim;
  for (int t = 0; t < tasks; ++t) sim.spawn(rearm(sim, rounds));
  return timed_run(sim);
}

/// Timer-callback workload (call_after chains): the generic entry, one
/// TimerHandle::State and one std::function per event.
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
  return timed_run(sim);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace nlc::bench;
  const auto [smoke, full] = parse_size_flags(argc, argv);

  long long per_task = smoke ? 2'000 : full ? 200'000 : 20'000;
  const int kTasks = 100;  // sleepers; also 50 ping-pong pairs

  header("Engine hot path: resume, delivery and timer queue entries",
         "extension — simulation event-loop fast path");

  // Warm-up (page in, populate allocator caches) then best-of-3.
  (void)run_sleep(kTasks, per_task / 10);
  Score sleep{}, pp{}, chan{}, timers{}, rearms{};
  for (int r = 0; r < 3; ++r) {
    auto a = run_sleep(kTasks, per_task);
    if (a.events_per_sec > sleep.events_per_sec) sleep = a;
    auto b = run_pingpong(kTasks / 2, per_task);
    if (b.events_per_sec > pp.events_per_sec) pp = b;
    auto c = run_channels(kTasks / 2, per_task);
    if (c.events_per_sec > chan.events_per_sec) chan = c;
    auto t = run_timers(kTasks, per_task);
    if (t.events_per_sec > timers.events_per_sec) timers = t;
    auto e = run_rearm(kTasks, per_task);
    if (e.events_per_sec > rearms.events_per_sec) rearms = e;
  }

  std::printf("%-44s | %12s | %10s\n", "workload (best-of-3)", "events/sec",
              "events");
  std::printf("--------------------------------------------------------------"
              "--------\n");
  std::printf("%-44s | %10.2fM | %10llu\n", "sleep-heavy (resume entry)",
              sleep.events_per_sec / 1e6,
              static_cast<unsigned long long>(sleep.events));
  std::printf("%-44s | %10.2fM | %10llu\n",
              "ping-pong+sleep (resume entry + lane)",
              pp.events_per_sec / 1e6,
              static_cast<unsigned long long>(pp.events));
  std::printf("%-44s | %10.2fM | %10llu\n",
              "channel ping-pong (delivery entry + lane)",
              chan.events_per_sec / 1e6,
              static_cast<unsigned long long>(chan.events));
  std::printf("%-44s | %10.2fM | %10llu\n", "timer-callback chains (call_at)",
              timers.events_per_sec / 1e6,
              static_cast<unsigned long long>(timers.events));
  std::printf("%-44s | %10.2fM | %10llu\n",
              "cancel/re-arm 200 ms timers (purge)",
              rearms.events_per_sec / 1e6,
              static_cast<unsigned long long>(rearms.events));

  BenchJson json("sim_engine_hot");
  json.point("sleep_events_per_sec", sleep.events_per_sec);
  json.point("pingpong_events_per_sec", pp.events_per_sec);
  json.point("channel_events_per_sec", chan.events_per_sec);
  json.point("timer_events_per_sec", timers.events_per_sec);
  json.point("rearm_events_per_sec", rearms.events_per_sec);
  json.write();
  return 0;
}
