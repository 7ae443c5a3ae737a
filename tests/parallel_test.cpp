// Determinism regression tests for the parallel trial runner and the
// event loop: identical seeds must produce byte-identical metrics and
// event counts (a) serial vs parallel runner, (b) across repeats; and
// (c) events with equal times fire in scheduling order, whichever queue
// (heap or same-time lane) they took and whatever their kind (resume,
// timer or delivery), while cancelled timers are purged from the heap.
// Also unit-tests util::WorkerPool, the fan-out primitive under the
// runner: coverage, the exception contract and the nested-call policy.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <future>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/catalog.hpp"
#include "harness/experiment.hpp"
#include "harness/parallel.hpp"
#include "net/channel.hpp"
#include "net/link.hpp"
#include "sim/simulation.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"
#include "util/worker_pool.hpp"

namespace nlc {
namespace {

using harness::RunConfig;
using harness::RunResult;
using harness::TrialContext;
using harness::TrialRunner;

/// Exact (bit-for-bit) fingerprint of everything the benches report.
std::string fingerprint(const RunResult& r) {
  std::ostringstream os;
  os.precision(17);
  os << r.throughput_rps << '|' << r.requests_completed << '|'
     << r.mean_latency_ms << '|' << r.batch_runtime << '|'
     << r.metrics.epochs_completed << '|' << r.metrics.bytes_shipped << '|'
     << r.metrics.stop_time_ms.sum() << '|' << r.metrics.dirty_pages.sum()
     << '|' << r.metrics.state_bytes.sum() << '|' << r.recovered << '|'
     << r.kv_errors << '|' << r.broken_connections << '|' << r.sim_events;
  return os.str();
}

/// A small but representative trial mix: interactive + batch, protected +
/// stock, one fault-injection run.
std::vector<RunConfig> trial_mix() {
  std::vector<RunConfig> cfgs;
  {
    RunConfig cfg;
    cfg.spec = apps::netecho_spec();
    cfg.mode = harness::Mode::kNiLiCon;
    cfg.measure = nlc::milliseconds(800);
    cfg.client_connections = 2;
    cfg.seed = 11;
    cfgs.push_back(cfg);
  }
  {
    RunConfig cfg;
    cfg.spec = apps::streamcluster_spec();
    cfg.mode = harness::Mode::kNiLiCon;
    cfg.batch_work = nlc::milliseconds(300);
    cfg.seed = 22;
    cfgs.push_back(cfg);
  }
  {
    RunConfig cfg;
    cfg.spec = apps::netecho_spec();
    cfg.mode = harness::Mode::kStock;
    cfg.measure = nlc::milliseconds(800);
    cfg.seed = 33;
    cfgs.push_back(cfg);
  }
  {
    RunConfig cfg;
    cfg.spec = apps::netecho_spec();
    cfg.mode = harness::Mode::kNiLiCon;
    cfg.measure = nlc::seconds(3);
    cfg.inject_fault = true;
    cfg.seed = 44;
    cfgs.push_back(cfg);
  }
  return cfgs;
}

std::vector<std::string> run_mix(TrialRunner& runner) {
  auto cfgs = trial_mix();
  auto rs = runner.run(cfgs.size(), [&](TrialContext& ctx) {
    RunResult r = harness::run_experiment(cfgs[ctx.index]);
    ctx.sim_events = r.sim_events;
    return fingerprint(r);
  });
  return rs;
}

TEST(TrialRunnerDeterminism, SerialVsParallelByteIdentical) {
  TrialRunner serial(1);
  TrialRunner parallel(4);
  auto a = run_mix(serial);
  auto b = run_mix(parallel);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "trial " << i;
  }
  // events_processed flows through TrialContext identically.
  ASSERT_EQ(serial.stats().size(), parallel.stats().size());
  for (std::size_t i = 0; i < serial.stats().size(); ++i) {
    EXPECT_EQ(serial.stats()[i].sim_events, parallel.stats()[i].sim_events);
    EXPECT_GT(serial.stats()[i].sim_events, 0u);
  }
  EXPECT_GT(serial.total_sim_events(), 0u);
  EXPECT_EQ(serial.total_sim_events(), parallel.total_sim_events());
}

TEST(TrialRunnerDeterminism, RepeatsByteIdentical) {
  TrialRunner r1(4);
  TrialRunner r2(4);
  EXPECT_EQ(run_mix(r1), run_mix(r2));
}

TEST(TrialRunner, ResultsInSubmissionOrder) {
  TrialRunner runner(8);
  auto out = runner.run(64, [](std::size_t i) { return i * 3; });
  ASSERT_EQ(out.size(), 64u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * 3);
}

TEST(TrialRunner, LowestIndexExceptionPropagates) {
  TrialRunner runner(4);
  EXPECT_THROW(
      {
        try {
          runner.run(16, [](std::size_t i) -> int {
            if (i == 11) throw std::runtime_error("trial 11 failed");
            if (i == 5) throw std::runtime_error("trial 5 failed");
            return 0;
          });
        } catch (const std::runtime_error& e) {
          EXPECT_STREQ(e.what(), "trial 5 failed");
          throw;
        }
      },
      std::runtime_error);
}

TEST(TrialRunner, SerialPathCreatesNoThreads) {
  // NLC_JOBS=1 semantics: jobs()==1 runs inline; also n==1 with many jobs.
  TrialRunner runner(1);
  auto ids = runner.run(3, [](std::size_t) {
    return std::this_thread::get_id();
  });
  for (const auto& id : ids) EXPECT_EQ(id, std::this_thread::get_id());
}

TEST(TrialRunner, WallClockAccounting) {
  TrialRunner runner(2);
  runner.run(4, [](TrialContext& ctx) {
    ctx.sim_events = 100;
    return 0;
  });
  EXPECT_EQ(runner.total_sim_events(), 400u);
  EXPECT_GE(runner.batch_wall_seconds(), 0.0);
  EXPECT_GE(runner.total_trial_seconds(), 0.0);
}

// ---- util::WorkerPool -------------------------------------------------------

TEST(WorkerPoolTest, CoversEveryIndexExactlyOnce) {
  util::WorkerPool pool(3);
  constexpr std::size_t kN = 1000;
  // NLC_LINT_OK(concurrency-owner): exercises WorkerPool cross-thread
  std::vector<std::atomic<int>> hits(kN);
  pool.run(kN, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(WorkerPoolTest, ZeroHelpersRunsInline) {
  util::WorkerPool pool(0);
  EXPECT_EQ(pool.helpers(), 0);
  std::vector<int> hits(64, 0);
  pool.run(hits.size(), [&](std::size_t i) { hits[i] = 1; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(WorkerPoolTest, LowestIndexExceptionWins) {
  util::WorkerPool pool(3);
  try {
    pool.run(32, [](std::size_t i) {
      if (i == 3 || i == 7) throw std::runtime_error(std::to_string(i));
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "3");
  }
}

TEST(WorkerPoolTest, NestedRunExecutesInline) {
  // "Outermost fan-out wins": a run() issued from inside a running task of
  // the same pool must not deadlock or oversubscribe — it executes inline.
  util::WorkerPool pool(2);
  // NLC_LINT_OK(concurrency-owner): exercises nested-pool concurrency
  std::atomic<int> inner_total{0};
  pool.run(4, [&](std::size_t) {
    pool.run(8, [&](std::size_t) { inner_total.fetch_add(1); });
  });
  EXPECT_EQ(inner_total.load(), 4 * 8);
}

TEST(WorkerPoolTest, ConcurrentCallersBothComplete) {
  // Two external threads racing for the same pool: one wins the dispatch,
  // the other falls back to its own inline loop. Both must finish with
  // exact coverage.
  util::WorkerPool pool(2);
  auto batch = [&pool]() {
    // NLC_LINT_OK(concurrency-owner): exercises concurrent pool use
    std::vector<std::atomic<int>> hits(256);
    pool.run(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
    int total = 0;
    for (auto& h : hits) total += h.load();
    return total;
  };
  // NLC_LINT_OK(concurrency-owner): two racing batches, on purpose
  auto f1 = std::async(std::launch::async, batch);
  // NLC_LINT_OK(concurrency-owner): two racing batches, on purpose
  auto f2 = std::async(std::launch::async, batch);
  EXPECT_EQ(f1.get(), 256);
  EXPECT_EQ(f2.get(), 256);
}

// ---- (c) equal-time events fire in scheduling order ------------------------

/// One dispatched event: when it fired, and a tag drawn when it was
/// scheduled. Tags count up, so tag order is scheduling order.
struct Dispatch {
  Time time = 0;
  std::uint64_t tag = 0;
  bool zero_delay = false;  // due at the time it was scheduled
};

struct DispatchLog {
  std::vector<Dispatch> log;
  std::uint64_t next_tag = 0;
};

/// A channel message: the tag drawn when it was sent, and when that was.
struct Tagged {
  std::uint64_t tag = 0;
  Time sent_at = 0;
};

/// Every step: a resume 0-6 us ahead (0 takes the same-time lane) and a
/// message on a shared zero-latency link, which arrives at now() when it
/// is empty and the link idle. Every few steps, a timer under the
/// coroutine's domain that is either zero-delay or up to 10 us later.
/// Each step also re-arms a long retransmit-style timer and cancels the
/// previous one, enough cancels to purge the heap many times over.
sim::task<> ordering_worker(sim::Simulation& sim, DispatchLog& d, int id,
                            int steps, net::Channel<Tagged>& out, int& done,
                            int& cancelled_fired) {
  Rng rng(0x0DE5'0000u + static_cast<std::uint64_t>(id));
  sim::TimerHandle rto;
  for (int i = 0; i < steps; ++i) {
    if (rng.uniform(0, 2) == 0) {
      const Time delay =
          rng.uniform(0, 1) == 0 ? 0 : nlc::microseconds(rng.uniform(1, 10));
      const std::uint64_t tag = d.next_tag++;
      sim.call_after(delay, sim.current_domain(), [&sim, &d, tag, delay] {
        d.log.push_back({sim.now(), tag, delay == 0});
      });
    }
    out.send(Tagged{d.next_tag++, sim.now()},
             static_cast<std::uint64_t>(rng.uniform(0, 1)) * 125);
    rto.cancel();
    rto = sim.call_after(nlc::microseconds(500), sim.current_domain(),
                         [&cancelled_fired] { ++cancelled_fired; });
    const Time delay = nlc::microseconds(rng.uniform(0, 6));
    const std::uint64_t tag = d.next_tag++;
    co_await sim.sleep_for(delay);
    d.log.push_back({sim.now(), tag, delay == 0});
    ++done;
  }
  rto.cancel();
}

TEST(SimEngineDeterminism, EqualTimeEventsFireInSchedulingOrder) {
  constexpr int kWorkers = 6;
  constexpr int kSteps = 300;
  sim::Simulation sim;
  DispatchLog d;
  auto victim = std::make_shared<sim::Domain>("victim");
  // Every worker's messages share one link; each goes to its worker's
  // domain, so the victim's stop arriving once it dies.
  net::Link link(sim, net::kTenGigabit, 0);
  std::vector<std::unique_ptr<net::Channel<Tagged>>> channels;
  for (int id = 0; id < kWorkers; ++id) {
    channels.push_back(std::make_unique<net::Channel<Tagged>>(
        sim, link, id == kWorkers - 1 ? victim.get() : nullptr));
  }
  // Nobody receives on the channels, so a delivery only fills the inbox;
  // a probe after every event logs it where it was dispatched.
  std::size_t peak_pending = 0;
  sim.set_audit_probe(
      [&] {
        for (auto& ch : channels) {
          while (auto m = ch->try_recv()) {
            d.log.push_back({sim.now(), m->tag, m->sent_at == sim.now()});
          }
        }
        peak_pending = std::max(peak_pending, sim.pending());
      },
      1);
  std::vector<int> done(kWorkers, 0);
  int cancelled_fired = 0;
  for (int id = 0; id < kWorkers; ++id) {
    sim.spawn(id == kWorkers - 1 ? victim.get() : nullptr,
              ordering_worker(sim, d, id, kSteps, *channels[id], done[id],
                              cancelled_fired));
  }
  const std::uint64_t kill_tag = d.next_tag++;
  sim.call_after(nlc::microseconds(200), [&] {
    d.log.push_back({sim.now(), kill_tag, false});
    victim->kill();
  });
  sim.run();

  // Every dispatched event logged itself once, and the log is ordered by
  // (time, scheduling order).
  ASSERT_EQ(d.log.size(), sim.events_processed());
  EXPECT_TRUE(std::is_sorted(d.log.begin(), d.log.end(),
                             [](const Dispatch& a, const Dispatch& b) {
                               if (a.time != b.time) return a.time < b.time;
                               return a.tag < b.tag;
                             }));
  // The kill froze the victim and discarded its pending events; the other
  // workers ran to the end.
  EXPECT_LT(done[kWorkers - 1], kSteps);
  for (int id = 0; id + 1 < kWorkers; ++id) EXPECT_EQ(done[id], kSteps) << id;
  // No cancelled timer fired, and the cancelled ones left the heap: it
  // never held more than a fraction of the ~kWorkers * kSteps cancelled.
  EXPECT_EQ(cancelled_fired, 0);
  EXPECT_LT(peak_pending, std::size_t{kWorkers * kSteps / 4});
  // Some times saw both a heap entry and a same-time-lane entry fire.
  int mixed_times = 0;
  for (std::size_t i = 0; i < d.log.size();) {
    std::size_t j = i;
    bool lane = false;
    bool heap = false;
    for (; j < d.log.size() && d.log[j].time == d.log[i].time; ++j) {
      if (d.log[j].zero_delay) {
        lane = true;
      } else {
        heap = true;
      }
    }
    if (lane && heap) ++mixed_times;
    i = j;
  }
  EXPECT_GT(mixed_times, 0);
}

TEST(SimEngineDeterminism, ExperimentEventsStableAcrossRepeats) {
  RunConfig cfg;
  cfg.spec = apps::netecho_spec();
  cfg.mode = harness::Mode::kNiLiCon;
  cfg.measure = nlc::milliseconds(500);
  cfg.seed = 7;
  RunResult a = harness::run_experiment(cfg);
  RunResult b = harness::run_experiment(cfg);
  EXPECT_GT(a.sim_events, 0u);
  EXPECT_EQ(a.sim_events, b.sim_events);
  EXPECT_EQ(fingerprint(a), fingerprint(b));
}

}  // namespace
}  // namespace nlc
