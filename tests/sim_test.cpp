#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "net/channel.hpp"
#include "net/link.hpp"
#include "sim/simulation.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "util/assert.hpp"

namespace nlc::sim {
namespace {

using namespace nlc::literals;

TEST(SimulationTest, TimeStartsAtZero) {
  Simulation sim;
  EXPECT_EQ(sim.now(), 0);
}

TEST(SimulationTest, CallbacksFireInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.call_after(20_ms, [&] { order.push_back(2); });
  sim.call_after(10_ms, [&] { order.push_back(1); });
  sim.call_after(30_ms, [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30_ms);
}

TEST(SimulationTest, SameTimeFifoOrder) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.call_after(5_ms, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(SimulationTest, NestedScheduling) {
  Simulation sim;
  Time inner_fired = -1;
  sim.call_after(10_ms, [&] {
    sim.call_after(5_ms, [&] { inner_fired = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(inner_fired, 15_ms);
}

TEST(SimulationTest, RunUntilStopsAtDeadline) {
  Simulation sim;
  int fired = 0;
  sim.call_after(10_ms, [&] { ++fired; });
  sim.call_after(50_ms, [&] { ++fired; });
  sim.run_until(20_ms);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 20_ms);
  sim.run_until(60_ms);
  EXPECT_EQ(fired, 2);
}

TEST(SimulationTest, CancelledTimerDoesNotFire) {
  Simulation sim;
  bool fired = false;
  auto h = sim.call_after(10_ms, [&] { fired = true; });
  EXPECT_TRUE(h.active());
  h.cancel();
  sim.run();
  EXPECT_FALSE(fired);
  EXPECT_FALSE(h.active());
}

TEST(SimulationTest, PastSchedulingRejected) {
  Simulation sim;
  sim.call_after(10_ms, [] {});
  sim.run();
  EXPECT_THROW(sim.call_at(5_ms, [] {}), InvariantError);
}

TEST(SimulationTest, StopBreaksRun) {
  Simulation sim;
  int fired = 0;
  sim.call_after(1_ms, [&] {
    ++fired;
    sim.stop();
  });
  sim.call_after(2_ms, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(DomainTest, DeadDomainEventsDiscarded) {
  Simulation sim;
  auto host = std::make_shared<Domain>("primary");
  int host_fired = 0, wire_fired = 0;
  sim.call_after(10_ms, host.get(), [&] { ++host_fired; });
  sim.call_after(10_ms, nullptr, [&] { ++wire_fired; });
  sim.call_after(5_ms, [&] { host->kill(); });
  sim.run();
  EXPECT_EQ(host_fired, 0);
  EXPECT_EQ(wire_fired, 1);
}

TEST(DomainTest, EventsBeforeKillStillFire) {
  Simulation sim;
  auto host = std::make_shared<Domain>("primary");
  int fired = 0;
  sim.call_after(1_ms, host.get(), [&] { ++fired; });
  sim.call_after(5_ms, [&] { host->kill(); });
  sim.run();
  EXPECT_EQ(fired, 1);
}

TEST(CoroutineTest, SpawnRunsEagerlyToFirstSuspend) {
  Simulation sim;
  int stage = 0;
  sim.spawn([](Simulation& s, int& st) -> task<> {
    st = 1;
    co_await s.sleep_for(10_ms);
    st = 2;
  }(sim, stage));
  EXPECT_EQ(stage, 1);  // ran before run()
  sim.run();
  EXPECT_EQ(stage, 2);
}

TEST(CoroutineTest, SleepAdvancesTime) {
  Simulation sim;
  Time woke = -1;
  sim.spawn([](Simulation& s, Time& w) -> task<> {
    co_await s.sleep_for(30_ms);
    co_await s.sleep_for(12_ms);
    w = s.now();
  }(sim, woke));
  sim.run();
  EXPECT_EQ(woke, 42_ms);
}

task<int> add_later(Simulation& sim, int a, int b) {
  co_await sim.sleep_for(1_ms);
  co_return a + b;
}

TEST(CoroutineTest, NestedTaskReturnsValue) {
  Simulation sim;
  int result = 0;
  sim.spawn([](Simulation& s, int& r) -> task<> {
    r = co_await add_later(s, 2, 3);
  }(sim, result));
  sim.run();
  EXPECT_EQ(result, 5);
}

task<> thrower(Simulation& sim) {
  co_await sim.sleep_for(1_ms);
  throw std::runtime_error("boom");
}

TEST(CoroutineTest, ExceptionPropagatesToAwaiter) {
  Simulation sim;
  bool caught = false;
  sim.spawn([](Simulation& s, bool& c) -> task<> {
    try {
      co_await thrower(s);
    } catch (const std::runtime_error&) {
      c = true;
    }
  }(sim, caught));
  sim.run();
  EXPECT_TRUE(caught);
}

TEST(CoroutineTest, UncaughtExceptionRethrownFromRun) {
  Simulation sim;
  sim.spawn(thrower(sim));
  EXPECT_THROW(sim.run(), std::runtime_error);
}

TEST(CoroutineTest, DomainKillFreezesCoroutine) {
  Simulation sim;
  auto host = std::make_shared<Domain>("h");
  int stage = 0;
  sim.spawn(host.get(), [](Simulation& s, int& st) -> task<> {
    st = 1;
    co_await s.sleep_for(10_ms);
    st = 2;  // must never run: host dies at 5ms
  }(sim, stage));
  sim.call_after(5_ms, [&] { host->kill(); });
  sim.run();
  EXPECT_EQ(stage, 1);
  sim.shutdown();  // frozen frame reclaimed without touching stage
  EXPECT_EQ(stage, 1);
}

TEST(CoroutineTest, SpawnOnDeadDomainIsNoop) {
  Simulation sim;
  auto host = std::make_shared<Domain>("h");
  host->kill();
  int stage = 0;
  sim.spawn(host.get(), [](Simulation& s, int& st) -> task<> {
    st = 1;
    co_await s.sleep_for(1_ms);
  }(sim, stage));
  sim.run();
  EXPECT_EQ(stage, 0);
}

TEST(CoroutineTest, ManySequentialTasks) {
  Simulation sim;
  int done = 0;
  for (int i = 0; i < 100; ++i) {
    sim.spawn([](Simulation& s, int& d, int delay) -> task<> {
      co_await s.sleep_for(milliseconds(delay));
      ++d;
    }(sim, done, i));
  }
  sim.run();
  EXPECT_EQ(done, 100);
}

TEST(EventTest, WaitersReleasedOnSet) {
  Simulation sim;
  Event ev(sim);
  int released = 0;
  for (int i = 0; i < 3; ++i) {
    sim.spawn([](Event& e, int& r) -> task<> {
      co_await e.wait();
      ++r;
    }(ev, released));
  }
  sim.call_after(10_ms, [&] { ev.set(); });
  sim.run();
  EXPECT_EQ(released, 3);
}

TEST(EventTest, WaitAfterSetCompletesImmediately) {
  Simulation sim;
  Event ev(sim);
  ev.set();
  Time when = -1;
  sim.spawn([](Simulation& s, Event& e, Time& w) -> task<> {
    co_await e.wait();
    w = s.now();
  }(sim, ev, when));
  sim.run();
  EXPECT_EQ(when, 0);
}

TEST(EventTest, ResetReArms) {
  Simulation sim;
  Event ev(sim);
  ev.set();
  ev.reset();
  EXPECT_FALSE(ev.is_set());
}

TEST(GateTest, ClosedGateParksUntilOpen) {
  Simulation sim;
  Gate gate(sim, /*open=*/false);
  Time passed = -1;
  sim.spawn([](Simulation& s, Gate& g, Time& p) -> task<> {
    co_await g.passage();
    p = s.now();
  }(sim, gate, passed));
  sim.call_after(7_ms, [&] { gate.open(); });
  sim.run();
  EXPECT_EQ(passed, 7_ms);
}

TEST(GateTest, OpenGatePassesImmediately) {
  Simulation sim;
  Gate gate(sim, true);
  bool passed = false;
  sim.spawn([](Gate& g, bool& p) -> task<> {
    co_await g.passage();
    p = true;
  }(gate, passed));
  EXPECT_TRUE(passed);  // ran synchronously during spawn
}

TEST(GateTest, ReleasedWaiterPassesEvenIfGateRecloses) {
  Simulation sim;
  Gate gate(sim, false);
  bool passed = false;
  sim.spawn([](Gate& g, bool& p) -> task<> {
    co_await g.passage();
    p = true;
  }(gate, passed));
  sim.call_after(1_ms, [&] {
    gate.open();
    gate.close();  // closes again before the wakeup event fires
  });
  sim.run();
  EXPECT_TRUE(passed);
}

TEST(MailboxTest, FifoDelivery) {
  Simulation sim;
  Mailbox<int> mb(sim);
  std::vector<int> got;
  sim.spawn([](Mailbox<int>& m, std::vector<int>& g) -> task<> {
    for (int i = 0; i < 3; ++i) g.push_back(co_await m.recv());
  }(mb, got));
  sim.call_after(1_ms, [&] {
    mb.send(10);
    mb.send(20);
    mb.send(30);
  });
  sim.run();
  EXPECT_EQ(got, (std::vector<int>{10, 20, 30}));
}

TEST(MailboxTest, QueuedValueReceivedWithoutSuspend) {
  Simulation sim;
  Mailbox<int> mb(sim);
  mb.send(42);
  int got = 0;
  sim.spawn([](Mailbox<int>& m, int& g) -> task<> {
    g = co_await m.recv();
  }(mb, got));
  EXPECT_EQ(got, 42);
}

TEST(MailboxTest, MultipleWaitersFifoHandoff) {
  Simulation sim;
  Mailbox<int> mb(sim);
  std::vector<int> got;
  for (int i = 0; i < 2; ++i) {
    sim.spawn([](Mailbox<int>& m, std::vector<int>& g) -> task<> {
      g.push_back(co_await m.recv());
    }(mb, got));
  }
  sim.call_after(1_ms, [&] {
    mb.send(1);
    mb.send(2);
  });
  sim.run();
  EXPECT_EQ(got, (std::vector<int>{1, 2}));
}

TEST(MailboxTest, TryRecv) {
  Simulation sim;
  Mailbox<std::string> mb(sim);
  EXPECT_FALSE(mb.try_recv().has_value());
  mb.send("x");
  auto v = mb.try_recv();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, "x");
}

TEST(MailboxTest, DeadReceiverDoesNotConsume) {
  Simulation sim;
  auto host = std::make_shared<Domain>("h");
  Mailbox<int> mb(sim);
  int got = -1;
  sim.spawn(host.get(), [](Mailbox<int>& m, int& g) -> task<> {
    g = co_await m.recv();
  }(mb, got));
  sim.call_after(1_ms, [&] { host->kill(); });
  sim.call_after(2_ms, [&] { mb.send(99); });
  sim.run();
  // The parked receiver was handed the value but its wakeup was discarded:
  // the value is lost with the host, exactly like data handed to a dead
  // kernel. The sender must use timeouts/acks for reliability.
  EXPECT_EQ(got, -1);
  sim.shutdown();
}

TEST(WaitGroupTest, WaitsForAll) {
  Simulation sim;
  WaitGroup wg(sim);
  int done_at = -1;
  wg.add(3);
  for (int i = 1; i <= 3; ++i) {
    sim.call_after(milliseconds(i * 10), [&wg] { wg.done(); });
  }
  sim.spawn([](Simulation& s, WaitGroup& w, int& d) -> task<> {
    co_await w.wait();
    d = static_cast<int>(to_millis(s.now()));
  }(sim, wg, done_at));
  sim.run();
  EXPECT_EQ(done_at, 30);
}

TEST(WaitGroupTest, EmptyGroupCompletesImmediately) {
  Simulation sim;
  WaitGroup wg(sim);
  bool done = false;
  sim.spawn([](WaitGroup& w, bool& d) -> task<> {
    co_await w.wait();
    d = true;
  }(wg, done));
  EXPECT_TRUE(done);
}

TEST(WaitGroupTest, UnbalancedDoneThrows) {
  Simulation sim;
  WaitGroup wg(sim);
  EXPECT_THROW(wg.done(), InvariantError);
}

TEST(SimulationTest, DeterministicEventCount) {
  auto run_once = [] {
    Simulation sim;
    Event ev(sim);
    for (int i = 0; i < 50; ++i) {
      sim.spawn([](Simulation& s, Event& e, int salt) -> task<> {
        co_await s.sleep_for(microseconds(salt * 7 % 13));
        co_await e.wait();
      }(sim, ev, i));
    }
    sim.call_after(1_ms, [&] { ev.set(); });
    sim.run();
    return sim.events_processed();
  };
  EXPECT_EQ(run_once(), run_once());
}

// The engine-hot bench's workloads, checked by what the resume path does:
// a coroutine resume allocates no TimerHandle::State (timers_scheduled()
// stays 0), and only the sleeps — wake-ups later than now() — enter the
// heap; every same-time hand-off takes the lane.

TEST(SimEngineCountersTest, SleepWorkloadSchedulesNoTimers) {
  constexpr int kTasks = 100;
  constexpr int kWakeups = 200;
  Simulation sim;
  for (int t = 0; t < kTasks; ++t) {
    sim.spawn([](Simulation& s, int n) -> task<> {
      for (int i = 0; i < n; ++i) co_await s.sleep_for(1_us);
    }(sim, kWakeups));
  }
  sim.run();
  const std::uint64_t sleeps = std::uint64_t{kTasks} * kWakeups;
  EXPECT_EQ(sim.events_processed(), sleeps);
  EXPECT_EQ(sim.timers_scheduled(), 0u);
  EXPECT_EQ(sim.heap_pushes(), sleeps);
}

TEST(SimEngineCountersTest, PingPongHandOffsTakeTheLane) {
  constexpr int kPairs = 50;
  constexpr int kBounces = 200;
  Simulation sim;
  std::vector<std::unique_ptr<Mailbox<int>>> boxes;
  for (int p = 0; p < kPairs * 2; ++p) {
    boxes.push_back(std::make_unique<Mailbox<int>>(sim));
  }
  for (int p = 0; p < kPairs; ++p) {
    Mailbox<int>& to_pong = *boxes[p * 2];
    Mailbox<int>& to_ping = *boxes[p * 2 + 1];
    sim.spawn([](Simulation& s, Mailbox<int>& out, Mailbox<int>& in,
                 int n) -> task<> {
      for (int i = 0; i < n; ++i) {
        out.send(1);
        (void)co_await in.recv();
        co_await s.sleep_for(1_us);
      }
    }(sim, to_pong, to_ping, kBounces));
    sim.spawn([](Mailbox<int>& in, Mailbox<int>& out, int n) -> task<> {
      for (int i = 0; i < n; ++i) {
        (void)co_await in.recv();
        out.send(1);
      }
    }(to_pong, to_ping, kBounces));
  }
  sim.run();
  const std::uint64_t sleeps = std::uint64_t{kPairs} * kBounces;
  EXPECT_EQ(sim.timers_scheduled(), 0u);
  EXPECT_EQ(sim.heap_pushes(), sleeps);
  // Per pair: one wake-up per sleep, plus the mailbox hand-offs — pong's
  // first token is already queued, so 2 * kBounces - 1 of them.
  EXPECT_EQ(sim.events_processed(),
            std::uint64_t{kPairs} * (3 * kBounces - 1));
}

// Channel messages are deliveries: each counts as an event when it
// arrives, none allocates a timer, and each one over a link with latency
// enters the heap while the receiver's wake-up takes the lane.
TEST(SimEngineCountersTest, ChannelMessagesAreDeliveriesNotTimers) {
  constexpr int kMessages = 1000;
  Simulation sim;
  net::Link link(sim, net::kGigabit, 5_us);
  net::Channel<int> ch(sim, link, nullptr);
  int sum = 0;
  sim.spawn([](net::Channel<int>& c, int n, int& total) -> task<> {
    for (int i = 0; i < n; ++i) total += co_await c.recv();
  }(ch, kMessages, sum));
  for (int i = 0; i < kMessages; ++i) ch.send(1, 125);  // 1 us apiece
  sim.run();
  EXPECT_EQ(sum, kMessages);
  EXPECT_EQ(sim.timers_scheduled(), 0u);
  EXPECT_EQ(sim.heap_pushes(), std::uint64_t{kMessages});
  // Per message: its delivery and the receiver's wake-up.
  EXPECT_EQ(sim.events_processed(), 2 * std::uint64_t{kMessages});
  EXPECT_EQ(sim.now(), 5_us + microseconds(kMessages));
}

// TCP's retransmit pattern: arm a 200 ms timer, cancel it 1 us later when
// the ACK arrives, arm a fresh one on the next send. Cancelled timers are
// purged from the heap once they make up half of it, so the queue stays
// bounded instead of holding one dead entry per ACK for 200 ms.
TEST(SimEngineCountersTest, CancelledRetransmitTimersLeaveTheHeap) {
  constexpr int kRearms = 5000;
  // At most the sleeper's wake-up and one armed timer are live at a time.
  constexpr std::size_t kLive = 2;
  Simulation sim;
  int fired = 0;
  std::size_t peak = 0;
  sim.spawn([](Simulation& s, int n, int& f, std::size_t& pk) -> task<> {
    for (int i = 0; i < n; ++i) {
      TimerHandle rto = s.call_after(200_ms, [&f] { ++f; });
      pk = std::max(pk, s.pending());
      co_await s.sleep_for(1_us);
      pk = std::max(pk, s.pending());
      rto.cancel();
      pk = std::max(pk, s.pending());
    }
  }(sim, kRearms, fired, peak));
  sim.run();
  EXPECT_EQ(fired, 0);
  EXPECT_LE(peak, 2 * kLive + 64);
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.timers_scheduled(), std::uint64_t{kRearms});
  // Only the sleeps ran; no cancelled timer counts as an event.
  EXPECT_EQ(sim.events_processed(), std::uint64_t{kRearms});
}

}  // namespace
}  // namespace nlc::sim
