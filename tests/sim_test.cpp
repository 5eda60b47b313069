// Unit tests for the discrete-event simulator.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/timer.hpp"

namespace tfo::sim {
namespace {

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(30, [&] { order.push_back(3); });
  sim.schedule_at(10, [&] { order.push_back(1); });
  sim.schedule_at(20, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30u);
}

TEST(Simulator, SameTimeIsFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(5, [&, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, ScheduleAfterUsesNow) {
  Simulator sim;
  SimTime seen = 0;
  sim.schedule_at(100, [&] {
    sim.schedule_after(50, [&] { seen = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(seen, 150u);
}

TEST(Simulator, PastTimesClampToNow) {
  Simulator sim;
  sim.schedule_at(100, [] {});
  sim.run();
  SimTime seen = 0;
  sim.schedule_at(5, [&] { seen = sim.now(); });  // in the past
  sim.run();
  EXPECT_EQ(seen, 100u);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool ran = false;
  const EventId id = sim.schedule_at(10, [&] { ran = true; });
  EXPECT_EQ(sim.pending(), 1u);
  sim.cancel(id);
  EXPECT_EQ(sim.pending(), 0u);
  sim.run();
  EXPECT_FALSE(ran);
}

TEST(Simulator, CancelIsIdempotent) {
  Simulator sim;
  const EventId id = sim.schedule_at(10, [] {});
  sim.cancel(id);
  sim.cancel(id);       // double cancel
  sim.cancel(999999);   // bogus id
  sim.run();
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, RunUntilStopsAtBoundary) {
  Simulator sim;
  int count = 0;
  sim.schedule_at(10, [&] { ++count; });
  sim.schedule_at(20, [&] { ++count; });
  sim.schedule_at(30, [&] { ++count; });
  sim.run_until(20);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(sim.now(), 20u);
  sim.run();
  EXPECT_EQ(count, 3);
}

TEST(Simulator, RunForAdvancesEvenWithoutEvents) {
  Simulator sim;
  sim.run_for(1000);
  EXPECT_EQ(sim.now(), 1000u);
}

TEST(Simulator, ReentrantScheduling) {
  Simulator sim;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 100) sim.schedule_after(1, chain);
  };
  sim.schedule_after(1, chain);
  sim.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(sim.now(), 100u);
}

TEST(Timer, StartStopRestart) {
  Simulator sim;
  Timer t(sim);
  int fired = 0;
  t.start(10, [&] { ++fired; });
  EXPECT_TRUE(t.armed());
  t.stop();
  EXPECT_FALSE(t.armed());
  sim.run();
  EXPECT_EQ(fired, 0);

  t.start(10, [&] { ++fired; });
  t.start(20, [&] { fired += 10; });  // restart supersedes
  sim.run();
  EXPECT_EQ(fired, 10);
  EXPECT_FALSE(t.armed());
}

TEST(Timer, DestructionCancels) {
  Simulator sim;
  bool fired = false;
  {
    Timer t(sim);
    t.start(10, [&] { fired = true; });
  }
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Timer, DeadlineReported) {
  Simulator sim;
  sim.schedule_at(7, [] {});
  sim.run();
  Timer t(sim);
  t.start(13, [] {});
  EXPECT_EQ(t.deadline(), 20u);
}

/// A timer owner whose callback re-arms its own timer (the retransmit
/// pattern): the Timer holds no callable, so the re-arm happens while the
/// scheduler is still running the closure that fired.
struct Ticker {
  explicit Ticker(Simulator& sim) : timer(sim) {}
  void arm() { timer.start(10, [this] { tick(); }); }
  void tick() {
    fired_at.push_back(timer.deadline());
    EXPECT_FALSE(timer.armed());
    if (fired_at.size() < 3) arm();
  }
  Timer timer;
  std::vector<SimTime> fired_at;
};

TEST(Timer, CallbackRearmsItsOwnTimer) {
  Simulator sim;
  Ticker t(sim);
  t.arm();
  sim.run();
  EXPECT_EQ(t.fired_at, (std::vector<SimTime>{10, 20, 30}));
  EXPECT_FALSE(t.timer.armed());
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Timer, CallbackMayDestroyTheTimersOwner) {
  // The connection-teardown pattern: the callback frees the object that
  // holds the timer. Nothing may touch the timer after the callback
  // returns (ASan builds catch a use after free here).
  struct Owner {
    explicit Owner(Simulator& sim) : timer(sim) {}
    Timer timer;
  };
  Simulator sim;
  auto owner = std::make_unique<Owner>(sim);
  std::unique_ptr<Owner>* slot = &owner;
  owner->timer.start(10, [slot] { slot->reset(); });
  int later = 0;
  sim.schedule_at(20, [&later] { ++later; });
  sim.run();
  EXPECT_EQ(owner, nullptr);
  EXPECT_EQ(later, 1);
  EXPECT_EQ(sim.now(), 20u);
}

}  // namespace
}  // namespace tfo::sim
