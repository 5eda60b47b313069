// Equivalence property test: the timing-wheel scheduler must be
// observationally identical to a reference model of its contract.
//
// Strategy: generate a random operation script (schedule with delays that
// straddle every wheel level, cancel, restart-from-callback, run-for) and
// replay it against the Simulator and against `Model`, an ordered set of
// live (time, schedule order, label) entries. The contract under test is
// the one DESIGN.md states: events run in (time, schedule-order) order,
// negative delays clamp to now, cancels are exact, and same-instant events
// preserve scheduling order. Any divergence shows up as a mismatch in the
// (now, label) firing traces, which are also pinned to digests recorded
// from the original priority-queue scheduler.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <random>
#include <utility>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/timer.hpp"
#include "test_util.hpp"

namespace tfo::sim {
namespace {

using Trace = std::vector<std::pair<SimTime, std::uint32_t>>;

// One scripted operation, interpreted identically by both harnesses.
struct Op {
  enum Kind { kSchedule, kChainSchedule, kCancel, kRunFor } kind;
  std::int64_t delay = 0;       // kSchedule / kChainSchedule / kRunFor
  std::int64_t child_delay = 0; // kChainSchedule: delay of the event the
                                // callback schedules (restart pattern)
  std::uint64_t pick = 0;       // kCancel: index into the id list (mod size)
  std::uint32_t label = 0;
};

/// Replays a script against the simulator, recording every firing as
/// (now(), label). Chained events append ids in firing order, so a
/// kCancel pick resolves to the same logical event in the model as long
/// as the traces agree — and if they don't, the trace mismatch is the
/// failure we're looking for.
struct Harness {
  Simulator sim;
  Trace trace;
  std::vector<EventId> ids;

  void schedule(std::int64_t delay, std::uint32_t label) {
    ids.push_back(sim.schedule_after(delay, [this, label] {
      trace.emplace_back(sim.now(), label);
    }));
  }

  void chain_schedule(std::int64_t delay, std::int64_t child_delay,
                      std::uint32_t label) {
    ids.push_back(sim.schedule_after(delay, [this, child_delay, label] {
      trace.emplace_back(sim.now(), label);
      // Restart-from-callback: scheduling from inside a firing event.
      schedule(child_delay, label ^ 0x80000000u);
    }));
  }

  void apply(const Op& op) {
    switch (op.kind) {
      case Op::kSchedule: schedule(op.delay, op.label); break;
      case Op::kChainSchedule:
        chain_schedule(op.delay, op.child_delay, op.label);
        break;
      case Op::kCancel:
        if (!ids.empty()) sim.cancel(ids[op.pick % ids.size()]);
        break;
      case Op::kRunFor: sim.run_for(op.delay); break;
    }
  }
};

/// Reference model of the scheduler contract. Live events sit in a map
/// ordered by (time, schedule order); cancel erases exactly the named
/// entry (a no-op once it fired or was cancelled); running pops the
/// minimum. Ids are the map keys, which are never reused.
struct Model {
  struct Pending {
    std::uint32_t label;
    bool chain;                // fires a child (the restart pattern)
    std::int64_t child_delay;  // delay of that child
  };
  using Key = std::pair<SimTime, std::uint64_t>;  // (time, schedule order)

  SimTime now = 0;
  std::uint64_t next_order = 1;
  std::map<Key, Pending> live;
  Trace trace;
  std::vector<Key> ids;

  void schedule(std::int64_t delay, Pending p) {
    const Key key{delay <= 0 ? now : now + static_cast<SimTime>(delay),
                  next_order++};
    live.emplace(key, p);
    ids.push_back(key);
  }

  void fire_next() {
    const auto [key, p] = *live.begin();
    live.erase(live.begin());
    now = key.first;
    trace.emplace_back(now, p.label);
    if (p.chain) schedule(p.child_delay, {p.label ^ 0x80000000u, false, 0});
  }

  void run_for(std::int64_t d) {
    const SimTime until = d <= 0 ? now : now + static_cast<SimTime>(d);
    while (!live.empty() && live.begin()->first.first <= until) fire_next();
    if (now < until) now = until;
  }

  void run() {
    while (!live.empty()) fire_next();
  }

  void apply(const Op& op) {
    switch (op.kind) {
      case Op::kSchedule: schedule(op.delay, {op.label, false, 0}); break;
      case Op::kChainSchedule:
        schedule(op.delay, {op.label, true, op.child_delay});
        break;
      case Op::kCancel:
        if (!ids.empty()) live.erase(ids[op.pick % ids.size()]);
        break;
      case Op::kRunFor: run_for(op.delay); break;
    }
  }
};

/// Digest of a firing trace: per firing, 8 bytes of time then 4 of label.
std::uint64_t trace_digest(const Trace& trace) {
  test::Fnv1a f;
  for (const auto& [t, label] : trace) {
    f.le(t, 8);
    f.le(label, 4);
  }
  return f.h;
}

/// Delay palette spanning the wheel geometry: negative (clamp), zero
/// (same-instant ordering), sub-tick, every level's slot width, and
/// beyond the wheel horizon (straight-to-heap path).
std::int64_t pick_delay(std::mt19937_64& rng) {
  const std::uint64_t r = rng();
  switch (r % 8) {
    case 0: return -static_cast<std::int64_t>(r % 1'000'000);  // clamped
    case 1: return 0;
    case 2: return static_cast<std::int64_t>(r % 1000);          // sub-tick
    case 3: return static_cast<std::int64_t>(r % (1ull << 16));  // ~1 tick
    case 4: return static_cast<std::int64_t>(r % (1ull << 22));  // level 0/1
    case 5: return static_cast<std::int64_t>(r % (1ull << 30));  // level 2/3
    case 6: return static_cast<std::int64_t>(r % (1ull << 40));  // level 4/5
    default:
      // Past the wheel horizon (2^(16+36) ns): exact-heap fallback.
      return static_cast<std::int64_t>((1ull << 53) + r % (1ull << 40));
  }
}

std::vector<Op> make_script(std::uint64_t seed, int steps) {
  std::mt19937_64 rng(seed);
  std::vector<Op> script;
  script.reserve(steps);
  std::uint32_t label = 0;
  for (int i = 0; i < steps; ++i) {
    const std::uint64_t r = rng();
    Op op;
    if (r % 10 < 4) {
      op.kind = Op::kSchedule;
      op.delay = pick_delay(rng);
      op.label = ++label;
    } else if (r % 10 < 6) {
      op.kind = Op::kChainSchedule;
      op.delay = pick_delay(rng);
      op.child_delay = pick_delay(rng);
      op.label = ++label;
    } else if (r % 10 < 8) {
      op.kind = Op::kCancel;
      op.pick = rng();
    } else {
      op.kind = Op::kRunFor;
      op.delay = static_cast<std::int64_t>(rng() % (1ull << 32));
    }
    script.push_back(op);
  }
  return script;
}

struct SeedDigest {
  std::uint64_t seed;
  std::uint64_t digest;  // trace_digest of the script's full firing trace
};

class SchedulerEquivalence : public ::testing::TestWithParam<SeedDigest> {};

TEST_P(SchedulerEquivalence, IdenticalTraces) {
  const auto script = make_script(GetParam().seed, 600);
  Harness wheel;
  Model model;
  for (const Op& op : script) {
    wheel.apply(op);
    model.apply(op);
    ASSERT_EQ(wheel.sim.now(), model.now);
    ASSERT_EQ(wheel.sim.pending(), model.live.size());
  }
  // Drain both to completion (chains are finite: one child per parent).
  wheel.sim.run();
  model.run();

  EXPECT_EQ(wheel.trace, model.trace);
  EXPECT_EQ(wheel.sim.now(), model.now);
  EXPECT_EQ(wheel.sim.pending(), 0u);
  EXPECT_EQ(wheel.sim.stats().fired, model.trace.size());
  // The digests were recorded from the original shared_ptr priority-queue
  // scheduler (commit e33e7f4); model and wheel must both still match it.
  EXPECT_EQ(trace_digest(model.trace), GetParam().digest);
  EXPECT_EQ(trace_digest(wheel.trace), GetParam().digest);
  // The script must actually have exercised the wheel, not just the heap.
  EXPECT_GT(wheel.sim.stats().wheel_inserts, 0u);
}

// Printed as the bare seed so the instance names stay "Seeds/.../<i>".
void PrintTo(const SeedDigest& p, std::ostream* os) { *os << p.seed; }

INSTANTIATE_TEST_SUITE_P(
    Seeds, SchedulerEquivalence,
    ::testing::Values(SeedDigest{1, 0x20393b810ec71d4full},
                      SeedDigest{2, 0xa54915f04ebbbf89ull},
                      SeedDigest{3, 0x24ecd92b4ea03d49ull},
                      SeedDigest{5, 0xf0426e9c69d55283ull},
                      SeedDigest{8, 0x4cb8a05721e9a203ull},
                      SeedDigest{13, 0x81c5c4aa6ed9a753ull},
                      SeedDigest{21, 0x0d60bc58384823b1ull},
                      SeedDigest{34, 0x902055b292732c5bull},
                      SeedDigest{55, 0xce4d351145c9864eull},
                      SeedDigest{89, 0x0a91b28a54026ec5ull}));

TEST(SchedulerEquivalence, NegativeDelayClampsToNow) {
  Simulator sim;
  sim.run_until(1'000'000);
  std::vector<int> order;
  sim.schedule_after(-500, [&] { order.push_back(1); });
  sim.schedule_at(5, [&] { order.push_back(2); });  // past absolute time
  sim.schedule_after(0, [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(sim.now(), 1'000'000);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SchedulerEquivalence, SameTickPreservesScheduleOrder) {
  // Many events inside one wheel tick (2^16 ns) and at identical instants:
  // execution must follow schedule order exactly.
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 100; ++i) {
    sim.schedule_at((i % 7) * 100, [&order, i] { order.push_back(i); });
  }
  sim.run();
  // Stable sort of (time, schedule index) is the expected order.
  std::vector<int> expect;
  for (int t = 0; t < 7; ++t) {
    for (int i = 0; i < 100; ++i) {
      if (i % 7 == t) expect.push_back(i);
    }
  }
  EXPECT_EQ(order, expect);
}

TEST(SchedulerEquivalence, TimerRestartFromCallback) {
  // sim::Timer rides the wheel: restarting a timer from inside its own
  // callback (the retransmit pattern) must work.
  Simulator sim;
  Timer timer(sim);
  int fires = 0;
  std::function<void()> tick = [&] {
    if (++fires < 5) timer.start(1000, [&tick] { tick(); });
  };
  timer.start(1000, [&tick] { tick(); });
  sim.run();
  EXPECT_EQ(fires, 5);
  EXPECT_EQ(sim.now(), 5000);
  EXPECT_FALSE(timer.armed());
}

TEST(SchedulerEquivalence, CancelReleasesClosureEagerly) {
  // The cancelled event's closure must be destroyed at cancel time, not
  // when the deadline passes — a cancelled retransmit timer must not pin
  // its segment buffers for the rest of the run.
  Simulator sim;
  auto token = std::make_shared<int>(42);
  std::weak_ptr<int> observe = token;
  EventId id = sim.schedule_after(1'000'000'000, [token] { (void)*token; });
  token.reset();
  EXPECT_FALSE(observe.expired());
  sim.cancel(id);
  EXPECT_TRUE(observe.expired());
}

}  // namespace
}  // namespace tfo::sim
