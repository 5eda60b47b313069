// Unit tests for the impairment engine (net/impairment.hpp) and for the
// frame-lifetime rules the media must uphold while copies are in flight:
// deliveries to NICs detached or destroyed mid-pass, point-to-point
// endpoints destroyed before arrival, and stale per-port transmit state.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <type_traits>
#include <vector>

#include "net/frame.hpp"
#include "net/impairment.hpp"
#include "net/medium.hpp"
#include "net/nic.hpp"
#include "obs/metrics.hpp"
#include "sim/simulator.hpp"

namespace tfo::net {
namespace {

EthernetFrame frame_to(const Nic& dst, std::size_t len, std::uint8_t fill = 0xab) {
  EthernetFrame f;
  f.dst = dst.mac();
  f.payload = Bytes(len, fill);
  return f;
}

std::unique_ptr<Nic> quick_nic(sim::Simulator& sim, const std::string& name,
                               std::uint32_t id) {
  NicParams np;
  np.rx_processing = 0;
  return std::make_unique<Nic>(sim, name, MacAddress::from_id(id), np);
}

/// A representative frame for direct plan() probes.
const EthernetFrame& probe() {
  static const EthernetFrame f = [] {
    EthernetFrame p;
    p.payload = Bytes(64, 0x42);
    return p;
  }();
  return f;
}

// ------------------------------------------------------------ engine

TEST(ImpairmentEngine, DisabledEngineIsUntrackedPassthrough) {
  sim::Simulator sim;
  auto a = quick_nic(sim, "a", 1);
  Impairment eng;
  EXPECT_FALSE(eng.enabled());
  auto plan = eng.plan(nullptr, *a, probe());
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_FALSE(plan.tracked);
  EXPECT_EQ(plan.copies[0].extra_delay, 0);
  EXPECT_FALSE(plan.copies[0].corrupted);
  EXPECT_EQ(eng.counters().offered, 0u);  // untracked: not even offered
}

TEST(ImpairmentEngine, PlanHoldsBothCopiesInline) {
  // A plan is a value: its (at most two) copies live inside it, so
  // planning a delivery never touches the heap.
  static_assert(std::is_trivially_copyable_v<Impairment::Plan>);
  sim::Simulator sim;
  auto a = quick_nic(sim, "a", 1);
  ImpairmentParams p;
  p.duplicate = 1.0;
  p.duplicate_delay = microseconds(5);
  Impairment eng(p);
  const auto plan = eng.plan(nullptr, *a, probe());
  ASSERT_EQ(plan.size(), 2u);
  EXPECT_TRUE(plan.tracked);
  EXPECT_EQ(plan.copies[0].extra_delay, 0);
  EXPECT_EQ(plan.copies[1].extra_delay, microseconds(5));
  std::size_t visited = 0;
  for (const Impairment::Copy& c : plan) {
    EXPECT_FALSE(c.corrupted);
    ++visited;
  }
  EXPECT_EQ(visited, 2u);  // iteration stops at the live copies
}

TEST(ImpairmentEngine, SameSeedSamePlanSequence) {
  sim::Simulator sim;
  auto a = quick_nic(sim, "a", 1);
  ImpairmentParams p;
  p.loss = 0.2;
  p.duplicate = 0.2;
  p.reorder = 0.3;
  p.corrupt = 0.1;
  p.seed = 1234;
  Impairment e1(p), e2(p);
  for (int i = 0; i < 500; ++i) {
    auto p1 = e1.plan(nullptr, *a, probe());
    auto p2 = e2.plan(nullptr, *a, probe());
    ASSERT_EQ(p1.size(), p2.size()) << "diverged at draw " << i;
    for (std::size_t k = 0; k < p1.size(); ++k) {
      EXPECT_EQ(p1.copies[k].extra_delay, p2.copies[k].extra_delay);
      EXPECT_EQ(p1.copies[k].corrupted, p2.copies[k].corrupted);
    }
  }
  EXPECT_EQ(e1.counters().dropped, e2.counters().dropped);
}

TEST(ImpairmentEngine, DifferentSeedsDiverge) {
  sim::Simulator sim;
  auto a = quick_nic(sim, "a", 1);
  ImpairmentParams p;
  p.loss = 0.5;
  p.seed = 1;
  Impairment e1(p);
  p.seed = 2;
  Impairment e2(p);
  for (int i = 0; i < 200; ++i) {
    e1.plan(nullptr, *a, probe());
    e2.plan(nullptr, *a, probe());
  }
  EXPECT_NE(e1.counters().dropped, e2.counters().dropped);
}

TEST(ImpairmentEngine, GilbertElliottLossComesInBursts) {
  sim::Simulator sim;
  auto a = quick_nic(sim, "a", 1);
  // Bad state loses everything, good state nothing: every drop-run length
  // is a bad-state sojourn, geometrically distributed with mean 1/0.25 = 4.
  ImpairmentParams p;
  p.gilbert.p_enter_bad = 0.05;
  p.gilbert.p_exit_bad = 0.25;
  p.gilbert.loss_good = 0.0;
  p.gilbert.loss_bad = 1.0;
  p.seed = 99;
  Impairment eng(p);
  int longest_run = 0, run = 0, drops = 0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    const bool dropped = eng.plan(nullptr, *a, probe()).empty();
    if (dropped) {
      ++drops;
      longest_run = std::max(longest_run, ++run);
    } else {
      run = 0;
    }
  }
  // Uniform loss at the same average rate would make an 8-run astronomically
  // rare; the two-state chain produces them readily.
  EXPECT_GE(longest_run, 8);
  // Average rate is p_enter/(p_enter+p_exit) = 1/6; accept a wide band.
  EXPECT_GT(drops, n / 12);
  EXPECT_LT(drops, n / 3);
  EXPECT_EQ(eng.counters().dropped, static_cast<std::uint64_t>(drops));
}

TEST(ImpairmentEngine, ConservationHoldsUnderMixedImpairments) {
  sim::Simulator sim;
  auto a = quick_nic(sim, "a", 1);
  ImpairmentParams p;
  p.loss = 0.1;
  p.gilbert = {0.02, 0.3, 0.0, 0.9};
  p.duplicate = 0.2;
  p.reorder = 0.3;
  p.corrupt = 0.05;
  p.seed = 7;
  Impairment eng(p);
  for (int i = 0; i < 2000; ++i) {
    auto plan = eng.plan(nullptr, *a, probe());
    ASSERT_TRUE(plan.tracked);
    // The medium settles every surviving copy one way or the other.
    for (std::size_t k = 0; k < plan.size(); ++k) {
      if (k % 2 == 0) eng.note_delivered();
      else eng.note_detached();
    }
  }
  const auto c = eng.counters();
  EXPECT_EQ(c.offered, 2000u);
  EXPECT_GT(c.dropped, 0u);
  EXPECT_GT(c.duplicated, 0u);
  EXPECT_GT(c.reordered, 0u);
  EXPECT_GT(c.corrupted, 0u);
  EXPECT_TRUE(eng.conserved());
  EXPECT_EQ(c.offered + c.duplicated, c.delivered + c.dropped + c.detached);
}

TEST(ImpairmentEngine, RegistryMirrorsInternalCounters) {
  sim::Simulator sim;
  auto a = quick_nic(sim, "a", 1);
  ImpairmentParams p;
  p.loss = 0.3;
  p.duplicate = 0.3;
  p.seed = 21;
  Impairment eng(p);
  // Pre-bind activity must be back-filled at bind time.
  for (int i = 0; i < 50; ++i) {
    auto plan = eng.plan(nullptr, *a, probe());
    for (std::size_t k = 0; k < plan.size(); ++k) eng.note_delivered();
  }
  obs::Registry reg;
  eng.bind_registry(reg);
  for (int i = 0; i < 50; ++i) {
    auto plan = eng.plan(nullptr, *a, probe());
    for (std::size_t k = 0; k < plan.size(); ++k) eng.note_delivered();
  }
  const auto c = eng.counters();
  EXPECT_EQ(reg.counter_value("net.impairment.offered"), c.offered);
  EXPECT_EQ(reg.counter_value("net.impairment.dropped"), c.dropped);
  EXPECT_EQ(reg.counter_value("net.impairment.duplicated"), c.duplicated);
  EXPECT_EQ(reg.counter_value("net.impairment.delivered"), c.delivered);
  EXPECT_EQ(reg.counter_value("net.impairment.detached"), c.detached);
  // The registry view satisfies the same conservation identity.
  EXPECT_EQ(reg.counter_value("net.impairment.offered") +
                reg.counter_value("net.impairment.duplicated"),
            reg.counter_value("net.impairment.delivered") +
                reg.counter_value("net.impairment.dropped") +
                reg.counter_value("net.impairment.detached"));
}

TEST(ImpairmentEngine, ConfigurePreservesCountersAndReseeds) {
  sim::Simulator sim;
  auto a = quick_nic(sim, "a", 1);
  ImpairmentParams p;
  p.loss = 0.5;
  p.seed = 5;
  Impairment eng(p);
  for (int i = 0; i < 100; ++i) {
    auto plan = eng.plan(nullptr, *a, probe());
    for (std::size_t k = 0; k < plan.size(); ++k) eng.note_delivered();
  }
  const auto before = eng.counters();
  ASSERT_GT(before.dropped, 0u);
  // Swap loss for guaranteed duplication mid-run: counters carry over.
  p.loss = 0.0;
  p.duplicate = 1.0;
  eng.configure(p);
  for (int i = 0; i < 100; ++i) {
    auto plan = eng.plan(nullptr, *a, probe());
    ASSERT_EQ(plan.size(), 2u);
    eng.note_delivered();
    eng.note_delivered();
  }
  const auto after = eng.counters();
  EXPECT_EQ(after.dropped, before.dropped);  // preserved, no new drops
  EXPECT_EQ(after.offered, before.offered + 100);
  EXPECT_EQ(after.duplicated, 100u);
  EXPECT_TRUE(eng.conserved());

  // Reconfiguring to an all-zero profile disables the pipeline entirely:
  // plans go back to untracked passthrough and counters freeze.
  eng.configure({});
  auto plan = eng.plan(nullptr, *a, probe());
  EXPECT_FALSE(plan.tracked);
  EXPECT_EQ(eng.counters().offered, after.offered);
  EXPECT_TRUE(eng.conserved());
}

TEST(ImpairmentEngine, CorruptFrameAlwaysDiffersAndKeepsLength) {
  sim::Simulator sim;
  ImpairmentParams p;
  p.corrupt = 1.0;
  p.corrupt_max_bytes = 3;
  p.seed = 3;
  Impairment eng(p);
  EthernetFrame f;
  f.payload = Bytes(200, 0x55);
  for (int i = 0; i < 100; ++i) {
    EthernetFrame c = eng.corrupt_frame(f);
    ASSERT_EQ(c.payload.size(), f.payload.size());
    EXPECT_NE(c.payload, f.payload) << "corrupt_frame produced a no-op copy";
    int diffs = 0;
    for (std::size_t k = 0; k < c.payload.size(); ++k) {
      if (c.payload[k] != f.payload[k]) ++diffs;
    }
    EXPECT_LE(diffs, 3);
  }
}

TEST(ImpairmentEngine, TargetScopesImpairmentsToMatchingDeliveries) {
  sim::Simulator sim;
  auto a = quick_nic(sim, "a", 1);
  auto b = quick_nic(sim, "b", 2);
  ImpairmentParams p;
  p.loss = 1.0;
  p.seed = 8;
  Impairment eng(p);
  eng.set_target([](const Nic*, const Nic& rx, const EthernetFrame&) {
    return rx.name() == "a";
  });
  EXPECT_TRUE(eng.plan(nullptr, *a, probe()).empty());  // targeted: lost
  auto plan_b = eng.plan(nullptr, *b, probe());          // out of scope
  ASSERT_EQ(plan_b.size(), 1u);
  EXPECT_FALSE(plan_b.tracked);
  EXPECT_EQ(eng.counters().offered, 1u);  // only the targeted delivery counts
}

// ----------------------------------------------- media + engine end-to-end

TEST(ImpairmentMedium, DuplicateDeliversFrameTwice) {
  sim::Simulator sim;
  SharedMediumParams mp;
  mp.impairment.duplicate = 1.0;
  mp.impairment.duplicate_delay = milliseconds(1);
  SharedMedium wire(sim, mp);
  auto a = quick_nic(sim, "a", 1);
  auto b = quick_nic(sim, "b", 2);
  a->attach(wire);
  b->attach(wire);
  std::vector<SimTime> arrivals;
  b->set_rx_handler([&](const EthernetFrame&, bool) { arrivals.push_back(sim.now()); });
  a->send(frame_to(*b, 100));
  sim.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[1] - arrivals[0], static_cast<SimTime>(milliseconds(1)));
  EXPECT_TRUE(wire.impairment().conserved());
  EXPECT_EQ(wire.impairment().counters().duplicated, 1u);
  EXPECT_EQ(wire.impairment().counters().delivered, 2u);
}

TEST(ImpairmentMedium, ReorderJitterReordersAtReceiver) {
  sim::Simulator sim;
  SharedMediumParams mp;
  mp.bandwidth_bps = 1'000'000'000'000ull;  // make wire time negligible
  mp.propagation = 0;
  mp.impairment.reorder = 0.5;
  mp.impairment.reorder_delay = milliseconds(5);
  mp.impairment.seed = 11;
  SharedMedium wire(sim, mp);
  auto a = quick_nic(sim, "a", 1);
  auto b = quick_nic(sim, "b", 2);
  a->attach(wire);
  b->attach(wire);
  std::vector<std::uint8_t> order;
  b->set_rx_handler([&](const EthernetFrame& f, bool) { order.push_back(f.payload[0]); });
  for (std::uint8_t i = 0; i < 50; ++i) {
    sim.schedule_after(microseconds(10) * i, [&, i] {
      EthernetFrame f;
      f.dst = b->mac();
      f.payload = Bytes(64, i);
      a->send(std::move(f));
    });
  }
  sim.run();
  ASSERT_EQ(order.size(), 50u);
  bool out_of_order = false;
  for (std::size_t i = 1; i < order.size(); ++i) {
    if (order[i] < order[i - 1]) out_of_order = true;
  }
  EXPECT_TRUE(out_of_order) << "jittered copies arrived in send order";
  EXPECT_GT(wire.impairment().counters().reordered, 0u);
  EXPECT_TRUE(wire.impairment().conserved());
}

TEST(ImpairmentMedium, CorruptedCopyDiffersOnTheWire) {
  sim::Simulator sim;
  SharedMediumParams mp;
  mp.impairment.corrupt = 1.0;
  SharedMedium wire(sim, mp);
  auto a = quick_nic(sim, "a", 1);
  auto b = quick_nic(sim, "b", 2);
  a->attach(wire);
  b->attach(wire);
  Bytes got;
  b->set_rx_handler([&](const EthernetFrame& f, bool) { got = to_bytes(f.payload); });
  a->send(frame_to(*b, 120, 0x77));
  sim.run();
  ASSERT_EQ(got.size(), 120u);
  EXPECT_NE(got, Bytes(120, 0x77));
  EXPECT_EQ(wire.impairment().counters().corrupted, 1u);
}

// --------------------------------------------- frame-lifetime regressions

TEST(FrameLifetime, SharedMediumSkipsNicDestroyedEarlierInSamePass) {
  // An observer fires synchronously during the delivery pass; destroying a
  // later receiver from it must not hand the in-flight frame to freed
  // memory (the snapshot loop re-checks membership per delivery).
  sim::Simulator sim;
  SharedMedium wire(sim);
  auto a = quick_nic(sim, "a", 1);
  auto b = quick_nic(sim, "b", 2);
  auto c = quick_nic(sim, "c", 3);
  a->attach(wire);
  b->attach(wire);
  c->attach(wire);
  int c_got = 0;
  c->set_rx_handler([&](const EthernetFrame&, bool) { ++c_got; });
  // b is attached before c, so b's delivery happens first in the pass.
  b->add_observer([&](const EthernetFrame&, bool) { c.reset(); });
  EthernetFrame f;
  f.dst = MacAddress::broadcast();
  f.payload = Bytes(64, 1);
  a->send(std::move(f));
  sim.run();
  EXPECT_EQ(c.get(), nullptr);
  EXPECT_EQ(c_got, 0);
  EXPECT_EQ(wire.drops_detached(), 1u);
}

TEST(FrameLifetime, SharedMediumSkipsNicDestroyedWhileCopyDelayed) {
  // A reorder-delayed copy resolves its receiver again at its own delivery
  // time; the receiver dying in between must count as detached, and the
  // engine's conservation identity must still close.
  sim::Simulator sim;
  SharedMediumParams mp;
  mp.impairment.reorder = 1.0;
  mp.impairment.reorder_delay = milliseconds(10);
  SharedMedium wire(sim, mp);
  auto a = quick_nic(sim, "a", 1);
  auto b = quick_nic(sim, "b", 2);
  a->attach(wire);
  b->attach(wire);
  int b_got = 0;
  b->set_rx_handler([&](const EthernetFrame&, bool) { ++b_got; });
  a->send(frame_to(*b, 64));
  // Destroy b after the frame is on the wire but before the delayed copy
  // can land.
  sim.schedule_after(microseconds(100), [&] { b.reset(); });
  sim.run();
  EXPECT_EQ(b_got, 0);
  EXPECT_EQ(wire.drops_detached(), 1u);
  const auto c = wire.impairment().counters();
  EXPECT_EQ(c.detached, 1u);
  EXPECT_EQ(c.delivered, 0u);
  EXPECT_TRUE(wire.impairment().conserved());
}

TEST(FrameLifetime, SharedMediumSurvivesSenderDestroyedInFlight) {
  // The sending NIC dies while its own frame is in flight; per-receiver
  // loss rules must not dereference it.
  sim::Simulator sim;
  SharedMedium wire(sim);
  auto a = quick_nic(sim, "a", 1);
  auto b = quick_nic(sim, "b", 2);
  a->attach(wire);
  b->attach(wire);
  bool loss_fn_saw_delivery = false;
  wire.set_loss_fn([&](const Nic& sender, const Nic&, const EthernetFrame&) {
    loss_fn_saw_delivery = true;
    EXPECT_EQ(sender.name(), "a");  // only ever called with a live sender
    return false;
  });
  int b_got = 0;
  b->set_rx_handler([&](const EthernetFrame&, bool) { ++b_got; });
  a->send(frame_to(*b, 64));
  a.reset();  // destroyed before the scheduled delivery runs
  sim.run();
  // The frame still reaches b (it was on the wire), but the loss rule was
  // bypassed: there is no live sender to evaluate it against.
  EXPECT_EQ(b_got, 1);
  EXPECT_FALSE(loss_fn_saw_delivery);
}

TEST(FrameLifetime, SharedMediumSlotsOutliveTheirSender) {
  // Transmissions and their delayed duplicates wait in the medium's slot
  // table. The sender dies with all of them in flight: each still lands,
  // carrying its own bytes, and the freed slots carry the next burst.
  sim::Simulator sim;
  SharedMediumParams mp;
  mp.impairment.duplicate = 1.0;
  mp.impairment.duplicate_delay = milliseconds(1);
  SharedMedium wire(sim, mp);
  auto a = quick_nic(sim, "a", 1);
  auto b = quick_nic(sim, "b", 2);
  a->attach(wire);
  b->attach(wire);
  std::vector<int> got;
  b->set_rx_handler([&](const EthernetFrame& f, bool) { got.push_back(f.payload[0]); });
  for (std::uint8_t i = 0; i < 5; ++i) a->send(frame_to(*b, 64, i));
  EXPECT_EQ(wire.frames_in_flight(), 5u);
  a.reset();
  sim.run();
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3, 4, 0, 1, 2, 3, 4}));
  EXPECT_EQ(wire.frames_in_flight(), 0u);

  auto c = quick_nic(sim, "c", 3);
  c->attach(wire);
  got.clear();
  for (std::uint8_t i = 10; i < 15; ++i) c->send(frame_to(*b, 64, i));
  sim.run();
  EXPECT_EQ(got, (std::vector<int>{10, 11, 12, 13, 14, 10, 11, 12, 13, 14}));
  EXPECT_EQ(wire.frames_in_flight(), 0u);
  EXPECT_EQ(wire.impairment().counters().delivered, 20u);

  // A burst past one 256-slot chunk: the table grows a second chunk, and
  // every frame and its duplicate still land exactly once each.
  constexpr int kBurst = 300;
  b->set_rx_handler([&](const EthernetFrame& f, bool) {
    got.push_back(f.payload[0] | f.payload[1] << 8);
  });
  got.clear();
  for (int i = 0; i < kBurst; ++i) {
    Bytes payload(64, 0);
    payload[0] = static_cast<std::uint8_t>(i & 0xff);
    payload[1] = static_cast<std::uint8_t>(i >> 8);
    EthernetFrame f = frame_to(*b, 0);
    f.payload = payload;
    c->send(std::move(f));
  }
  EXPECT_EQ(wire.frames_in_flight(), static_cast<std::size_t>(kBurst));
  sim.run();
  ASSERT_EQ(got.size(), 2u * kBurst);
  std::vector<int> copies(kBurst, 0);
  std::vector<int> first_seen;
  for (int i : got) {
    ASSERT_LT(i, kBurst);
    if (copies[i]++ == 0) first_seen.push_back(i);
  }
  EXPECT_EQ(copies, std::vector<int>(kBurst, 2));
  EXPECT_TRUE(std::is_sorted(first_seen.begin(), first_seen.end()));
  EXPECT_EQ(wire.frames_in_flight(), 0u);
  EXPECT_EQ(wire.impairment().counters().delivered, 20u + 2 * kBurst);
  EXPECT_TRUE(wire.impairment().conserved());
}

TEST(FrameLifetime, PointToPointSlotsOutliveTheirSender) {
  // The same on a link: the sending end dies with its frames and their
  // delayed duplicates in flight, and a NIC attached in its place reuses
  // the freed slots.
  sim::Simulator sim;
  PointToPointParams pp;
  pp.impairment.duplicate = 1.0;
  pp.impairment.duplicate_delay = milliseconds(1);
  PointToPointLink link(sim, pp);
  auto a = quick_nic(sim, "a", 1);
  auto b = quick_nic(sim, "b", 2);
  a->attach(link);
  b->attach(link);
  std::vector<int> got;
  b->set_rx_handler([&](const EthernetFrame& f, bool) { got.push_back(f.payload[0]); });
  for (std::uint8_t i = 0; i < 5; ++i) a->send(frame_to(*b, 64, i));
  EXPECT_EQ(link.frames_in_flight(), 10u);
  a.reset();
  sim.run();
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3, 4, 0, 1, 2, 3, 4}));
  EXPECT_EQ(link.frames_in_flight(), 0u);

  auto c = quick_nic(sim, "c", 3);
  c->attach(link);
  got.clear();
  for (std::uint8_t i = 10; i < 15; ++i) c->send(frame_to(*b, 64, i));
  sim.run();
  EXPECT_EQ(got, (std::vector<int>{10, 11, 12, 13, 14, 10, 11, 12, 13, 14}));
  EXPECT_EQ(link.frames_in_flight(), 0u);
  EXPECT_EQ(link.drops_detached(), 0u);
  EXPECT_TRUE(link.impairment().conserved());
}

TEST(FrameLifetime, NicDestroyedDuringRxProcessing) {
  // A received frame waits out rx_processing in the NIC's rx ring.
  // Destroying the NIC in that window cancels the hand-up; it must not
  // run on the freed NIC.
  sim::Simulator sim;
  SharedMedium wire(sim);
  NicParams np;
  np.rx_processing = microseconds(30);
  auto a = std::make_unique<Nic>(sim, "a", MacAddress::from_id(1), np);
  auto b = std::make_unique<Nic>(sim, "b", MacAddress::from_id(2), np);
  a->attach(wire);
  b->attach(wire);
  int b_got = 0;
  b->set_rx_handler([&](const EthernetFrame&, bool) { ++b_got; });
  a->send(frame_to(*b, 64));
  // The frame is on b's ring from ~8 µs until its hand-up at ~38 µs.
  std::size_t pending_at_reset = 0;
  sim.schedule_at(microseconds(20), [&] {
    pending_at_reset = b->rx_pending();
    b.reset();
  });
  sim.run();
  EXPECT_EQ(pending_at_reset, 1u);
  EXPECT_EQ(b_got, 0);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(FrameLifetime, FullDuplexDetachClearsPortBusyState) {
  // Detaching must erase the port's transmit schedule: a NIC re-attached
  // (or a new NIC reusing the allocation) must not inherit deferrals from
  // the old port's queue.
  sim::Simulator sim;
  SharedMediumParams mp;
  mp.half_duplex = false;
  mp.bandwidth_bps = 1'000'000;  // slow: 1st transmit occupies the port long
  SharedMedium wire(sim, mp);
  auto a = quick_nic(sim, "a", 1);
  auto b = quick_nic(sim, "b", 2);
  a->attach(wire);
  b->attach(wire);
  a->send(frame_to(*b, 1400));
  a->detach();
  a->attach(wire);
  a->send(frame_to(*b, 100));  // same instant: must not defer
  sim.run();
  EXPECT_EQ(wire.deferrals(), 0u);
}

TEST(FrameLifetime, PointToPointResolvesPeerAtDeliveryTime) {
  // The far endpoint is destroyed while a frame is crossing the link; the
  // copy must be dropped and counted, not delivered to freed memory.
  sim::Simulator sim;
  PointToPointParams pp;
  pp.propagation = milliseconds(10);
  PointToPointLink link(sim, pp);
  auto a = quick_nic(sim, "a", 1);
  auto b = quick_nic(sim, "b", 2);
  a->attach(link);
  b->attach(link);
  int b_got = 0;
  b->set_rx_handler([&](const EthernetFrame&, bool) { ++b_got; });
  a->send(frame_to(*b, 200));
  sim.schedule_after(milliseconds(1), [&] { b.reset(); });
  sim.run();
  EXPECT_EQ(b_got, 0);
  EXPECT_EQ(link.drops_detached(), 1u);
}

TEST(FrameLifetime, PointToPointConservationWithQueueDropsAndDuplicates) {
  sim::Simulator sim;
  PointToPointParams pp;
  pp.bandwidth_bps = 1'000'000;
  pp.queue_limit = 4;
  pp.impairment.duplicate = 0.5;
  pp.impairment.seed = 17;
  PointToPointLink link(sim, pp);
  auto a = quick_nic(sim, "a", 1);
  auto b = quick_nic(sim, "b", 2);
  a->attach(link);
  b->attach(link);
  int got = 0;
  b->set_rx_handler([&](const EthernetFrame&, bool) { ++got; });
  for (int i = 0; i < 20; ++i) a->send(frame_to(*b, 1000));
  sim.run();
  const auto c = link.impairment().counters();
  EXPECT_GT(link.drops_queue(), 0u);
  EXPECT_EQ(c.delivered, static_cast<std::uint64_t>(got));
  // Queue-overflow copies are settled as `detached` (copies the link could
  // not deliver), so the identity closes even under tail drop.
  EXPECT_TRUE(link.impairment().conserved());
}

}  // namespace
}  // namespace tfo::net
