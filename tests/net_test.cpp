// Unit tests for the link layer: media timing, promiscuous delivery,
// per-receiver loss, and point-to-point queueing.
#include <gtest/gtest.h>

#include <vector>

#include "net/frame.hpp"
#include "net/medium.hpp"
#include "net/nic.hpp"
#include "sim/simulator.hpp"

namespace tfo::net {
namespace {

struct RxRecord {
  std::string nic;
  bool to_us;
  std::size_t len;
  SimTime at;
};

struct NetFixture : ::testing::Test {
  sim::Simulator sim;
  SharedMediumParams mp;
  std::unique_ptr<SharedMedium> wire;
  std::unique_ptr<Nic> a, b, c;
  std::vector<RxRecord> rx;

  void build() {
    wire = std::make_unique<SharedMedium>(sim, mp);
    a = make_nic("a", 1);
    b = make_nic("b", 2);
    c = make_nic("c", 3);
  }

  std::unique_ptr<Nic> make_nic(const std::string& name, std::uint32_t id) {
    NicParams np;
    np.rx_processing = 0;  // timing tests want raw wire time
    auto nic = std::make_unique<Nic>(sim, name, MacAddress::from_id(id), np);
    nic->set_rx_handler([this, name](const EthernetFrame& f, bool to_us) {
      rx.push_back({name, to_us, f.payload.size(), sim.now()});
    });
    nic->attach(*wire);
    return nic;
  }

  EthernetFrame frame_to(const Nic& dst, std::size_t len) {
    EthernetFrame f;
    f.dst = dst.mac();
    f.payload = Bytes(len, 0xab);
    return f;
  }
};

TEST_F(NetFixture, UnicastReachesOnlyAddressee) {
  build();
  a->send(frame_to(*b, 100));
  sim.run();
  ASSERT_EQ(rx.size(), 1u);
  EXPECT_EQ(rx[0].nic, "b");
  EXPECT_TRUE(rx[0].to_us);
}

TEST_F(NetFixture, BroadcastReachesAll) {
  build();
  EthernetFrame f;
  f.dst = MacAddress::broadcast();
  f.payload = Bytes(10, 1);
  a->send(std::move(f));
  sim.run();
  EXPECT_EQ(rx.size(), 2u);  // b and c, not the sender
}

TEST_F(NetFixture, PromiscuousSeesForeignFrames) {
  build();
  c->set_promiscuous(true);
  a->send(frame_to(*b, 64));
  sim.run();
  ASSERT_EQ(rx.size(), 2u);
  // b got it addressed; c snooped it.
  bool saw_b = false, saw_c_promisc = false;
  for (const auto& r : rx) {
    if (r.nic == "b" && r.to_us) saw_b = true;
    if (r.nic == "c" && !r.to_us) saw_c_promisc = true;
  }
  EXPECT_TRUE(saw_b);
  EXPECT_TRUE(saw_c_promisc);
}

TEST_F(NetFixture, DisabledNicIsSilent) {
  build();
  b->set_enabled(false);
  a->send(frame_to(*b, 64));
  b->send(frame_to(*a, 64));
  sim.run();
  EXPECT_TRUE(rx.empty());
}

TEST_F(NetFixture, WireTimeMatchesBandwidth) {
  mp.bandwidth_bps = 100'000'000;
  mp.propagation = 0;
  build();
  // 1000B payload: frame = 14 + 1000 + 4 = 1018, +20 overhead = 1038 octets
  // = 8304 bits at 100 Mb/s = 83040 ns.
  a->send(frame_to(*b, 1000));
  sim.run();
  ASSERT_EQ(rx.size(), 1u);
  EXPECT_EQ(rx[0].at, 83040u);
}

TEST_F(NetFixture, MinimumFramePadding) {
  mp.bandwidth_bps = 100'000'000;
  mp.propagation = 0;
  build();
  // 1B payload pads to 46: frame = 64, wire = 84 octets = 6720 ns.
  a->send(frame_to(*b, 1));
  sim.run();
  ASSERT_EQ(rx.size(), 1u);
  EXPECT_EQ(rx[0].at, 6720u);
}

TEST_F(NetFixture, HalfDuplexSerializesTransmissions) {
  mp.bandwidth_bps = 100'000'000;
  mp.propagation = 0;
  build();
  a->send(frame_to(*c, 1000));
  b->send(frame_to(*c, 1000));  // same instant: must wait for the wire
  sim.run();
  ASSERT_EQ(rx.size(), 2u);
  EXPECT_EQ(rx[0].at, 83040u);
  EXPECT_EQ(rx[1].at, 2 * 83040u);
  EXPECT_EQ(wire->deferrals(), 1u);
}

TEST_F(NetFixture, FullDuplexDoesNotContend) {
  mp.bandwidth_bps = 100'000'000;
  mp.propagation = 0;
  mp.half_duplex = false;
  build();
  a->send(frame_to(*c, 1000));
  b->send(frame_to(*c, 1000));
  sim.run();
  ASSERT_EQ(rx.size(), 2u);
  EXPECT_EQ(rx[0].at, rx[1].at);
}

TEST_F(NetFixture, PerReceiverLossRule) {
  build();
  // Drop everything addressed to b, while promiscuous c still hears it —
  // the asymmetric loss the paper's §4 analysis needs.
  c->set_promiscuous(true);
  wire->set_loss_fn([this](const Nic&, const Nic& rxr, const EthernetFrame&) {
    return rxr.name() == "b";
  });
  a->send(frame_to(*b, 64));
  sim.run();
  ASSERT_EQ(rx.size(), 1u);
  EXPECT_EQ(rx[0].nic, "c");
}

TEST_F(NetFixture, UniformLossDropsSomeFrames) {
  mp.impairment.loss = 0.5;
  mp.impairment.seed = 7;
  build();
  for (int i = 0; i < 100; ++i) a->send(frame_to(*b, 64));
  sim.run();
  EXPECT_GT(rx.size(), 20u);
  EXPECT_LT(rx.size(), 80u);
}

TEST_F(NetFixture, CountersTrackTraffic) {
  build();
  a->send(frame_to(*b, 500));
  sim.run();
  EXPECT_EQ(a->tx_frames(), 1u);
  EXPECT_EQ(a->tx_bytes(), 500u);
  EXPECT_EQ(b->rx_frames(), 1u);
  EXPECT_EQ(b->rx_bytes(), 500u);
}

// Received frames wait out their processing delay in the NIC's rx ring;
// each hand-up event takes the ring's front. Under jitter wider than the
// frame spacing, with promiscuous captures mixed into the burst and the
// NIC switched off and on mid-burst, the handler still sees arrival order
// and each frame's own to_us.
TEST(NicRxRing, HandsUpInArrivalOrderWithEachFramesOwnToUs) {
  sim::Simulator sim;
  SharedMedium wire(sim);
  NicParams np;
  np.rx_processing = microseconds(30);
  np.rx_jitter = microseconds(50);  // a 64-B frame takes 6.7 µs on the wire
  Nic a(sim, "a", MacAddress::from_id(1), np);
  Nic b(sim, "b", MacAddress::from_id(2), np);
  Nic c(sim, "c", MacAddress::from_id(3), np);
  for (Nic* n : {&a, &b, &c}) n->attach(wire);
  b.set_promiscuous(true);
  struct Got {
    int seq;
    bool to_us;
    SimTime at;
  };
  std::vector<Got> got;
  b.set_rx_handler([&](const EthernetFrame& f, bool to_us) {
    got.push_back({f.payload[0], to_us, sim.now()});
  });
  constexpr int kFrames = 40;
  for (int i = 0; i < kFrames; ++i) {
    EthernetFrame f;
    f.dst = (i % 2 == 0 ? b : c).mac();  // odd frames: promiscuous captures
    f.payload = Bytes(64, static_cast<std::uint8_t>(i));
    a.send(std::move(f));
  }
  const SimTime off = microseconds(100), on = microseconds(180);
  sim.schedule_at(off, [&] { b.set_enabled(false); });
  sim.schedule_at(on, [&] { b.set_enabled(true); });
  sim.run();

  ASSERT_FALSE(got.empty());
  EXPECT_LT(got.size(), static_cast<std::size_t>(kFrames));  // the gap lost some
  EXPECT_LT(got.front().at, off);
  EXPECT_GT(got.back().at, on);
  EXPECT_EQ(got.back().seq, kFrames - 1);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].to_us, got[i].seq % 2 == 0) << "frame " << got[i].seq;
    EXPECT_TRUE(got[i].at < off || got[i].at >= on) << "frame " << got[i].seq;
    if (i > 0) {
      EXPECT_GT(got[i].seq, got[i - 1].seq);
    }
  }
  EXPECT_EQ(b.rx_pending(), 0u);
}

TEST(PointToPoint, DeliversWithLatencyAndBandwidth) {
  sim::Simulator sim;
  PointToPointParams pp;
  pp.bandwidth_bps = 8'000'000;  // 1 byte/us
  pp.propagation = milliseconds(5);
  PointToPointLink link(sim, pp);
  NicParams np;
  np.rx_processing = 0;
  Nic a(sim, "a", MacAddress::from_id(1), np), b(sim, "b", MacAddress::from_id(2), np);
  a.attach(link);
  b.attach(link);
  SimTime got = 0;
  b.set_rx_handler([&](const EthernetFrame&, bool) { got = sim.now(); });
  EthernetFrame f;
  f.dst = b.mac();
  f.payload = Bytes(980, 1);  // wire 1018 octets -> 1018us
  a.send(std::move(f));
  sim.run();
  EXPECT_EQ(got, 1018u * 1000 + 5'000'000u);
}

TEST(PointToPoint, QueueLimitDropsTail) {
  sim::Simulator sim;
  PointToPointParams pp;
  pp.bandwidth_bps = 1'000'000;
  pp.queue_limit = 4;
  PointToPointLink link(sim, pp);
  NicParams np;
  np.rx_processing = 0;
  Nic a(sim, "a", MacAddress::from_id(1), np), b(sim, "b", MacAddress::from_id(2), np);
  a.attach(link);
  b.attach(link);
  int got = 0;
  b.set_rx_handler([&](const EthernetFrame&, bool) { ++got; });
  for (int i = 0; i < 10; ++i) {
    EthernetFrame f;
    f.dst = b.mac();
    f.payload = Bytes(1000, 1);
    a.send(std::move(f));
  }
  sim.run();
  EXPECT_EQ(got, 4);
  EXPECT_EQ(link.drops_queue(), 6u);
}

}  // namespace
}  // namespace tfo::net
