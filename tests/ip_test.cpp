// Unit tests for the IP layer: datagram wire format, ARP (including
// gratuitous updates used by IP takeover), routing, hooks, and forwarding.
#include <gtest/gtest.h>

#include "apps/host.hpp"
#include "apps/topology.hpp"
#include "ip/datagram.hpp"
#include "ip/router.hpp"
#include "test_util.hpp"

namespace tfo::ip {
namespace {

using apps::Host;
using apps::HostParams;

TEST(Ipv4, ParseAndFormat) {
  EXPECT_EQ(Ipv4::parse("10.0.0.1").str(), "10.0.0.1");
  EXPECT_EQ(Ipv4::parse("255.255.255.255").v, 0xffffffffu);
  EXPECT_TRUE(Ipv4::parse("not-an-ip").is_any());
  EXPECT_TRUE(Ipv4::parse("1.2.3.999").is_any());
  EXPECT_TRUE(Ipv4::parse("1.2.3").is_any());
}

TEST(Ipv4, SubnetMembership) {
  const Ipv4 net = Ipv4::parse("10.0.0.0");
  EXPECT_TRUE(in_subnet(Ipv4::parse("10.0.0.200"), net, 24));
  EXPECT_FALSE(in_subnet(Ipv4::parse("10.0.1.200"), net, 24));
  EXPECT_TRUE(in_subnet(Ipv4::parse("10.0.1.200"), net, 16));
  EXPECT_TRUE(in_subnet(Ipv4::parse("99.0.0.1"), net, 0));
}

TEST(IpDatagram, SerializeParseRoundTrip) {
  IpDatagram d;
  d.src = Ipv4::parse("10.0.0.1");
  d.dst = Ipv4::parse("10.0.0.2");
  d.proto = Proto::kTcp;
  d.ttl = 33;
  d.id = 777;
  d.payload = to_bytes("payload!");
  const Bytes wire = test::wire_of(d);
  // Golden bytes, written out by hand from RFC 791 (header checksum
  // computed independently).
  const Bytes want = {
      0x45, 0x00, 0x00, 0x1c,  // v4, IHL 5, total length 28
      0x03, 0x09, 0x00, 0x00,  // id 777, no fragmentation
      0x21, 0x06, 0x82, 0xd1,  // ttl 33, TCP, header checksum
      0x0a, 0x00, 0x00, 0x01,  // src 10.0.0.1
      0x0a, 0x00, 0x00, 0x02,  // dst 10.0.0.2
      0x70, 0x61, 0x79, 0x6c, 0x6f, 0x61, 0x64, 0x21,  // "payload!"
  };
  EXPECT_EQ(wire, want);
  auto back = IpDatagram::parse(wire);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->src, d.src);
  EXPECT_EQ(back->dst, d.dst);
  EXPECT_EQ(back->proto, d.proto);
  EXPECT_EQ(back->ttl, 33);
  EXPECT_EQ(back->id, 777);
  EXPECT_EQ(back->payload, d.payload);
}

TEST(IpDatagram, CorruptHeaderRejected) {
  IpDatagram d;
  d.src = Ipv4::parse("1.1.1.1");
  d.dst = Ipv4::parse("2.2.2.2");
  Bytes wire = test::wire_of(d);
  wire[12] ^= 0x01;  // flip a source-address bit
  EXPECT_FALSE(IpDatagram::parse(wire).has_value());
}

TEST(IpDatagram, TruncatedRejected) {
  IpDatagram d;
  d.payload = Bytes(100, 1);
  Bytes wire = test::wire_of(d);
  wire.resize(50);
  EXPECT_FALSE(IpDatagram::parse(wire).has_value());
}

// ------------------------------------------------------------------ ARP

struct ArpFixture : ::testing::Test {
  sim::Simulator sim;
  net::SharedMediumParams mp;
  std::unique_ptr<net::SharedMedium> wire;
  std::unique_ptr<Host> a, b;

  void build(ArpParams ap = {}) {
    wire = std::make_unique<net::SharedMedium>(sim, mp);
    a = make_host("a", "10.0.0.1", ap);
    b = make_host("b", "10.0.0.2", ap);
  }
  std::unique_ptr<Host> make_host(const char* name, const char* addr, ArpParams ap) {
    HostParams hp;
    hp.name = name;
    hp.addr = Ipv4::parse(addr);
    hp.arp = ap;
    return std::make_unique<Host>(sim, hp, *wire);
  }
};

TEST_F(ArpFixture, ResolveViaRequestReply) {
  build();
  net::MacAddress got{};
  bool done = false;
  a->arp().resolve(b->address(), [&](net::MacAddress m) {
    got = m;
    done = true;
  });
  EXPECT_TRUE(test::run_until(sim, [&] { return done; }));
  EXPECT_EQ(got, b->nic().mac());
  // And the reply's sender was learned on b's side too (merge rule).
  net::MacAddress learned{};
  EXPECT_TRUE(b->arp().lookup(a->address(), &learned));
  EXPECT_EQ(learned, a->nic().mac());
}

TEST_F(ArpFixture, CacheHitIsSynchronous) {
  build();
  a->arp().add_static(b->address(), b->nic().mac());
  bool done = false;
  a->arp().resolve(b->address(), [&](net::MacAddress) { done = true; });
  EXPECT_TRUE(done);  // no simulation steps needed
}

TEST_F(ArpFixture, ResolutionFailureDropsCallback) {
  build();
  bool called = false;
  a->arp().resolve(Ipv4::parse("10.0.0.99"), [&](net::MacAddress) { called = true; });
  sim.run();
  EXPECT_FALSE(called);
}

TEST_F(ArpFixture, GratuitousArpUpdatesExistingEntriesOnly) {
  build();
  // a knows the address 10.0.0.50 maps to some old MAC.
  const Ipv4 moved = Ipv4::parse("10.0.0.50");
  a->arp().add_static(moved, net::MacAddress::from_id(999));
  // b announces itself as the new owner of 10.0.0.50 (IP takeover).
  b->ip().add_alias(moved);
  b->arp().announce(moved);
  sim.run();
  net::MacAddress m{};
  ASSERT_TRUE(a->arp().lookup(moved, &m));
  EXPECT_EQ(m, b->nic().mac());
  // A host with no prior entry must NOT have created one.
  EXPECT_FALSE(b->arp().lookup(Ipv4::parse("10.0.0.51"), nullptr));
}

TEST_F(ArpFixture, UpdateLatencyDelaysVisibility) {
  ArpParams ap;
  ap.update_latency = milliseconds(10);
  build(ap);
  const Ipv4 moved = Ipv4::parse("10.0.0.50");
  a->arp().add_static(moved, net::MacAddress::from_id(999));
  b->ip().add_alias(moved);
  b->arp().announce(moved);
  sim.run_for(milliseconds(5));
  net::MacAddress m{};
  ASSERT_TRUE(a->arp().lookup(moved, &m));
  EXPECT_EQ(m, net::MacAddress::from_id(999));  // still the old mapping
  sim.run_for(milliseconds(20));
  ASSERT_TRUE(a->arp().lookup(moved, &m));
  EXPECT_EQ(m, b->nic().mac());
}

// ------------------------------------------------------- IpLayer basics

struct IpFixture : ArpFixture {};

TEST_F(IpFixture, DeliverByProtocolToLocalAddress) {
  build();
  Bytes got;
  b->ip().register_protocol(Proto::kHeartbeat,
                            [&](const IpDatagram& d, const RxMeta&) { got = to_bytes(d.payload); });
  a->ip().send(Proto::kHeartbeat, Ipv4::any(), b->address(), to_bytes("hb"));
  sim.run();
  EXPECT_EQ(to_string(got), "hb");
}

TEST_F(IpFixture, DatagramForForeignAddressDropped) {
  build();
  int got = 0;
  b->ip().register_protocol(Proto::kHeartbeat,
                            [&](const IpDatagram&, const RxMeta&) { ++got; });
  // Address to an IP that resolves to b's MAC via a poisoned cache so the
  // frame physically arrives, but the datagram isn't for b.
  a->arp().add_static(Ipv4::parse("10.0.0.77"), b->nic().mac());
  a->ip().send(Proto::kHeartbeat, Ipv4::any(), Ipv4::parse("10.0.0.77"), to_bytes("x"));
  sim.run();
  EXPECT_EQ(got, 0);
  EXPECT_EQ(b->ip().datagrams_dropped(), 1u);
}

TEST_F(IpFixture, AliasReceivesTraffic) {
  build();
  const Ipv4 alias = Ipv4::parse("10.0.0.70");
  b->ip().add_alias(alias);
  a->arp().add_static(alias, b->nic().mac());
  Bytes got;
  b->ip().register_protocol(Proto::kHeartbeat,
                            [&](const IpDatagram& d, const RxMeta&) { got = to_bytes(d.payload); });
  a->ip().send(Proto::kHeartbeat, Ipv4::any(), alias, to_bytes("via-alias"));
  sim.run();
  EXPECT_EQ(to_string(got), "via-alias");
}

TEST_F(IpFixture, InboundHookCanRewriteDestination) {
  build();
  const Ipv4 other = Ipv4::parse("10.0.0.66");
  a->arp().add_static(other, b->nic().mac());
  // b rewrites datagrams addressed to `other` onto itself — the secondary
  // bridge's a_p -> a_s translation in miniature.
  b->ip().add_inbound_hook([&](IpDatagram& d, const RxMeta&) {
    if (d.dst == other) d.dst = b->address();
    return HookVerdict::kContinue;
  });
  Bytes got;
  b->ip().register_protocol(Proto::kHeartbeat,
                            [&](const IpDatagram& d, const RxMeta&) { got = to_bytes(d.payload); });
  a->ip().send(Proto::kHeartbeat, Ipv4::any(), other, to_bytes("rewritten"));
  sim.run();
  EXPECT_EQ(to_string(got), "rewritten");
}

TEST_F(IpFixture, OutboundHookCanConsume) {
  build();
  int consumed = 0;
  a->ip().add_outbound_hook([&](IpDatagram&) {
    ++consumed;
    return HookVerdict::kConsume;
  });
  a->ip().send(Proto::kHeartbeat, Ipv4::any(), b->address(), to_bytes("x"));
  sim.run();
  EXPECT_EQ(consumed, 1);
  EXPECT_EQ(b->ip().datagrams_delivered(), 0u);
}

TEST_F(IpFixture, HookRemovalStopsInterception) {
  build();
  int hits = 0;
  const HookId id = b->ip().add_inbound_hook([&](IpDatagram&, const RxMeta&) {
    ++hits;
    return HookVerdict::kContinue;
  });
  b->ip().register_protocol(Proto::kHeartbeat, [](const IpDatagram&, const RxMeta&) {});
  a->ip().send(Proto::kHeartbeat, Ipv4::any(), b->address(), to_bytes("1"));
  sim.run();
  b->ip().remove_hook(id);
  a->ip().send(Proto::kHeartbeat, Ipv4::any(), b->address(), to_bytes("2"));
  sim.run();
  EXPECT_EQ(hits, 1);
}

// ---------------------------------------------------------------- Router

TEST(Router, ForwardsAcrossSegmentsWithTtlDecrement) {
  auto wan = apps::make_topology({.seed = 12, .hops = 1});
  Bytes got;
  std::uint8_t got_ttl = 0;
  wan->primary->ip().register_protocol(
      Proto::kHeartbeat, [&](const IpDatagram& d, const RxMeta&) {
        got = to_bytes(d.payload);
        got_ttl = d.ttl;
      });
  wan->client->ip().send(Proto::kHeartbeat, Ipv4::any(),
                         wan->primary->address(), to_bytes("over-the-wan"));
  wan->sim.run();
  EXPECT_EQ(to_string(got), "over-the-wan");
  EXPECT_EQ(got_ttl, 63);
}

TEST(Router, TtlExpiryDropsDatagram) {
  auto wan = apps::make_topology({.seed = 12, .hops = 1});
  int got = 0;
  wan->primary->ip().register_protocol(
      Proto::kHeartbeat, [&](const IpDatagram&, const RxMeta&) { ++got; });
  IpDatagram d;
  d.src = wan->client->address();
  d.dst = wan->primary->address();
  d.proto = Proto::kHeartbeat;
  d.ttl = 1;  // dies at the router
  d.payload = to_bytes("x");
  wan->client->ip().send_datagram(std::move(d));
  wan->sim.run();
  EXPECT_EQ(got, 0);
}

}  // namespace
}  // namespace tfo::ip
