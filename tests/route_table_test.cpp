// PR 10: longest-prefix-match routing, the route-advertisement protocol,
// and the router's forwarding-path ICMP errors (TTL exceeded and
// fragmentation-needed — the latter feeding the PR 9 PMTUD machinery).
#include <gtest/gtest.h>

#include "apps/echo.hpp"
#include "apps/topology.hpp"
#include "ip/icmp.hpp"
#include "ip/route.hpp"
#include "ip/route_advert.hpp"
#include "ip/router.hpp"
#include "test_util.hpp"

namespace tfo::ip {
namespace {

// ------------------------------------------------------ RoutingTable units

TEST(RoutingTable, MaskedEdgeCases) {
  const Ipv4 a = Ipv4::parse("10.1.2.3");
  EXPECT_EQ(masked(a, 0), Ipv4::any());
  EXPECT_EQ(masked(a, 32), a);
  EXPECT_EQ(masked(a, 24), Ipv4::parse("10.1.2.0"));
  EXPECT_EQ(masked(a, 8), Ipv4::parse("10.0.0.0"));
}

TEST(RoutingTable, LongestPrefixWins) {
  RoutingTable t;
  t.install({Ipv4::any(), 0, Ipv4::parse("1.1.1.1"), 0, 0, false});
  t.install({Ipv4::parse("10.0.0.0"), 24, Ipv4::any(), 1, 0, false});
  t.install({Ipv4::parse("10.0.0.1"), 32, Ipv4::parse("10.0.0.2"), 1, 5, true});

  const RouteEntry* host = t.lookup(Ipv4::parse("10.0.0.1"));
  ASSERT_NE(host, nullptr);
  EXPECT_EQ(host->prefix_len, 32);
  EXPECT_EQ(host->next_hop, Ipv4::parse("10.0.0.2"));

  const RouteEntry* net = t.lookup(Ipv4::parse("10.0.0.9"));
  ASSERT_NE(net, nullptr);
  EXPECT_EQ(net->prefix_len, 24);
  EXPECT_EQ(net->next_hop, Ipv4::any());  // connected

  const RouteEntry* dflt = t.lookup(Ipv4::parse("8.8.8.8"));
  ASSERT_NE(dflt, nullptr);
  EXPECT_EQ(dflt->prefix_len, 0);
  EXPECT_EQ(dflt->next_hop, Ipv4::parse("1.1.1.1"));
}

TEST(RoutingTable, InstallReplacementRules) {
  RoutingTable t;
  const Ipv4 p = Ipv4::parse("10.0.0.1");
  // Dynamic install, then a *worse* dynamic one: rejected, no change.
  EXPECT_TRUE(t.install({p, 32, Ipv4::parse("10.0.0.2"), 0, 2, true}));
  EXPECT_FALSE(t.install({p, 32, Ipv4::parse("10.0.0.3"), 0, 5, true}));
  EXPECT_EQ(t.find(p, 32)->next_hop, Ipv4::parse("10.0.0.2"));
  // Equal metric, different next hop: rejected (no flapping).
  EXPECT_FALSE(t.install({p, 32, Ipv4::parse("10.0.0.3"), 0, 2, true}));
  // Strictly better metric replaces.
  EXPECT_TRUE(t.install({p, 32, Ipv4::parse("10.0.0.3"), 0, 1, true}));
  EXPECT_EQ(t.find(p, 32)->next_hop, Ipv4::parse("10.0.0.3"));
  // Same next hop refresh (equal-or-better metric) is accepted...
  EXPECT_TRUE(t.install({p, 32, Ipv4::parse("10.0.0.3"), 1, 1, true}));
  EXPECT_EQ(t.find(p, 32)->iface_idx, 1u);
  // ...but an *identical* entry is a no-op (no propagation loops).
  EXPECT_FALSE(t.install({p, 32, Ipv4::parse("10.0.0.3"), 1, 1, true}));
  // Static configuration always wins over a dynamic route.
  EXPECT_TRUE(t.install({p, 32, Ipv4::parse("10.0.0.9"), 0, 9, false}));
  EXPECT_EQ(t.find(p, 32)->next_hop, Ipv4::parse("10.0.0.9"));
  // Exactly one entry per (prefix, len) throughout.
  EXPECT_EQ(t.entries().size(), 1u);
}

TEST(RoutingTable, RemoveAndFind) {
  RoutingTable t;
  t.install({Ipv4::parse("10.0.0.7"), 24, Ipv4::any(), 0, 0, false});
  // The prefix is masked on install and on find.
  ASSERT_NE(t.find(Ipv4::parse("10.0.0.99"), 24), nullptr);
  EXPECT_EQ(t.find(Ipv4::parse("10.0.0.99"), 24)->prefix,
            Ipv4::parse("10.0.0.0"));
  EXPECT_FALSE(t.remove(Ipv4::parse("10.0.1.0"), 24));
  EXPECT_TRUE(t.remove(Ipv4::parse("10.0.0.3"), 24));
  EXPECT_EQ(t.lookup(Ipv4::parse("10.0.0.7")), nullptr);
}

// --------------------------------------------- forwarding-path ICMP errors

TEST(RouterIcmp, TtlExpiryAnswersWithTimeExceeded) {
  auto wan = apps::make_topology({.seed = 12, .hops = 1});
  std::optional<IcmpMessage> err;
  // Replaces the TCP layer's ICMP handler on the client — fine here, the
  // test owns the host.
  wan->client->ip().register_protocol(
      Proto::kIcmp, [&](const IpDatagram& d, const RxMeta&) {
        err = IcmpMessage::parse(d.payload);
      });
  IpDatagram d;
  d.src = wan->client->address();
  d.dst = wan->primary->address();
  d.proto = Proto::kHeartbeat;
  d.ttl = 1;  // dies at the router
  d.payload = to_bytes("x");
  wan->client->ip().send_datagram(std::move(d));
  wan->sim.run();
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->type, kIcmpTimeExceeded);
  EXPECT_EQ(err->code, kIcmpTtlExpired);
  EXPECT_EQ(err->quoted_src, wan->client->address());
  EXPECT_EQ(err->quoted_dst, wan->primary->address());
  EXPECT_EQ(wan->edge().ip().ttl_expired(), 1u);
  EXPECT_EQ(wan->edge().obs().registry.counter_value("router.ttl_expired"), 1u);
}

TEST(RouterIcmp, NoIcmpAboutIcmp) {
  auto wan = apps::make_topology({.seed = 12, .hops = 1});
  int icmp_at_client = 0;
  wan->client->ip().register_protocol(
      Proto::kIcmp, [&](const IpDatagram&, const RxMeta&) { ++icmp_at_client; });
  IpDatagram d;
  d.src = wan->client->address();
  d.dst = wan->primary->address();
  d.proto = Proto::kIcmp;  // an ICMP message whose TTL expires
  d.ttl = 1;
  d.payload = IcmpMessage{}.serialize();
  wan->client->ip().send_datagram(std::move(d));
  wan->sim.run();
  EXPECT_EQ(wan->edge().ip().ttl_expired(), 1u);
  EXPECT_EQ(icmp_at_client, 0);  // dropped silently, no error storm
}

TEST(RouterIcmp, OversizedDatagramAnswersWithFragNeeded) {
  auto wan = apps::make_topology({.seed = 12, .hops = 1});
  wan->edge().ip().interface(1).mtu = 600;  // WAN egress toward the client
  std::optional<IcmpMessage> err;
  wan->primary->ip().register_protocol(
      Proto::kIcmp, [&](const IpDatagram& d, const RxMeta&) {
        err = IcmpMessage::parse(d.payload);
      });
  int delivered = 0;
  wan->client->ip().register_protocol(
      Proto::kHeartbeat, [&](const IpDatagram&, const RxMeta&) { ++delivered; });
  wan->primary->ip().send(Proto::kHeartbeat, Ipv4::any(),
                          wan->client->address(), Bytes(1000, 0xAB));
  wan->sim.run();
  EXPECT_EQ(delivered, 0);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->type, kIcmpDestUnreachable);
  EXPECT_EQ(err->code, kIcmpFragNeeded);
  EXPECT_EQ(err->mtu, 600);
  EXPECT_EQ(err->quoted_dst, wan->client->address());
  EXPECT_EQ(wan->edge().ip().frag_needed_sent(), 1u);
  EXPECT_EQ(wan->edge().obs().registry.counter_value("router.frag_needed_sent"),
            1u);
}

// The legitimate-router counterpart of PR 9's forged-ICMP tests: a real
// frag-needed from the on-path router clamps the sender's effective MSS
// (quoted segment is in flight, so validation accepts it) and the transfer
// then completes through the narrow link.
TEST(RouterIcmp, FragNeededDrivesPmtudClamp) {
  auto wan = apps::make_topology({.seed = 12, .hops = 1});
  wan->edge().ip().interface(1).mtu = 600;

  std::shared_ptr<tcp::Connection> server;
  wan->primary->tcp().listen(
      80, [&](std::shared_ptr<tcp::Connection> c) { server = std::move(c); });
  auto client = wan->client->tcp().connect(wan->primary->address(), 80);
  Bytes got;
  client->on_readable = [&] { client->recv(got); };
  ASSERT_TRUE(test::run_until(wan->sim, [&] {
    return server && client->state() == tcp::TcpState::kEstablished;
  }, seconds(10)));

  const Bytes blob = apps::deterministic_payload(20 * 1024, 9);
  server->send(blob);
  ASSERT_TRUE(
      test::run_until(wan->sim, [&] { return got.size() == blob.size(); },
                      seconds(600)));
  EXPECT_EQ(got, blob);
  EXPECT_EQ(server->effective_mss(), 600u - 40u);
  EXPECT_GT(wan->edge().ip().frag_needed_sent(), 0u);
}

// ------------------------------------------------ route-advert protocol

TEST(RouteAdvert, WireRoundTripAndRejection) {
  RouteAdvertMessage m;
  m.kind = RouteAdvertMessage::kAdvert;
  m.prefix_len = 32;
  m.metric = 7;
  m.prefix = Ipv4::parse("10.0.0.1");
  m.next_hop = Ipv4::parse("10.0.0.2");
  m.origin = Ipv4::parse("10.0.0.2");
  m.seq = 42;
  const Bytes w = m.serialize();
  ASSERT_EQ(w.size(), RouteAdvertMessage::kWireBytes);
  const auto r = RouteAdvertMessage::parse(w);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->kind, RouteAdvertMessage::kAdvert);
  EXPECT_EQ(r->metric, 7);
  EXPECT_EQ(r->prefix, m.prefix);
  EXPECT_EQ(r->origin, m.origin);
  EXPECT_EQ(r->seq, 42u);

  Bytes bad = w;
  bad[0] = 9;  // unknown kind
  EXPECT_FALSE(RouteAdvertMessage::parse(bad).has_value());
  bad = w;
  bad[1] = 33;  // impossible prefix length
  EXPECT_FALSE(RouteAdvertMessage::parse(bad).has_value());
  bad = w;
  bad.resize(10);
  EXPECT_FALSE(RouteAdvertMessage::parse(bad).has_value());
}

// A hand-rolled advert redirects traffic for a_p to the secondary at a
// single router, and the router acks the originator: the §5 takeover
// redirect without any bridge machinery involved.
TEST(RouteAdvert, RouterInstallsHostRouteAndAcks) {
  auto wan = apps::make_topology({.seed = 12, .hops = 1});
  const Ipv4 a_p = wan->primary->address();
  const Ipv4 a_s = wan->secondary->address();

  wan->secondary->ip().add_alias(a_p);
  int delivered_at_secondary = 0;
  std::optional<RouteAdvertMessage> ack;
  wan->secondary->ip().register_protocol(
      Proto::kHeartbeat,
      [&](const IpDatagram&, const RxMeta&) { ++delivered_at_secondary; });
  wan->secondary->ip().register_protocol(
      Proto::kRouteAdvert, [&](const IpDatagram& d, const RxMeta&) {
        ack = RouteAdvertMessage::parse(d.payload);
      });

  RouteAdvertMessage m;
  m.prefix = a_p;
  m.prefix_len = 32;
  m.metric = 0;
  m.next_hop = a_s;
  m.origin = a_s;
  m.seq = 1;
  wan->secondary->ip().send(Proto::kRouteAdvert, Ipv4::any(),
                            Ipv4::parse(apps::Topology::kRouterLanAddr),
                            m.serialize());
  wan->sim.run();

  const RouteEntry* e = wan->edge().ip().routes().find(a_p, 32);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->next_hop, a_s);
  EXPECT_EQ(e->metric, 1);  // advertised 0, one hop added on install
  EXPECT_TRUE(e->dynamic);
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(ack->kind, RouteAdvertMessage::kAck);
  EXPECT_EQ(ack->seq, 1u);
  EXPECT_EQ(
      wan->edge().obs().registry.counter_value("route.adverts_received"), 1u);
  EXPECT_EQ(
      wan->edge().obs().registry.counter_value("route.updates_applied"), 1u);

  // Client traffic to a_p now lands on the secondary.
  wan->client->ip().send(Proto::kHeartbeat, Ipv4::any(), a_p, to_bytes("hi"));
  wan->sim.run();
  EXPECT_EQ(delivered_at_secondary, 1);
}

// ------------------------------------------------- a line of routers

TEST(RouterLine, NegativeHopCountIsRejected) {
  EXPECT_THROW(apps::make_topology({.hops = -1}), std::invalid_argument);
  EXPECT_THROW(apps::make_topology({.separate_secondary_lan = true}),
               std::invalid_argument);
}

TEST(RouterLine, StaticRoutesCarryTrafficAcrossTheChain) {
  auto wan = apps::make_topology({.seed = 13, .hops = 3});
  Bytes got;
  std::uint8_t got_ttl = 0;
  wan->primary->ip().register_protocol(
      Proto::kHeartbeat, [&](const IpDatagram& d, const RxMeta&) {
        got = to_bytes(d.payload);
        got_ttl = d.ttl;
      });
  int back = 0;
  wan->client->ip().register_protocol(
      Proto::kHeartbeat, [&](const IpDatagram&, const RxMeta&) { ++back; });
  wan->client->ip().send(Proto::kHeartbeat, Ipv4::any(),
                         wan->primary->address(), to_bytes("chain"));
  wan->sim.run();
  EXPECT_EQ(to_string(got), "chain");
  EXPECT_EQ(got_ttl, 64 - 3);
  // And the reverse path works too.
  wan->primary->ip().send(Proto::kHeartbeat, Ipv4::any(),
                          wan->client->address(), to_bytes("back"));
  wan->sim.run();
  EXPECT_EQ(back, 1);
}

TEST(RouterLine, AdvertPropagatesDownTheChainWithSplitHorizon) {
  auto wan = apps::make_topology({.seed = 13, .hops = 2});
  const Ipv4 a_p = wan->primary->address();
  const Ipv4 a_s = wan->secondary->address();
  wan->secondary->ip().add_alias(a_p);
  int acks = 0;
  wan->secondary->ip().register_protocol(
      Proto::kRouteAdvert, [&](const IpDatagram& d, const RxMeta&) {
        const auto m = RouteAdvertMessage::parse(d.payload);
        if (m && m->kind == RouteAdvertMessage::kAck) ++acks;
      });

  RouteAdvertMessage m;
  m.prefix = a_p;
  m.prefix_len = 32;
  m.metric = 0;
  m.next_hop = a_s;
  m.origin = a_s;
  m.seq = 5;
  wan->secondary->ip().send(Proto::kRouteAdvert, Ipv4::any(),
                            Ipv4::parse(apps::Topology::kRouterLanAddr),
                            m.serialize());
  wan->sim.run();

  auto& edge = wan->edge();
  auto& upstream = *wan->routers[1];
  // Edge router: installed via the secondary, re-advertised upstream.
  const RouteEntry* e0 = edge.ip().routes().find(a_p, 32);
  ASSERT_NE(e0, nullptr);
  EXPECT_EQ(e0->next_hop, a_s);
  EXPECT_EQ(e0->metric, 1);
  EXPECT_EQ(edge.obs().registry.counter_value("route.adverts_propagated"), 1u);
  // Upstream router: installed via the edge router's transit address, one
  // hop worse; nothing further to propagate (split horizon excludes the
  // neighbor it came from, and there is no one else).
  const RouteEntry* e1 = upstream.ip().routes().find(a_p, 32);
  ASSERT_NE(e1, nullptr);
  EXPECT_EQ(e1->metric, 2);
  EXPECT_EQ(upstream.obs().registry.counter_value("route.adverts_received"), 1u);
  EXPECT_EQ(upstream.obs().registry.counter_value("route.adverts_propagated"),
            0u);
  // Both routers acked the originator.
  EXPECT_EQ(acks, 2);

  // A replayed (identical) advert changes nothing and does not propagate.
  m.seq = 6;
  wan->secondary->ip().send(Proto::kRouteAdvert, Ipv4::any(),
                            Ipv4::parse(apps::Topology::kRouterLanAddr),
                            m.serialize());
  wan->sim.run();
  EXPECT_EQ(edge.obs().registry.counter_value("route.adverts_propagated"), 1u);
  EXPECT_EQ(edge.obs().registry.counter_value("route.updates_applied"), 1u);

  // End to end: client traffic to a_p crosses both routers to S.
  int at_secondary = 0;
  wan->secondary->ip().register_protocol(
      Proto::kHeartbeat,
      [&](const IpDatagram&, const RxMeta&) { ++at_secondary; });
  wan->client->ip().send(Proto::kHeartbeat, Ipv4::any(), a_p, to_bytes("x"));
  wan->sim.run();
  EXPECT_EQ(at_secondary, 1);
}

}  // namespace
}  // namespace tfo::ip
