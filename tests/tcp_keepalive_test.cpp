// TCP keepalive: idle-connection probing, dead-peer detection, and the
// interaction with the failover bridge (a keepalive probe is a §4
// retransmission from the bridge's point of view and must be forwarded).
#include <gtest/gtest.h>

#include "failover_fixture.hpp"
#include "ip/datagram.hpp"

namespace tfo::tcp {
namespace {

using apps::TopologyParams;
using test::run_until;

struct KeepaliveFixture : ::testing::Test {
  std::unique_ptr<apps::Topology> lan;
  std::shared_ptr<Connection> server, client;

  void build(SimDuration idle, SimDuration interval = seconds(1), int probes = 3) {
    TopologyParams lp;
    lp.tcp.keepalive_idle = idle;
    lp.tcp.keepalive_interval = interval;
    lp.tcp.keepalive_probes = probes;
    lan = apps::make_topology(lp);
    lan->primary->tcp().listen(80, [this](std::shared_ptr<Connection> c) {
      server = std::move(c);
    });
    client = lan->client->tcp().connect(lan->primary->address(), 80, {.nodelay = true});
    ASSERT_TRUE(run_until(lan->sim, [&] {
      return server && client->state() == TcpState::kEstablished;
    }));
  }
};

TEST_F(KeepaliveFixture, IdleConnectionWithLivePeerStaysUp) {
  build(seconds(2));
  lan->sim.run_for(seconds(30));
  EXPECT_EQ(client->state(), TcpState::kEstablished);
  EXPECT_EQ(server->state(), TcpState::kEstablished);
  // Probes flowed (segments were exchanged despite app silence).
  EXPECT_GT(client->info().segments_sent, 5u);
}

TEST(Keepalive, OneSidedProbesAreAnsweredByALivePeer) {
  // Keepalive on the client only: the server never probes, so the client
  // hears from it only when a probe is answered. Each probe is one byte
  // the server already acknowledged, which its old-data path re-ACKs.
  auto lan = apps::make_topology({});
  auto& cp = lan->client->tcp().mutable_params();
  cp.keepalive_idle = seconds(2);
  cp.keepalive_interval = seconds(1);
  cp.keepalive_probes = 3;
  std::shared_ptr<Connection> server;
  lan->primary->tcp().listen(80, [&](std::shared_ptr<Connection> c) { server = c; });
  auto client = lan->client->tcp().connect(lan->primary->address(), 80);
  ASSERT_TRUE(run_until(lan->sim, [&] {
    return server && client->state() == TcpState::kEstablished;
  }));
  const auto answers_before = server->info().segments_sent;
  lan->sim.run_for(seconds(30));
  EXPECT_EQ(client->state(), TcpState::kEstablished);
  EXPECT_EQ(server->state(), TcpState::kEstablished);
  // One answer per idle period (2 s) over 30 s.
  EXPECT_GE(server->info().segments_sent - answers_before, 10u);
  EXPECT_EQ(server->rx_available(), 0u);  // the probe bytes are never delivered
}

TEST_F(KeepaliveFixture, DeadPeerDetectedAndAborted) {
  build(seconds(2), seconds(1), 3);
  CloseReason reason{};
  bool closed = false;
  client->on_closed = [&](CloseReason r) {
    reason = r;
    closed = true;
  };
  lan->primary->fail();
  // idle (2s) + 3 probes (3s) + final check => well under 30s.
  ASSERT_TRUE(run_until(lan->sim, [&] { return closed; }, seconds(30)));
  EXPECT_EQ(reason, CloseReason::kTimeout);
}

TEST_F(KeepaliveFixture, TrafficKeepsResettingTheIdleClock) {
  build(seconds(2), seconds(1), 2);
  Bytes got;
  server->on_readable = [&] { server->recv(got); };
  // Chat every second: the 2s idle threshold is never reached, so the
  // segments on the wire are data, not probes.
  const auto probes_before = client->info().segments_sent;
  for (int i = 0; i < 10; ++i) {
    client->send(to_bytes("tick"));
    lan->sim.run_for(seconds(1));
  }
  EXPECT_EQ(client->state(), TcpState::kEstablished);
  EXPECT_EQ(got.size(), 40u);
  (void)probes_before;
}

TEST_F(KeepaliveFixture, DisabledByDefault) {
  build(0);
  lan->primary->fail();
  lan->sim.run_for(seconds(60));
  // No keepalive: an idle connection to a dead peer just sits there.
  EXPECT_EQ(client->state(), TcpState::kEstablished);
}

TEST_F(KeepaliveFixture, NoProbeWhileARetransmissionIsPending) {
  // Data outstanding to a peer that has gone silent: the RTO owns the
  // connection timer (Linux's tcp_keepalive_timer also defers while
  // packets are out), so no keepalive probe goes out and the connection
  // ends through the retransmission limit, not the keepalive limit.
  build(seconds(2), seconds(1), 3);
  // The two ends no longer hear each other; the client's segments are
  // recorded on the way.
  const ip::Ipv4 cli = lan->client->address();
  auto payload_lens = std::make_shared<std::vector<std::size_t>>();
  lan->wire->set_loss_fn([=](const net::Nic&, const net::Nic& rx,
                             const net::EthernetFrame& f) {
    auto d = ip::IpDatagram::parse(f.payload);
    if (!d || d->proto != ip::Proto::kTcp) return false;
    if (rx.name() == "primary.eth0" && d->src == cli) {
      const std::size_t hdr = static_cast<std::size_t>(d->payload[12] >> 4) * 4;
      payload_lens->push_back(d->payload.size() - hdr);
      return true;
    }
    return rx.name() == "client.eth0";
  });
  CloseReason reason{};
  bool closed = false;
  client->on_closed = [&](CloseReason r) {
    reason = r;
    closed = true;
  };
  const SimTime start = lan->sim.now();
  client->send(to_bytes("unanswered"));
  ASSERT_TRUE(run_until(lan->sim, [&] { return closed; }, seconds(900)));
  EXPECT_EQ(reason, CloseReason::kTimeout);
  EXPECT_EQ(client->info().timeouts,
            static_cast<std::uint64_t>(client->params().max_retries));
  // Far past idle + probes × interval (5 s): the keepalive limit did not
  // end it.
  EXPECT_GT(static_cast<SimDuration>(lan->sim.now() - start), seconds(60));
  // The original segment, its 12 retransmissions and the final RST (let
  // it reach the wire): no one-byte probe among them.
  lan->sim.run_for(milliseconds(10));
  EXPECT_EQ(payload_lens->size(),
            static_cast<std::size_t>(client->params().max_retries) + 2);
  for (std::size_t len : *payload_lens) EXPECT_NE(len, 1u);
}

TEST(KeepaliveFailover, IdleSessionSurvivesFailoverThanksToKeepalive) {
  // An idle client with keepalive enabled: the probes traverse the bridge
  // (and after the crash, the takeover), so the session stays verified
  // alive across the failover with zero application traffic.
  apps::TopologyParams lp;
  lp.tcp.keepalive_idle = seconds(1);
  lp.tcp.keepalive_interval = seconds(1);
  lp.tcp.keepalive_probes = 5;
  auto r = test::make_replicated(lp);
  test::EchoDriver d(r->client(), r->primary().address(), test::kEchoPort, 1000, 500);
  ASSERT_TRUE(run_until(r->sim(), [&] { return d.done(); }, seconds(60)));

  r->group->crash_primary();
  r->sim().run_for(seconds(20));  // long idle spanning the failover
  EXPECT_EQ(d.connection().state(), tcp::TcpState::kEstablished);

  // And the session still works afterwards.
  d.connection().send(to_bytes("still here?"));
  Bytes got;
  d.connection().on_readable = [&] { d.connection().recv(got); };
  ASSERT_TRUE(run_until(r->sim(), [&] { return got.size() == 11; }, seconds(60)));
  EXPECT_EQ(to_string(got), "still here?");
}

}  // namespace
}  // namespace tfo::tcp
