// PR 10 end-to-end coverage: takeover across subnets (RouteAnnouncer +
// mirror-inbound replication, client several routers away) and Mosh-style
// client mobility (mid-connection address change), alone and combined
// with failover.
#include <gtest/gtest.h>

#include "apps/echo.hpp"
#include "apps/ftp.hpp"
#include "apps/topology.hpp"
#include "core/replica_group.hpp"
#include "core/takeover_announcer.hpp"
#include "impairment_util.hpp"
#include "test_util.hpp"

namespace tfo::core {
namespace {

using test::run_until;

// ------------------------------------------- routed takeover, multi-subnet

struct Wan2Param {
  int hops;
  bool separate_lan;
  const char* label;
};

class Wan2Failover : public ::testing::TestWithParam<Wan2Param> {};

// FTP download with the primary crashing mid-transfer, the client `hops`
// routers away. Takeover is announced as a /32 host route instead of a
// gratuitous ARP; the replica feed is the primary's inbound mirror instead
// of promiscuous snooping. The client must see zero resets and a complete,
// intact file.
TEST_P(Wan2Failover, MidTransferCrashInvisibleToClient) {
  const Wan2Param& p = GetParam();
  apps::Wan2Params wp;
  wp.hops = p.hops;
  wp.separate_secondary_lan = p.separate_lan;
  wp.wan_link.bandwidth_bps = 4'000'000;
  wp.wan_link.propagation = milliseconds(5);
  auto wan = apps::make_wan2(wp);

  FailoverConfig cfg;
  cfg.ports = {21, 20};
  cfg.announcer = std::make_shared<RouteAnnouncer>();
  cfg.mirror_inbound = true;
  ReplicaGroup group(*wan->primary, *wan->secondary, cfg);
  apps::FtpServer ftp_p(wan->primary->tcp());
  apps::FtpServer ftp_s(wan->secondary->tcp());
  const Bytes file = apps::deterministic_payload(200 * 1024, 10);
  ftp_p.add_file("f.bin", file);
  ftp_s.add_file("f.bin", file);
  group.start();

  test::RstCounter rsts(wan->sim, wan->client->nic());
  apps::FtpClient client(wan->client->tcp(), wan->primary->address());
  bool logged_in = false;
  client.login([&](bool ok) { logged_in = ok; });
  ASSERT_TRUE(run_until(wan->sim, [&] { return logged_in; }, seconds(120)));

  bool done = false, ok = false;
  Bytes got;
  client.get("f.bin", [&](bool k, Bytes b) {
    ok = k;
    got = std::move(b);
    done = true;
  });
  ASSERT_TRUE(run_until(wan->sim, [&] {
    return wan->client->tcp().connection_count() >= 2;
  }, seconds(120)));
  wan->sim.run_for(milliseconds(100));
  group.crash_primary();

  ASSERT_TRUE(run_until(wan->sim, [&] { return done; }, seconds(1200)));
  EXPECT_TRUE(ok);
  EXPECT_EQ(got, file);
  EXPECT_EQ(rsts.count(), 0u);

  // The takeover left a /32 host route for a_p pointing at the secondary
  // on the server-side router...
  const ip::RouteEntry* e =
      wan->routers[0]->ip().routes().find(wan->primary->address(), 32);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->next_hop, wan->secondary->address());
  // ...and its convergence was observed: the announcer saw a router ack
  // and the secondary's timeline records when.
  auto* ra = static_cast<RouteAnnouncer*>(cfg.announcer.get());
  EXPECT_TRUE(ra->converged());
  EXPECT_FALSE(
      wan->secondary->obs().timeline.filter(obs::EventKind::kRouteConverged)
          .empty());
  EXPECT_GT(wan->secondary->obs().registry.counter_value("route.adverts_sent"),
            0u);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, Wan2Failover,
    ::testing::Values(Wan2Param{1, false, "one_hop"},
                      Wan2Param{2, false, "two_hops"},
                      Wan2Param{3, false, "three_hops"},
                      Wan2Param{2, true, "two_hops_secondary_own_lan"}),
    [](const ::testing::TestParamInfo<Wan2Param>& info) {
      return info.param.label;
    });

// ------------------------------------------------------- client mobility

Bytes bytes_of(const char* s) { return to_bytes(s); }

// Plain TCP, no bridges: an established connection survives the client
// detaching, re-attaching on a different subnet, and continuing — the
// server rekeys on the migrate-from option (DESIGN.md §11).
TEST(Mobility, ClientMovesMidStream) {
  auto mob = apps::make_mobile({});
  apps::EchoServer echo(mob->primary->tcp(), 7);
  auto client = mob->client->tcp().connect(mob->primary->address(), 7);
  Bytes got;
  client->on_readable = [&] { client->recv(got); };
  bool closed = false;
  client->on_closed = [&](tcp::CloseReason) { closed = true; };
  ASSERT_TRUE(run_until(mob->sim, [&] {
    return client->state() == tcp::TcpState::kEstablished;
  }, seconds(10)));

  client->send(bytes_of("before-move"));
  ASSERT_TRUE(
      run_until(mob->sim, [&] { return got.size() == 11; }, seconds(30)));

  mob->move_client();
  EXPECT_EQ(mob->client->address(), ip::Ipv4::parse(apps::Mobile::kClientAddrB));
  client->send(bytes_of("after-move"));
  ASSERT_TRUE(
      run_until(mob->sim, [&] { return got.size() == 21; }, seconds(30)));
  EXPECT_EQ(to_string(got), "before-moveafter-move");
  EXPECT_FALSE(closed);

  // The server-side connection rebound to the client's new address.
  EXPECT_EQ(mob->primary->obs().registry.counter_value("tcp.remote_rekeys"), 1u);
  EXPECT_FALSE(
      mob->primary->obs().timeline.filter(obs::EventKind::kClientMigrated)
          .empty());
  // And the client stamped + cleared the migrate-from option: once the
  // server answered at the new address the pending flag is gone.
  EXPECT_FALSE(client->migration_pending());
}

// An off-path attacker cannot use the migration path to steal a
// connection: a forged migrate-from segment with an implausible sequence
// number is dropped (silently — a RST would leak state), counted, and the
// connection stays bound to the real client.
TEST(Mobility, ForgedMigrationRejected) {
  auto mob = apps::make_mobile({});
  apps::EchoServer echo(mob->primary->tcp(), 7);
  auto client = mob->client->tcp().connect(mob->primary->address(), 7);
  ASSERT_TRUE(run_until(mob->sim, [&] {
    return client->state() == tcp::TcpState::kEstablished;
  }, seconds(10)));

  // The attacker sits on segment B and knows the 4-tuple but not the
  // sequence space.
  apps::HostParams hp;
  hp.name = "attacker";
  hp.addr = ip::Ipv4::parse("192.168.2.66");
  auto attacker = std::make_unique<apps::Host>(mob->sim, hp, *mob->wan_b);
  attacker->set_default_gateway(ip::Ipv4::parse(apps::Mobile::kGwB));
  attacker->arp().add_static(ip::Ipv4::parse(apps::Mobile::kGwB),
                             mob->router->nic(2).mac());
  mob->router->arp(2).add_static(attacker->address(), attacker->nic().mac());

  tcp::TcpSegment forged;
  forged.src_port = client->key().local_port;
  forged.dst_port = 7;
  forged.flags = tcp::Flags::kAck;
  forged.migrate_from = mob->client->address();
  forged.seq = seq_add(client->rcv_nxt_abs(), 500'000);  // implausible
  forged.ack = 0;
  attacker->ip().send(ip::Proto::kTcp, attacker->address(),
                      mob->primary->address(),
                      forged.take_wire(attacker->address(),
                                       mob->primary->address()));
  mob->sim.run_for(seconds(1));

  EXPECT_GE(
      mob->primary->obs().registry.counter_value("tcp.migrates_rejected"), 1u);
  EXPECT_EQ(mob->primary->obs().registry.counter_value("tcp.remote_rekeys"),
            0u);
  // The real client still owns the connection.
  Bytes got;
  client->on_readable = [&] { client->recv(got); };
  client->send(bytes_of("still-mine"));
  ASSERT_TRUE(
      run_until(mob->sim, [&] { return got.size() == 10; }, seconds(30)));
}

// Mobility composed with failover, in both orders. The replica pair sits
// on the shared LAN (classic GARP takeover); the client changes address
// mid-stream. Every layer that tracks the 4-tuple — both bridges, both
// server TCP stacks — must follow the move.
TEST(Mobility, MoveThenFailover) {
  apps::MobileParams mp;
  auto mob = apps::make_mobile(mp);
  FailoverConfig cfg;
  cfg.ports = {7};
  ReplicaGroup group(*mob->primary, *mob->secondary, cfg);
  apps::EchoServer echo_p(mob->primary->tcp(), 7);
  apps::EchoServer echo_s(mob->secondary->tcp(), 7);
  group.start();

  test::RstCounter rsts(mob->sim, mob->client->nic());
  auto client = mob->client->tcp().connect(mob->primary->address(), 7);
  Bytes got;
  client->on_readable = [&] { client->recv(got); };
  ASSERT_TRUE(run_until(mob->sim, [&] {
    return client->state() == tcp::TcpState::kEstablished;
  }, seconds(10)));

  client->send(bytes_of("one."));
  ASSERT_TRUE(run_until(mob->sim, [&] { return got.size() == 4; }, seconds(30)));

  mob->move_client();
  client->send(bytes_of("two."));
  ASSERT_TRUE(run_until(mob->sim, [&] { return got.size() == 8; }, seconds(30)));

  group.crash_primary();
  mob->sim.run_for(milliseconds(500));  // let takeover finish
  client->send(bytes_of("three."));
  ASSERT_TRUE(
      run_until(mob->sim, [&] { return got.size() == 14; }, seconds(60)));
  EXPECT_EQ(to_string(got), "one.two.three.");
  EXPECT_EQ(rsts.count(), 0u);
  // The secondary's replica followed the move too (via the snooped
  // migrate-from segment).
  EXPECT_GE(mob->secondary->obs().registry.counter_value("tcp.remote_rekeys"),
            1u);
}

TEST(Mobility, FailoverThenMove) {
  auto mob = apps::make_mobile({});
  FailoverConfig cfg;
  cfg.ports = {7};
  ReplicaGroup group(*mob->primary, *mob->secondary, cfg);
  apps::EchoServer echo_p(mob->primary->tcp(), 7);
  apps::EchoServer echo_s(mob->secondary->tcp(), 7);
  group.start();

  test::RstCounter rsts(mob->sim, mob->client->nic());
  auto client = mob->client->tcp().connect(mob->primary->address(), 7);
  Bytes got;
  client->on_readable = [&] { client->recv(got); };
  ASSERT_TRUE(run_until(mob->sim, [&] {
    return client->state() == tcp::TcpState::kEstablished;
  }, seconds(10)));
  client->send(bytes_of("one."));
  ASSERT_TRUE(run_until(mob->sim, [&] { return got.size() == 4; }, seconds(30)));

  group.crash_primary();
  mob->sim.run_for(milliseconds(500));
  client->send(bytes_of("two."));
  ASSERT_TRUE(run_until(mob->sim, [&] { return got.size() == 8; }, seconds(60)));

  // Post-takeover the secondary serves a_p; now the client moves. The
  // surviving stack's plain-TCP migration path must rekey.
  mob->move_client();
  client->send(bytes_of("three."));
  ASSERT_TRUE(
      run_until(mob->sim, [&] { return got.size() == 14; }, seconds(60)));
  EXPECT_EQ(to_string(got), "one.two.three.");
  EXPECT_EQ(rsts.count(), 0u);
  EXPECT_GE(mob->secondary->obs().registry.counter_value("tcp.remote_rekeys"),
            1u);
}

}  // namespace
}  // namespace tfo::core
