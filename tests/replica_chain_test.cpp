// Tests for N-way daisy-chained replication (the paper's §1 extension):
// fault-free operation and every crash pattern of 3- and 4-member chains,
// always asserting the client's byte stream is exactly preserved.
#include <gtest/gtest.h>

#include "apps/echo.hpp"
#include "core/replica_chain.hpp"
#include "failover_fixture.hpp"

namespace tfo::core {
namespace {

using test::kEchoPort;
using test::run_until;

struct ChainFixture : ::testing::Test {
  std::unique_ptr<apps::Lan> lan;
  std::vector<std::unique_ptr<apps::Host>> extra_hosts;
  std::vector<apps::Host*> servers;
  std::vector<std::unique_ptr<apps::EchoServer>> echoes;
  std::unique_ptr<ReplicaChain> chain;

  /// Builds a chain of `n` replicas: H0 = lan->primary (service address),
  /// H1 = lan->secondary, H2+ are extra hosts on the same wire.
  void build(std::size_t n, apps::LanParams lp = {}) {
    lan = apps::make_lan(lp);
    servers = {lan->primary.get(), lan->secondary.get()};
    for (std::size_t i = 2; i < n; ++i) {
      apps::HostParams hp;
      hp.name = "backup" + std::to_string(i);
      hp.addr = ip::Ipv4::parse(("10.0.0." + std::to_string(20 + i)).c_str());
      hp.nic = lp.nic;
      hp.tcp = lp.tcp;
      hp.seed = 100 + i;
      auto host = std::make_unique<apps::Host>(lan->sim, hp, *lan->wire);
      servers.push_back(host.get());
      extra_hosts.push_back(std::move(host));
    }
    // Warm ARP everywhere (including the client).
    std::vector<apps::Host*> all = servers;
    all.push_back(lan->client.get());
    for (auto* a : all) {
      for (auto* b : all) {
        if (a != b) a->arp().add_static(b->address(), b->nic().mac());
      }
    }
    FailoverConfig cfg;
    cfg.ports = {kEchoPort};
    chain = std::make_unique<ReplicaChain>(servers, cfg);
    for (auto* s : servers) {
      echoes.push_back(std::make_unique<apps::EchoServer>(s->tcp(), kEchoPort));
    }
    chain->start();
  }

  /// A fresh host on the wire, running the echo service, ARP-warm with
  /// every other host: a recruit for append_tail().
  apps::Host& add_recruit() {
    apps::HostParams hp;
    hp.name = "recruit";
    hp.addr = ip::Ipv4::parse("10.0.0.30");
    hp.seed = 303;
    auto host = std::make_unique<apps::Host>(lan->sim, hp, *lan->wire);
    apps::Host& r = *host;
    extra_hosts.push_back(std::move(host));
    std::vector<apps::Host*> others = servers;
    others.push_back(lan->client.get());
    for (auto* o : others) {
      o->arp().add_static(r.address(), r.nic().mac());
      r.arp().add_static(o->address(), o->nic().mac());
    }
    echoes.push_back(std::make_unique<apps::EchoServer>(r.tcp(), kEchoPort));
    return r;
  }

  /// Runs a full transfer, crashing members at the given received-byte
  /// thresholds; returns driver success.
  void run_with_crashes(std::vector<std::pair<std::size_t, std::size_t>> crashes,
                        std::size_t total = 120 * 1024) {
    test::EchoDriver d(*lan->client, servers[0]->address(), kEchoPort, total, 4096);
    for (auto [member, at_bytes] : crashes) {
      ASSERT_TRUE(run_until(lan->sim, [&] { return d.received().size() >= at_bytes; },
                            seconds(600)))
          << "stalled before crash of member " << member << " at "
          << d.received().size();
      chain->crash(member);
    }
    ASSERT_TRUE(run_until(lan->sim, [&] { return d.done(); }, seconds(600)))
        << "stalled at " << d.received().size() << "/" << total;
    EXPECT_TRUE(d.verify());
    EXPECT_FALSE(d.close_reason().has_value());
  }
};

TEST_F(ChainFixture, ThreeWayFaultFreeReplicatesToAll) {
  build(3);
  test::EchoDriver d(*lan->client, servers[0]->address(), kEchoPort, 50000, 2000);
  ASSERT_TRUE(run_until(lan->sim, [&] { return d.done(); }, seconds(300)));
  EXPECT_TRUE(d.verify());
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(echoes[i]->bytes_echoed(), 50000u) << "replica " << i;
  }
}

TEST_F(ChainFixture, ClientSynchronizedToTailSequenceSpace) {
  build(3);
  auto conn = lan->client->tcp().connect(servers[0]->address(), kEchoPort,
                                         {.nodelay = true});
  Bytes got;
  conn->on_established = [&] { conn->send(to_bytes("ping-the-chain")); };
  conn->on_readable = [&] { conn->recv(got); };
  ASSERT_TRUE(run_until(lan->sim, [&] { return got.size() == 14; }, seconds(60)));
  // The tail's TCP connection and the client agree on byte counts; the
  // wire sequence numbers the client sees are the tail's (checked
  // indirectly: head/middle ISNs differ yet the stream works, and the
  // merge bridges report no divergence).
  const tcp::ConnKey tail_key{servers[2]->address(), kEchoPort,
                              lan->client->address(), conn->key().local_port};
  auto tail_conn = servers[2]->tcp().find(tail_key);
  ASSERT_NE(tail_conn, nullptr);
  EXPECT_EQ(tail_conn->bytes_sent_total(), conn->bytes_received_total());
  EXPECT_EQ(chain->merge_bridge(0)->divergences(), 0u);
  EXPECT_EQ(chain->merge_bridge(1)->divergences(), 0u);
}

TEST_F(ChainFixture, HeadCrashPromotesSecond) {
  build(3);
  run_with_crashes({{0, 40 * 1024}});
  EXPECT_EQ(chain->head(), servers[1]);
  EXPECT_TRUE(chain->divert_bridge(1)->taken_over());
  EXPECT_TRUE(servers[1]->ip().is_local(servers[0]->address()));
}

TEST_F(ChainFixture, MiddleCrashBridgesAroundIt) {
  build(3);
  run_with_crashes({{1, 40 * 1024}});
  EXPECT_EQ(chain->head(), servers[0]);
  // The tail now diverts straight to the head (the service address).
  EXPECT_EQ(chain->divert_bridge(2)->divert_to(), servers[0]->address());
}

TEST_F(ChainFixture, TailCrashLeavesPairRunning) {
  build(3);
  run_with_crashes({{2, 40 * 1024}});
  // The middle member finished the chain solo below the head.
  EXPECT_TRUE(chain->merge_bridge(1)->secondary_failed());
  EXPECT_FALSE(chain->merge_bridge(0)->secondary_failed());
}

TEST_F(ChainFixture, HeadThenMiddleLeavesTailServing) {
  build(3);
  run_with_crashes({{0, 30 * 1024}, {1, 70 * 1024}});
  EXPECT_EQ(chain->head(), servers[2]);
  EXPECT_TRUE(servers[2]->ip().is_local(servers[0]->address()));
}

TEST_F(ChainFixture, HeadThenTailLeavesMiddleServing) {
  build(3);
  run_with_crashes({{0, 30 * 1024}, {2, 70 * 1024}});
  EXPECT_EQ(chain->head(), servers[1]);
  EXPECT_TRUE(chain->merge_bridge(1)->secondary_failed());
}

TEST_F(ChainFixture, TailThenHeadLeavesMiddleServing) {
  build(3);
  run_with_crashes({{2, 30 * 1024}, {0, 70 * 1024}});
  EXPECT_EQ(chain->head(), servers[1]);
}

TEST_F(ChainFixture, MiddleThenHeadLeavesTailServing) {
  build(3);
  run_with_crashes({{1, 30 * 1024}, {0, 70 * 1024}});
  EXPECT_EQ(chain->head(), servers[2]);
}

TEST_F(ChainFixture, FourWayChainSurvivesThreeSequentialCrashes) {
  build(4);
  run_with_crashes({{0, 20 * 1024}, {1, 60 * 1024}, {2, 100 * 1024}},
                   160 * 1024);
  EXPECT_EQ(chain->head(), servers[3]);
  EXPECT_EQ(chain->alive_count(), 1u);
}

TEST_F(ChainFixture, FourWayChainSurvivesOutOfOrderCrashes) {
  build(4);
  // Kill the two middles first, then the head: tail must end up serving.
  run_with_crashes({{2, 20 * 1024}, {1, 60 * 1024}, {0, 100 * 1024}},
                   160 * 1024);
  EXPECT_EQ(chain->head(), servers[3]);
}

TEST_F(ChainFixture, NewConnectionsServedAfterHeadPromotion) {
  build(3);
  chain->crash(0);
  ASSERT_TRUE(run_until(lan->sim, [&] {
    return chain->divert_bridge(1)->taken_over();
  }, seconds(10)));
  lan->sim.run_for(milliseconds(50));
  test::EchoDriver d(*lan->client, servers[0]->address(), kEchoPort, 30000, 2000);
  ASSERT_TRUE(run_until(lan->sim, [&] { return d.done(); }, seconds(300)));
  EXPECT_TRUE(d.verify());
  // Both survivors replicated the new session.
  EXPECT_EQ(echoes[1]->bytes_echoed(), echoes[2]->bytes_echoed());
}

// Head promotion rekeys the new head's merge bridge into the service
// address. A connection whose handshake is still pending at that moment
// must carry its handshake watch along: a SYN that never completes is
// reaped 4*MSL after it arrived, under its new key.
TEST_F(ChainFixture, PromotionCarriesHandshakeWatch) {
  apps::LanParams lp;
  lp.tcp.listen_backlog = 0;  // every SYN overflows: no handshake completes
  build(3, lp);
  const SimTime ttl = static_cast<SimTime>(4 * lp.tcp.msl);

  // One bare client SYN to the service address. Member 1 snooped it and
  // tracks it under its own interface address.
  const tcp::ConnKey after =
      test::inject_client_syn(*lan->client, servers[0]->address(), kEchoPort, 40000);
  PrimaryBridge& bridge = *chain->merge_bridge(1);
  tcp::ConnKey before = after;
  before.local_ip = servers[1]->address();
  ASSERT_TRUE(run_until(lan->sim, [&] { return bridge.find(before) != nullptr; },
                        seconds(1)));
  const SimTime created = lan->sim.now();

  chain->crash(0);
  ASSERT_TRUE(run_until(lan->sim, [&] {
    return chain->divert_bridge(1)->taken_over();
  }, seconds(1)));
  ASSERT_NE(bridge.find(after), nullptr);
  ASSERT_LT(lan->sim.now(), created + ttl);

  lan->sim.run_until(created + ttl - 1);
  EXPECT_NE(bridge.find(after), nullptr);
  lan->sim.run_until(created + ttl);
  EXPECT_EQ(bridge.find(after), nullptr) << "promoted embryonic entry never reaped";
  EXPECT_EQ(servers[1]->obs().registry.counter_value("bridge.embryonic_reaped"), 1u);
  EXPECT_EQ(bridge.connection_count(), 0u);
}

// Reintegration on a chain: the middle member dies and a recruit is
// appended behind the tail, which has no merge bridge of its own yet.
struct ChainAppendFixture : ChainFixture {
  apps::Host* recruit = nullptr;
  std::unique_ptr<test::EchoDriver> old_conn;

  void crash_middle_and_append() {
    build(3);
    old_conn = std::make_unique<test::EchoDriver>(*lan->client, servers[0]->address(),
                                                  kEchoPort, 400 * 1024, 4096);
    ASSERT_TRUE(run_until(lan->sim, [&] { return old_conn->received().size() > 20000; },
                          seconds(60)));
    chain->crash(1);
    ASSERT_TRUE(run_until(lan->sim, [&] { return !chain->is_alive(1); }, seconds(10)));
    recruit = &add_recruit();
    chain->append_tail(*recruit);
    ASSERT_FALSE(old_conn->done()) << "the old connection must span the append";
    EXPECT_EQ(chain->size(), 4u);
    EXPECT_EQ(chain->divert_bridge(3)->divert_to(), servers[2]->address());
  }
};

TEST_F(ChainAppendFixture, RecruitEchoesNewConnectionOldOneCompletes) {
  crash_middle_and_append();
  lan->sim.run_for(milliseconds(100));
  test::EchoDriver new_conn(*lan->client, servers[0]->address(), kEchoPort, 30000, 2000);
  ASSERT_TRUE(run_until(lan->sim, [&] { return new_conn.done(); }, seconds(120)));
  EXPECT_TRUE(new_conn.verify());
  EXPECT_EQ(echoes[3]->bytes_echoed(), 30000u);

  ASSERT_TRUE(run_until(lan->sim, [&] { return old_conn->done(); }, seconds(300)));
  EXPECT_TRUE(old_conn->verify());
  EXPECT_FALSE(old_conn->close_reason().has_value());
  EXPECT_EQ(chain->merge_bridge(0)->divergences(), 0u);
  EXPECT_EQ(chain->merge_bridge(2)->divergences(), 0u);
}

TEST_F(ChainAppendFixture, HeadCrashAfterAppendKeepsNewStreamAndRecruit) {
  crash_middle_and_append();
  lan->sim.run_for(milliseconds(100));
  test::EchoDriver new_conn(*lan->client, servers[0]->address(), kEchoPort,
                            80 * 1024, 4096);
  ASSERT_TRUE(run_until(lan->sim, [&] { return new_conn.received().size() > 30 * 1024; },
                        seconds(120)));
  ASSERT_FALSE(old_conn->done()) << "the old connection must span the takeover";
  chain->crash(0);
  ASSERT_TRUE(run_until(lan->sim, [&] { return new_conn.done(); }, seconds(300)));
  EXPECT_TRUE(new_conn.verify());
  EXPECT_FALSE(new_conn.close_reason().has_value());
  EXPECT_EQ(chain->head(), servers[2]);
  EXPECT_TRUE(chain->is_alive(3));
  EXPECT_EQ(echoes[3]->bytes_echoed(), 80u * 1024);
  EXPECT_FALSE(recruit->failed());
  // The old connection, exempt from the tail's merge bridge, followed
  // the tail through the takeover.
  ASSERT_TRUE(run_until(lan->sim, [&] { return old_conn->done(); }, seconds(300)));
  EXPECT_TRUE(old_conn->verify());
}

TEST_F(ChainFixture, ChainWithLossStillExact) {
  apps::LanParams lp;
  lp.medium.impairment.loss = 0.03;
  lp.medium.impairment.seed = 99;
  lp.tcp.max_rto = seconds(5);
  build(3, lp);
  run_with_crashes({{0, 40 * 1024}}, 80 * 1024);
}

}  // namespace
}  // namespace tfo::core
