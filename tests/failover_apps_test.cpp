// End-to-end failover with real applications: the deterministic web store
// (the paper's §1 motivating example), active-mode FTP (the §9 real-world
// application, including §7.2 server-initiated data connections), a
// multi-tier topology with an unreplicated back-end, and failover across
// a WAN/router (where IP takeover must flip the router's ARP table).
#include <gtest/gtest.h>

#include "apps/ftp.hpp"
#include "apps/store.hpp"
#include "core/replica_group.hpp"
#include "failover_fixture.hpp"

namespace tfo::core {
namespace {

using test::run_until;

// ----------------------------------------------------------------- store

struct StoreFailover : ::testing::Test {
  std::unique_ptr<test::Replicated> r;
  std::unique_ptr<apps::StoreServer> store_p, store_s;

  void build() {
    FailoverConfig cfg;
    cfg.ports = {8000};
    r = test::make_replicated({}, cfg, [&](apps::Host& h) {
      (store_p ? store_s : store_p) = std::make_unique<apps::StoreServer>(h.tcp(), 8000);
    });
  }
};

TEST_F(StoreFailover, SessionSurvivesPrimaryCrashMidShopping) {
  build();
  apps::StoreClient client(r->client().tcp(), r->primary().address(), 8000);
  client.request("BROWSE grinder");
  client.request("BUY grinder 1");
  ASSERT_TRUE(run_until(r->sim(), [&] { return client.replies().size() >= 2; }));
  EXPECT_EQ(client.replies()[1], "OK 1 8999");

  r->group->crash_primary();
  // Continue the same session: order counter and stock view persist.
  client.request("BUY grinder 2");
  client.request("BROWSE grinder");
  ASSERT_TRUE(run_until(r->sim(), [&] { return client.replies().size() >= 4; },
                        seconds(120)));
  EXPECT_EQ(client.replies()[2], "OK 2 17998");
  EXPECT_EQ(client.replies()[3], "ITEM grinder 8999 37");
  EXPECT_FALSE(client.closed());
}

TEST_F(StoreFailover, SessionSurvivesSecondaryCrash) {
  build();
  apps::StoreClient client(r->client().tcp(), r->primary().address(), 8000);
  client.request("BUY kettle 5");
  ASSERT_TRUE(run_until(r->sim(), [&] { return client.replies().size() >= 1; }));
  r->group->crash_secondary();
  client.request("BROWSE kettle");
  ASSERT_TRUE(run_until(r->sim(), [&] { return client.replies().size() >= 2; },
                        seconds(120)));
  EXPECT_EQ(client.replies()[1], "ITEM kettle 3499 95");
}

TEST_F(StoreFailover, ReplicasStayByteIdentical) {
  build();
  apps::StoreClient client(r->client().tcp(), r->primary().address(), 8000);
  for (int i = 0; i < 10; ++i) {
    client.request("BUY filter-papers 3");
    client.request("LIST");
  }
  ASSERT_TRUE(run_until(r->sim(), [&] { return client.replies().size() >= 70; },
                        seconds(120)));
  EXPECT_EQ(store_p->orders_placed(), 10u);
  EXPECT_EQ(store_s->orders_placed(), 10u);
  EXPECT_EQ(store_p->requests_served(), store_s->requests_served());
  EXPECT_EQ(r->group->primary_bridge().divergences(), 0u);
}

// ------------------------------------------------------------------- ftp

struct FtpFailover : ::testing::Test {
  std::unique_ptr<test::Replicated> r;
  std::unique_ptr<apps::FtpServer> ftp_p, ftp_s;
  std::unique_ptr<apps::FtpClient> client;

  void build() {
    FailoverConfig cfg;
    cfg.ports = {21, 20};  // control and (server-initiated) data connections
    const Bytes big = apps::deterministic_payload(400 * 1024, 5);
    r = test::make_replicated({}, cfg, [&](apps::Host& h) {
      auto& s = ftp_p ? ftp_s : ftp_p;
      s = std::make_unique<apps::FtpServer>(h.tcp());
      s->add_file("small.txt", to_bytes("replicated file content"));
      s->add_file("big.bin", big);
    });
    client = std::make_unique<apps::FtpClient>(r->client().tcp(),
                                               r->primary().address());
  }

  bool login() {
    bool ok = false, done = false;
    client->login([&](bool r) {
      ok = r;
      done = true;
    });
    return run_until(r->sim(), [&] { return done; }, seconds(60)) && ok;
  }
};

TEST_F(FtpFailover, ReplicatedGetUsesServerInitiatedConnection) {
  build();
  ASSERT_TRUE(login());
  Bytes content;
  bool done = false;
  client->get("small.txt", [&](bool ok, Bytes b) {
    EXPECT_TRUE(ok);
    content = std::move(b);
    done = true;
  });
  ASSERT_TRUE(run_until(r->sim(), [&] { return done; }, seconds(120)));
  EXPECT_EQ(to_string(content), "replicated file content");
  // Both replicas ran the transfer; the bridge merged two data conns.
  EXPECT_EQ(ftp_p->transfers_completed(), 1u);
  EXPECT_EQ(ftp_s->transfers_completed(), 1u);
  // Control (client-initiated) + data (server-initiated) both bridged.
  EXPECT_GE(r->group->primary_bridge().merged_segments_sent(), 4u);
}

TEST_F(FtpFailover, GetSurvivesPrimaryCrashMidTransfer) {
  build();
  ASSERT_TRUE(login());
  Bytes content;
  bool done = false;
  client->get("big.bin", [&](bool ok, Bytes b) {
    EXPECT_TRUE(ok);
    content = std::move(b);
    done = true;
  });
  // Crash the primary partway through the data transfer.
  ASSERT_TRUE(run_until(r->sim(), [&] {
    return r->client().tcp().connection_count() >= 2;  // ctrl + data live
  }, seconds(60)));
  r->sim().run_for(milliseconds(30));
  r->group->crash_primary();
  ASSERT_TRUE(run_until(r->sim(), [&] { return done; }, seconds(300)));
  EXPECT_EQ(content, apps::deterministic_payload(400 * 1024, 5));
}

TEST_F(FtpFailover, PutSurvivesSecondaryCrashMidTransfer) {
  build();
  ASSERT_TRUE(login());
  const Bytes payload = apps::deterministic_payload(300 * 1024, 6);
  bool done = false, ok = false;
  client->put("upload.bin", payload, [&](bool r) {
    ok = r;
    done = true;
  });
  ASSERT_TRUE(run_until(r->sim(), [&] {
    return r->client().tcp().connection_count() >= 2;
  }, seconds(60)));
  r->sim().run_for(milliseconds(20));
  r->group->crash_secondary();
  ASSERT_TRUE(run_until(r->sim(), [&] { return done; }, seconds(300)));
  EXPECT_TRUE(ok);
  ASSERT_TRUE(ftp_p->files().contains("upload.bin"));
  EXPECT_EQ(ftp_p->files().at("upload.bin"), payload);
}

TEST_F(FtpFailover, SequentialTransfersAfterFailover) {
  build();
  ASSERT_TRUE(login());
  Bytes first;
  bool first_done = false;
  client->get("small.txt", [&](bool, Bytes b) {
    first = std::move(b);
    first_done = true;
  });
  ASSERT_TRUE(run_until(r->sim(), [&] { return first_done; }, seconds(120)));
  r->group->crash_primary();
  ASSERT_TRUE(run_until(r->sim(), [&] {
    return r->group->secondary_bridge().taken_over();
  }, seconds(10)));
  // New data connection after takeover: the survivor serves it alone.
  Bytes second;
  bool second_done = false;
  client->get("big.bin", [&](bool ok2, Bytes b) {
    EXPECT_TRUE(ok2);
    second = std::move(b);
    second_done = true;
  });
  ASSERT_TRUE(run_until(r->sim(), [&] { return second_done; }, seconds(300)));
  EXPECT_EQ(to_string(first), "replicated file content");
  EXPECT_EQ(second, apps::deterministic_payload(400 * 1024, 5));
}

// -------------------------------------------------------- multi-tier §7.2

TEST(MultiTier, ReplicatedServerConnectsToUnreplicatedBackend) {
  // The paper's §7.2 scenario: the replicated application is the TCP
  // *client* toward an unreplicated back-end T. Both replicas connect;
  // the bridge merges their SYNs and T sees a single client.
  FailoverConfig cfg;
  cfg.ports = {9100};  // the replicas connect *from* this local port
  auto r = test::make_replicated({.with_backend = true}, cfg, test::no_app);
  apps::EchoServer backend(r->topo->backend->tcp(), 5432);

  // Replicated "application": each replica sends a query to the backend
  // and stores the reply.
  Bytes reply_p, reply_s;
  auto run_replica = [&](apps::Host& h, Bytes& reply) {
    auto conn = h.tcp().connect(r->topo->backend->address(), 5432, {.nodelay = true}, 9100);
    // Raw captures: a connection's own callback holding its shared_ptr is
    // an ownership cycle (the callbacks are never cleared), which leaks
    // the connection. The local shared_ptr keeps it alive for the test.
    conn->on_established = [c = conn.get()] { c->send(to_bytes("SELECT 42")); };
    conn->on_readable = [c = conn.get(), &reply] { c->recv(reply); };
    return conn;
  };
  auto cp = run_replica(r->primary(), reply_p);
  auto cs = run_replica(r->secondary(), reply_s);
  ASSERT_TRUE(test::run_until(r->sim(), [&] {
    return reply_p.size() == 9 && reply_s.size() == 9;
  }, seconds(60)));
  EXPECT_EQ(to_string(reply_p), "SELECT 42");
  EXPECT_EQ(to_string(reply_s), "SELECT 42");
  // The backend saw exactly one client connection.
  EXPECT_EQ(backend.live_sessions(), 1u);
  EXPECT_EQ(backend.bytes_echoed(), 9u);
}

TEST(MultiTier, BackendSessionSurvivesPrimaryCrash) {
  FailoverConfig cfg;
  cfg.ports = {9100};
  auto r = test::make_replicated({.with_backend = true}, cfg, test::no_app);
  apps::EchoServer backend(r->topo->backend->tcp(), 5432);

  Bytes reply_p, reply_s;
  auto cp = r->primary().tcp().connect(r->topo->backend->address(), 5432,
                                        {.nodelay = true}, 9100);
  auto cs = r->secondary().tcp().connect(r->topo->backend->address(), 5432,
                                          {.nodelay = true}, 9100);
  // Raw captures: see ReplicatedServerConnectsToUnreplicatedBackend — a
  // shared_ptr self-capture cycle leaks the crashed primary's connection.
  cp->on_established = [c = cp.get()] { c->send(to_bytes("q1")); };
  cs->on_established = [c = cs.get()] { c->send(to_bytes("q1")); };
  cp->on_readable = [c = cp.get(), &reply_p] { c->recv(reply_p); };
  cs->on_readable = [c = cs.get(), &reply_s] { c->recv(reply_s); };
  ASSERT_TRUE(test::run_until(r->sim(), [&] {
    return reply_p.size() == 2 && reply_s.size() == 2;
  }, seconds(60)));

  r->group->crash_primary();
  ASSERT_TRUE(test::run_until(r->sim(), [&] {
    return r->group->secondary_bridge().taken_over();
  }, seconds(10)));
  // The surviving replica keeps the backend session.
  cs->send(to_bytes("q2-after-failover"));
  ASSERT_TRUE(test::run_until(r->sim(), [&] { return reply_s.size() == 19; },
                              seconds(120)));
  EXPECT_EQ(to_string(reply_s).substr(2), "q2-after-failover");
  EXPECT_EQ(backend.live_sessions(), 1u);
}

// -------------------------------------------------------------------- wan

TEST(WanFailover, TakeoverFlipsRouterArpAndClientContinues) {
  apps::TopologyParams tp{.seed = 12, .hops = 1};
  tp.wan_link.propagation = milliseconds(10);
  auto r = test::make_replicated(tp);
  test::EchoDriver d(r->client(), r->primary().address(), test::kEchoPort,
                     100 * 1024, 4096);
  ASSERT_TRUE(test::run_until(r->sim(), [&] {
    return d.received().size() > 30 * 1024;
  }, seconds(300)));
  r->group->crash_primary();
  ASSERT_TRUE(test::run_until(r->sim(), [&] { return d.done(); }, seconds(600)));
  EXPECT_TRUE(d.verify());
  // The router's LAN-side ARP entry for a_p now names the secondary.
  net::MacAddress m{};
  ASSERT_TRUE(r->topo->edge().arp(0).lookup(r->primary().address(), &m));
  EXPECT_EQ(m, r->secondary().nic().mac());
}

struct WanRun {
  SimTime crash_at = 0;
  SimTime takeover_at = 0;
  SimTime done_at = 0;
};

// Runs a WAN transfer, crashing the primary in the middle unless `crash`
// is false. The transfer must complete intact, with no reset.
WanRun run_wan_transfer(SimDuration router_update_latency, bool crash = true) {
  apps::TopologyParams tp{.seed = 12, .hops = 1};
  tp.router_arp.update_latency = router_update_latency;
  auto r = test::make_replicated(tp);
  test::EchoDriver d(r->client(), r->primary().address(), test::kEchoPort,
                     60 * 1024, 4096);
  EXPECT_TRUE(test::run_until(r->sim(), [&] {
    return d.received().size() > 20 * 1024;
  }, seconds(300)));
  WanRun run;
  run.crash_at = r->sim().now();
  if (crash) r->group->crash_primary();
  EXPECT_TRUE(test::run_until(r->sim(), [&] { return d.done(); }, seconds(600)));
  EXPECT_TRUE(d.verify());
  EXPECT_FALSE(d.close_reason().has_value());
  run.takeover_at = r->group->secondary_bridge().takeover_time();
  run.done_at = r->sim().now();
  return run;
}

// Completion times of the same transfer under the paper's §5 takeover,
// which resumed and waited for the client to retransmit, recorded before
// the takeover kick (DESIGN.md §5, decision 7) replaced it. Router ARP
// update latency 0, 100 ms and 1 s; the crash instant is the same in all.
constexpr SimTime kPaperCompletionT0 = 924'238'560;
constexpr SimTime kPaperCompletionT100ms = 924'238'560;  // T hidden by the RTO
constexpr SimTime kPaperCompletionT1s = 2'324'231'840;

TEST(WanFailover, SlowRouterArpUpdateStretchesOutage) {
  // §5's interval T: client→server segments forwarded before the router
  // updates its ARP table are lost and must be retransmitted, so T adds
  // to the outage. The kick's ACK can restart the client's RTO before the
  // router points at S; that costs at most one detection interval over
  // the paper's takeover, which waited for the client's RTO anyway.
  const WanRun t0 = run_wan_transfer(0);
  const WanRun t100ms = run_wan_transfer(milliseconds(100));
  const WanRun t1s = run_wan_transfer(seconds(1));
  EXPECT_EQ(t100ms.crash_at, t0.crash_at);
  EXPECT_EQ(t1s.crash_at, t0.crash_at);
  EXPECT_GT(t1s.done_at, t0.done_at + static_cast<SimTime>(milliseconds(500)));
  EXPECT_LT(t1s.done_at, t0.done_at + static_cast<SimTime>(seconds(10)));
  const auto detection_interval = static_cast<SimTime>(FailoverConfig{}.failure_timeout);
  EXPECT_LE(t0.done_at, kPaperCompletionT0);
  EXPECT_LE(t100ms.done_at, kPaperCompletionT100ms + detection_interval);
  EXPECT_LE(t1s.done_at, kPaperCompletionT1s + detection_interval);
}

TEST(WanFailover, KickHidesRetransmissionCycleAtZeroArpLatency) {
  // With the takeover kick and an instant router ARP update, the crash
  // delays completion by the detection time plus a few WAN round trips,
  // not by a client retransmission timeout.
  const WanRun clean = run_wan_transfer(0, /*crash=*/false);
  const WanRun kicked = run_wan_transfer(0);
  ASSERT_GT(kicked.takeover_at, kicked.crash_at);
  const SimDuration detection =
      static_cast<SimDuration>(kicked.takeover_at - kicked.crash_at);
  EXPECT_LE(kicked.done_at - clean.done_at,
            static_cast<SimTime>(detection + milliseconds(50)));
  EXPECT_LT(kicked.done_at, kPaperCompletionT0);
}

}  // namespace
}  // namespace tfo::core
