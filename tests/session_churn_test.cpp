// Regression tests for session-key ABA under connection churn.
//
// The application servers keep per-connection session state in maps that
// were historically keyed by the Connection's address. Under churn the
// allocator hands a new connection the memory of a dead one, so a
// pointer key lets the new connection inherit the dead session's state —
// or lets the dead connection's deferred on_closed erase the *new*
// session. The maps are now keyed by Connection::id(), a monotonic
// counter that is never reused. These tests hammer connect/use/close
// cycles and assert (a) every cycle sees fresh per-connection state and
// (b) the session tables drain to empty.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <vector>

#include "apps/attacker.hpp"
#include "apps/echo.hpp"
#include "apps/http.hpp"
#include "apps/loadgen.hpp"
#include "apps/store.hpp"
#include "apps/topology.hpp"
#include "failover_fixture.hpp"
#include "test_util.hpp"

namespace tfo::apps {
namespace {

using test::run_until;

struct ChurnFixture : ::testing::Test {
  std::unique_ptr<Topology> lan = make_topology();
  sim::Simulator& sim() { return lan->sim; }
};

TEST_F(ChurnFixture, StoreStateIsFreshAcrossChurn) {
  StoreServer server(lan->primary->tcp(), 8000);
  // Each cycle exhausts an item's per-connection stock and quits. If a
  // later connection ever inherited an earlier session (ABA), its BUY
  // would see the drained stock and answer NOSTOCK.
  for (int cycle = 0; cycle < 24; ++cycle) {
    auto client = std::make_unique<StoreClient>(
        lan->client->tcp(), lan->primary->address(), 8000);
    client->request("BROWSE scale");
    client->request("BUY scale 7");
    client->request("BROWSE scale");
    ASSERT_TRUE(run_until(sim(), [&] { return client->replies().size() >= 3; }))
        << "cycle " << cycle;
    const auto& r = client->replies();
    EXPECT_EQ(r[0], "ITEM scale 2199 7") << "stale session state, cycle " << cycle;
    EXPECT_EQ(r[1].rfind("OK 1 ", 0), 0u) << "stale order counter, cycle " << cycle;
    EXPECT_EQ(r[2], "ITEM scale 2199 0") << "cycle " << cycle;
    client->quit();
    ASSERT_TRUE(run_until(sim(), [&] { return client->closed(); }));
    client.reset();
    // Let teardown (deferred closes, TIME_WAIT turnover) fully settle so
    // the next cycle races against recycled allocations, not live state.
    sim().run_for(milliseconds(1));
  }
}

TEST_F(ChurnFixture, EchoSessionsDrainUnderOverlappingChurn) {
  EchoServer server(lan->primary->tcp(), 7000);
  // Overlapping churn: batches of connections that close out of order,
  // so deferred on_closed callbacks interleave with fresh accepts.
  for (int round = 0; round < 8; ++round) {
    std::vector<std::shared_ptr<tcp::Connection>> conns;
    for (int i = 0; i < 6; ++i) {
      auto c = lan->client->tcp().connect(lan->primary->address(), 7000, {});
      c->on_established = [raw = c.get()] { raw->send(to_bytes("ping")); };
      conns.push_back(std::move(c));
    }
    ASSERT_TRUE(run_until(sim(), [&] { return server.live_sessions() >= 6; }))
        << "round " << round;
    // Close even-indexed first, then odd, so erase order differs from
    // accept order.
    for (std::size_t i = 0; i < conns.size(); i += 2) conns[i]->close();
    sim().run_for(milliseconds(5));
    for (std::size_t i = 1; i < conns.size(); i += 2) conns[i]->close();
    ASSERT_TRUE(run_until(sim(), [&] { return server.live_sessions() == 0; }))
        << "round " << round << " leaked sessions: " << server.live_sessions();
  }
  EXPECT_GT(server.bytes_echoed(), 0u);
}

TEST_F(ChurnFixture, ConnectionIdsAreNeverReused) {
  // The key property the session maps rely on: ids are unique for the
  // lifetime of the TcpLayer even as Connection objects are recycled.
  std::set<std::uint64_t> seen;
  EchoServer server(lan->primary->tcp(), 7000);
  for (int cycle = 0; cycle < 16; ++cycle) {
    auto c = lan->client->tcp().connect(lan->primary->address(), 7000, {});
    ASSERT_TRUE(run_until(sim(), [&] {
      return c->state() == tcp::TcpState::kEstablished;
    }));
    EXPECT_TRUE(seen.insert(c->id()).second) << "duplicate id " << c->id();
    c->close();
    ASSERT_TRUE(run_until(sim(), [&] { return server.live_sessions() == 0; }));
    c.reset();
    sim().run_for(milliseconds(1));
  }
  EXPECT_EQ(seen.size(), 16u);
}

// Failover landing mid-handshake: the primary accepts the SYN (embryonic
// connection created, session not yet established) and dies before the
// handshake completes. The secondary — which accepted the same SYN
// through its promiscuous tap — takes over, finishes the handshake via
// SYN-ACK retransmission, and serves the connection's first request.
TEST(SessionChurnFailover, HandshakeStartedOnPrimaryServedBySecondary) {
  auto r = test::make_replicated({}, {.ports = {8080}}, test::no_app);
  HttpServer web_p(r->primary().tcp(), 8080);
  HttpServer web_s(r->secondary().tcp(), 8080);
  for (HttpServer* w : {&web_p, &web_s}) {
    w->add_document("/", to_bytes("<html>churn</html>"));
  }
  r->sim().run_for(milliseconds(100));  // detectors settle

  auto conn = r->client().tcp().connect(r->primary().address(), 8080,
                                        {.nodelay = true});
  // Stop the instant the primary holds the embryonic connection — before
  // any SYN-ACK can reach the client — and kill it right there.
  const tcp::ConnKey pk{r->primary().address(), 8080, r->client().address(),
                        conn->key().local_port};
  ASSERT_TRUE(run_until(r->sim(), [&] {
    return r->primary().tcp().find(pk) != nullptr;
  }));
  ASSERT_NE(conn->state(), tcp::TcpState::kEstablished);
  r->group->crash_primary();

  std::string rx;
  conn->on_established = [c = conn.get()] {
    c->send(to_bytes("GET / HTTP/1.0\r\n\r\n"));
  };
  conn->on_readable = [&, c = conn.get()] {
    Bytes got;
    c->recv(got);
    rx += to_string(got);
  };
  ASSERT_TRUE(run_until(r->sim(), [&] {
    return rx.find("</html>") != std::string::npos;
  }, seconds(30)));
  EXPECT_EQ(rx.rfind("HTTP/1.0 200 OK", 0), 0u);
  // The primary never served it; the secondary did.
  EXPECT_EQ(web_p.requests_served(), 0u);
  EXPECT_EQ(web_s.requests_served(), 1u);
}

// Quiescence oracle for the primary bridge's tables: once churn through a
// replicated pair stops and every tombstone has had its 4*MSL, both the
// connection and tombstone tables are back to empty, every tombstone that
// was created has expired, and they expired in the order they were made.
TEST(SessionChurnFailover, BridgeTablesDrainAfterChurn) {
  auto r = test::make_replicated({}, {.ports = {8080}}, test::no_app);
  HttpServer web_p(r->primary().tcp(), 8080);
  HttpServer web_s(r->secondary().tcp(), 8080);
  for (HttpServer* w : {&web_p, &web_s}) {
    w->add_document("/", to_bytes("<html>quiesce</html>"));
  }
  LoadGenConfig cfg;
  cfg.server = r->primary().address();
  cfg.port = 8080;
  cfg.conns_per_sec = 2000.0;
  cfg.duration = milliseconds(100);
  cfg.requests_per_conn = 2;
  cfg.seed = 11;
  LoadGen gen(r->sim(), {&r->client().tcp()}, cfg);
  gen.start();
  ASSERT_TRUE(run_until(r->sim(), [&] { return gen.done(); }, seconds(60)));
  ASSERT_GT(gen.conns_completed(), 100u);
  EXPECT_EQ(gen.conns_failed(), 0u);

  core::PrimaryBridge& bridge = r->group->primary_bridge();
  ASSERT_TRUE(run_until(r->sim(), [&] { return bridge.connection_count() == 0; },
                        seconds(10)));
  r->sim().run_for(4 * r->primary().tcp().params().msl);

  EXPECT_EQ(bridge.tombstone_count(), 0u);
  EXPECT_EQ(bridge.connection_count(), 0u);
  const auto& timeline = r->primary().obs().timeline;
  ASSERT_EQ(timeline.dropped(), 0u) << "timeline too small for the oracle";
  const auto created = timeline.filter(obs::EventKind::kTombstoneCreated);
  const auto expired = timeline.filter(obs::EventKind::kTombstoneExpired);
  ASSERT_EQ(created.size(), gen.conns_completed());
  ASSERT_EQ(expired.size(), created.size());
  for (std::size_t i = 0; i < created.size(); ++i) {
    EXPECT_EQ(expired[i].conn, created[i].conn) << "expiry " << i << " out of order";
  }
}

// High-rate churn with a blind-RST attacker on the wire. A blind reset
// sweep against a port serving 10k conn/s must not kill a single
// established connection (every exact-RCV.NXT hit it could score is a
// 1-in-2^32 event per guess), and the handshake path — embryonic
// connections included — must not slow down: setup p99 under attack
// stays within tolerance of the unattacked baseline.

struct ChurnRun {
  std::uint64_t started = 0;
  std::uint64_t established = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t injected = 0;
  SimDuration setup_p99 = 0;
};

ChurnRun run_churn(bool attacked, std::uint64_t seed) {
  auto lan = make_topology();
  HttpServer web(lan->primary->tcp(), 8080);
  web.add_document("/", to_bytes("<html>churn-under-fire</html>"));

  LoadGenConfig cfg;
  cfg.server = lan->primary->address();
  cfg.port = 8080;
  cfg.conns_per_sec = 10000.0;
  cfg.duration = milliseconds(500);
  cfg.seed = seed;
  LoadGen gen(lan->sim, {&lan->client->tcp()}, cfg);

  std::unique_ptr<Attacker> attacker;
  if (attacked) {
    AttackerConfig ac;
    ac.victim = lan->primary->address();
    ac.spoof_src = lan->client->address();
    ac.victim_port = 8080;
    // Cover the generator's whole deterministic ephemeral-port range so
    // most guesses name a 4-tuple that exists or existed.
    ac.port_lo = 49152;
    ac.port_hi = 49152 + 5500;
    ac.kinds = {AttackKind::kBlindRst};
    ac.rate = 20000.0;
    ac.duration = seconds(600);
    ac.seed = seed ^ 0x5e7;
    attacker = std::make_unique<Attacker>(*lan->secondary, ac);
    attacker->start();
  }

  gen.start();
  EXPECT_TRUE(test::run_until(lan->sim, [&] { return gen.done(); }, seconds(120)));

  ChurnRun r;
  r.started = gen.conns_started();
  r.established = gen.conns_established();
  r.completed = gen.conns_completed();
  r.failed = gen.conns_failed();
  r.injected = attacker ? attacker->injected() : 0;
  auto lat = gen.setup_latencies();
  if (!lat.empty()) {
    std::sort(lat.begin(), lat.end());
    r.setup_p99 = lat[std::min(lat.size() - 1, lat.size() * 99 / 100)];
  }
  return r;
}

TEST(ChurnUnderAttack, BlindRstSweepLosesNoConnectionsAndKeepsSetupLatency) {
  const ChurnRun base = run_churn(/*attacked=*/false, 7001);
  const ChurnRun atk = run_churn(/*attacked=*/true, 7001);

  ASSERT_GT(base.started, 4000u);
  EXPECT_EQ(base.failed, 0u);
  EXPECT_EQ(base.completed, base.established);

  // The attacker really swept — thousands of spoofed RSTs hit the wire —
  // and not one established connection died: every launched connection
  // finished its request cycle.
  EXPECT_GT(atk.injected, 5000u);
  EXPECT_EQ(atk.failed, 0u) << "blind RSTs killed connections";
  EXPECT_EQ(atk.completed, atk.established);
  EXPECT_EQ(atk.established, atk.started);

  // Setup latency is undisturbed within tolerance: the spoofed segments
  // are dropped or challenged off the fast path, not serialized into
  // handshake-blocking work. Tolerance covers added wire occupancy.
  EXPECT_LT(atk.setup_p99, 2 * base.setup_p99 + milliseconds(2))
      << "attacked p99 " << atk.setup_p99 << "ns vs baseline " << base.setup_p99
      << "ns";
}

}  // namespace
}  // namespace tfo::apps
