// The takeover kick (DESIGN.md §5, decision 7): as the secondary resumes
// transmission under the taken-over address, every surviving connection
// resends its unacknowledged data — or its SYN|ACK, its FIN, or a pure ACK
// — so the client resumes at detection time instead of at its next RTO.
#include <gtest/gtest.h>

#include "core/replica_chain.hpp"
#include "failover_fixture.hpp"
#include "test_util.hpp"

namespace tfo::core {
namespace {

using test::kEchoPort;
using test::run_until;

/// A client connection that collects what it receives.
struct ClientConn {
  std::shared_ptr<tcp::Connection> conn;
  Bytes rx;
  bool peer_fin = false;

  ClientConn(apps::Host& client, ip::Ipv4 server, std::uint16_t port)
      : conn(client.tcp().connect(server, port, {.nodelay = true})) {
    conn->on_readable = [this] { conn->recv(rx); };
    conn->on_peer_fin = [this] { peer_fin = true; };
  }
  ~ClientConn() {
    conn->on_readable = nullptr;
    conn->on_peer_fin = nullptr;
  }
  bool established() const { return conn->state() == tcp::TcpState::kEstablished; }
};

/// Opens an echo connection, completes one round trip and lets the
/// connection go idle.
std::unique_ptr<ClientConn> warm_echo(test::Replicated& r) {
  auto c = std::make_unique<ClientConn>(r.client(), r.primary().address(), kEchoPort);
  EXPECT_TRUE(run_until(r.sim(), [&] { return c->established(); }));
  c->conn->send(to_bytes("warm"));
  EXPECT_TRUE(run_until(r.sim(), [&] { return c->rx.size() == 4; }));
  r.sim().run_for(milliseconds(100));
  return c;
}

SimDuration detection(test::Replicated& r, SimTime crash_at) {
  return static_cast<SimDuration>(r.group->secondary_bridge().takeover_time() - crash_at);
}

/// Crashes the primary, sends a probe at the crash instant and returns the
/// time until its echo reached the client.
SimDuration probe_echo_after_crash(test::Replicated& r, ClientConn& c) {
  const SimTime crash_at = r.sim().now();
  r.group->crash_primary();
  c.conn->send(to_bytes("probe"));
  EXPECT_TRUE(run_until(r.sim(), [&] { return c.rx.size() == 9; }, seconds(10)));
  EXPECT_EQ(to_string(c.rx), "warmprobe");
  return static_cast<SimDuration>(r.sim().now() - crash_at);
}

TEST(TakeoverKick, BlackoutProbeEchoedWithinDetection) {
  auto r = test::make_replicated();
  auto c = warm_echo(*r);
  const SimTime crash_at = r->sim().now();
  const SimDuration echoed = probe_echo_after_crash(*r, *c);
  ASSERT_TRUE(r->group->secondary_bridge().taken_over());
  EXPECT_LE(echoed, detection(*r, crash_at) + milliseconds(5));
  EXPECT_EQ(r->secondary().obs().registry.counter_value("secondary.connections_kicked"),
            1u);
}

TEST(TakeoverKick, BlackoutSynEstablishesAtTakeover) {
  // The client's SYN reaches the secondary by snooping; its SYN|ACK goes
  // to the dead primary. The kick resends the SYN|ACK at takeover instead
  // of leaving the handshake to an initial_rto retransmission.
  auto r = test::make_replicated();
  r->sim().run_for(milliseconds(100));
  const SimTime crash_at = r->sim().now();
  r->group->crash_primary();
  ClientConn c(r->client(), r->primary().address(), kEchoPort);
  ASSERT_TRUE(run_until(r->sim(), [&] { return c.established(); }, seconds(10)));
  const SimTime takeover_at = r->group->secondary_bridge().takeover_time();
  ASSERT_GT(takeover_at, crash_at);
  EXPECT_LE(r->sim().now(), takeover_at + static_cast<SimTime>(milliseconds(5)));
  EXPECT_LT(r->sim().now() - crash_at,
            static_cast<SimTime>(r->client().tcp().params().initial_rto));
  c.conn->send(to_bytes("after"));
  ASSERT_TRUE(run_until(r->sim(), [&] { return c.rx.size() == 5; }));
  EXPECT_EQ(to_string(c.rx), "after");
}

TEST(TakeoverKick, NothingOutstandingSendsPureAck) {
  // A sink never replies: the secondary's only answer to blackout data is
  // an ACK, lost with the primary. With nothing of its own outstanding at
  // takeover, the kick sends a pure ACK, which clears the client's flight.
  constexpr std::uint16_t kPort = 7200;
  FailoverConfig cfg;
  cfg.ports = {kPort};
  auto r = test::make_replicated({}, cfg, test::no_app);
  apps::SinkServer sp(r->primary().tcp(), kPort);
  apps::SinkServer ss(r->secondary().tcp(), kPort);
  ClientConn c(r->client(), r->primary().address(), kPort);
  ASSERT_TRUE(run_until(r->sim(), [&] { return c.established(); }));
  r->sim().run_for(milliseconds(100));

  const SimTime crash_at = r->sim().now();
  r->group->crash_primary();
  c.conn->send(to_bytes("unanswered"));
  ASSERT_TRUE(run_until(r->sim(), [&] { return ss.bytes_received() == 10; }));
  ASSERT_TRUE(run_until(r->sim(), [&] {
    return c.conn->info().bytes_in_flight == 0;
  }, seconds(10)));
  EXPECT_LE(r->sim().now() - crash_at,
            static_cast<SimTime>(detection(*r, crash_at) + milliseconds(5)));
  EXPECT_EQ(c.conn->info().timeouts, 0u);
}

/// Closes its side as soon as any byte arrives: the server's FIN then
/// leaves in FIN_WAIT_1.
class CloseOnDataServer {
 public:
  CloseOnDataServer(tcp::TcpLayer& tcp, std::uint16_t port) {
    tcp.listen(port, [this](std::shared_ptr<tcp::Connection> conn) {
      tcp::Connection* raw = conn.get();
      raw->on_readable = [raw] {
        Bytes data;
        raw->recv(data);
        raw->close();
      };
      sessions_.push_back(std::move(conn));
    });
  }

 private:
  std::vector<std::shared_ptr<tcp::Connection>> sessions_;
};

TEST(TakeoverKick, FinLostInFinWait1IsResent) {
  constexpr std::uint16_t kPort = 7100;
  FailoverConfig cfg;
  cfg.ports = {kPort};
  auto r = test::make_replicated({}, cfg, test::no_app);
  CloseOnDataServer sp(r->primary().tcp(), kPort);
  CloseOnDataServer ss(r->secondary().tcp(), kPort);
  ClientConn c(r->client(), r->primary().address(), kPort);
  ASSERT_TRUE(run_until(r->sim(), [&] { return c.established(); }));
  r->sim().run_for(milliseconds(100));

  const SimTime crash_at = r->sim().now();
  r->group->crash_primary();
  c.conn->send(to_bytes("bye"));
  // The secondary's FIN went to the dead primary before the takeover.
  const tcp::ConnKey sk{r->secondary().address(), kPort, r->client().address(),
                        c.conn->key().local_port};
  ASSERT_TRUE(run_until(r->sim(), [&] {
    auto sc = r->secondary().tcp().find(sk);
    return sc && sc->state() == tcp::TcpState::kFinWait1;
  }));
  ASSERT_TRUE(run_until(r->sim(), [&] { return c.peer_fin; }, seconds(10)));
  EXPECT_LE(r->sim().now() - crash_at,
            static_cast<SimTime>(detection(*r, crash_at) + milliseconds(5)));
}

TEST(TakeoverKick, FinLostInLastAckIsResent) {
  // The client closes at the crash instant; the secondary's echo server
  // closes in turn, and its FIN goes to the dead primary from LAST_ACK.
  auto r = test::make_replicated();
  auto c = warm_echo(*r);
  const SimTime crash_at = r->sim().now();
  r->group->crash_primary();
  c->conn->close();
  const tcp::ConnKey sk{r->secondary().address(), kEchoPort, r->client().address(),
                        c->conn->key().local_port};
  ASSERT_TRUE(run_until(r->sim(), [&] {
    auto sc = r->secondary().tcp().find(sk);
    return sc && sc->state() == tcp::TcpState::kLastAck;
  }));
  ASSERT_TRUE(run_until(r->sim(), [&] { return c->peer_fin; }, seconds(10)));
  EXPECT_LE(r->sim().now() - crash_at,
            static_cast<SimTime>(detection(*r, crash_at) + milliseconds(5)));
}

TEST(TakeoverKick, ResendStartsFromRestartWindow) {
  // A bulk reply has a full window in flight to the dead primary when the
  // secondary takes over. The kick resends only the restart window,
  // min(cwnd, IW), onto the new path; the client's ACKs clock out the rest.
  constexpr std::uint16_t kPort = 7300;
  constexpr std::size_t kBytes = 400'000;
  FailoverConfig cfg;
  cfg.ports = {kPort};
  auto r = test::make_replicated({}, cfg, test::no_app);
  apps::BlastServer bp(r->primary().tcp(), kPort);
  apps::BlastServer bs(r->secondary().tcp(), kPort);
  ClientConn c(r->client(), r->primary().address(), kPort);
  ASSERT_TRUE(run_until(r->sim(), [&] { return c.established(); }));
  c.conn->send(to_bytes("GET 400000 7\n"));
  ASSERT_TRUE(run_until(r->sim(), [&] { return c.rx.size() > 100'000; }));
  const tcp::ConnKey sk{r->secondary().address(), kPort, r->client().address(),
                        c.conn->key().local_port};
  auto sc = r->secondary().tcp().find(sk);
  ASSERT_NE(sc, nullptr);
  const std::uint32_t restart_window =
      r->secondary().tcp().params().initial_cwnd_segments * sc->effective_mss();
  ASSERT_GT(sc->info().cwnd, restart_window);

  r->group->crash_primary();
  const obs::Registry& reg = r->secondary().obs().registry;
  ASSERT_TRUE(run_until(r->sim(), [&] {
    return reg.counter_value("secondary.connections_kicked") == 1;
  }, seconds(10)));
  EXPECT_EQ(sc->info().cwnd, restart_window);
  EXPECT_GT(sc->info().bytes_in_flight, 0u);
  EXPECT_LE(sc->info().bytes_in_flight, restart_window);
  ASSERT_TRUE(run_until(r->sim(), [&] { return c.rx.size() == kBytes; }, seconds(10)));
  EXPECT_EQ(c.rx, apps::deterministic_payload(kBytes, 7));
  EXPECT_EQ(sc->info().timeouts, 0u);
}

TEST(TakeoverKick, KickLeavesSrttUnchanged) {
  // The probe's echo is first sent (and timed) during the blackout and
  // lost with the primary; the kick resends it. Karn: the client's ACK of
  // the resend must not yield an RTT sample — it would be ~detection long.
  auto r = test::make_replicated();
  auto c = warm_echo(*r);
  const tcp::ConnKey key{r->primary().address(), kEchoPort, r->client().address(),
                         c->conn->key().local_port};
  const tcp::ConnKey sk{r->secondary().address(), key.local_port, key.remote_ip,
                        key.remote_port};
  const SimDuration srtt_before = r->secondary().tcp().find(sk)->info().srtt;
  ASSERT_GT(srtt_before, 0);

  r->group->crash_primary();
  c->conn->send(to_bytes("probe"));
  ASSERT_TRUE(run_until(r->sim(), [&] { return c->rx.size() == 9; }, seconds(10)));
  auto sc = r->secondary().tcp().find(key);
  ASSERT_NE(sc, nullptr);
  ASSERT_TRUE(run_until(r->sim(), [&] { return sc->info().bytes_in_flight == 0; }));
  EXPECT_EQ(sc->info().srtt, srtt_before);
  EXPECT_EQ(sc->info().timeouts, 0u);
}

TEST(TakeoverKick, ChainHeadCrashResumesThroughKick) {
  auto lan = apps::make_topology({});
  apps::HostParams hp;
  hp.name = "backup2";
  hp.addr = ip::Ipv4::parse("10.0.0.22");
  hp.seed = 102;
  apps::Host tail(lan->sim, hp, *lan->wire);
  std::vector<apps::Host*> servers = {lan->primary.get(), lan->secondary.get(), &tail};
  std::vector<apps::Host*> all = servers;
  all.push_back(lan->client.get());
  for (auto* a : all) {
    for (auto* b : all) {
      if (a != b) a->arp().add_static(b->address(), b->nic().mac());
    }
  }
  FailoverConfig cfg;
  cfg.ports = {kEchoPort};
  ReplicaChain chain(servers, cfg);
  std::vector<std::unique_ptr<apps::EchoServer>> echoes;
  for (auto* s : servers) {
    echoes.push_back(std::make_unique<apps::EchoServer>(s->tcp(), kEchoPort));
  }
  chain.start();

  ClientConn c(*lan->client, servers[0]->address(), kEchoPort);
  ASSERT_TRUE(run_until(lan->sim, [&] { return c.established(); }));
  c.conn->send(to_bytes("warm"));
  ASSERT_TRUE(run_until(lan->sim, [&] { return c.rx.size() == 4; }));
  lan->sim.run_for(milliseconds(100));

  const SimTime crash_at = lan->sim.now();
  chain.crash(0);
  c.conn->send(to_bytes("probe"));
  ASSERT_TRUE(run_until(lan->sim, [&] { return c.rx.size() == 9; }, seconds(10)));
  EXPECT_EQ(to_string(c.rx), "warmprobe");
  ASSERT_EQ(chain.head(), lan->secondary.get());
  const SimTime takeover_at = chain.divert_bridge(1)->takeover_time();
  ASSERT_GT(takeover_at, crash_at);
  EXPECT_LE(lan->sim.now(), takeover_at + static_cast<SimTime>(milliseconds(5)));
  EXPECT_EQ(
      lan->secondary->obs().registry.counter_value("secondary.connections_kicked"), 1u);
}

// ------------------------------------------------------------ MAC gleaning
//
// The secondary learns each on-link client's MAC from the client's snooped
// handshake ACK, so at a takeover its kicks need no ARP exchange.

/// True for an ARP request from `mac` that asks for an address other than
/// its own (a gratuitous announcement names the same address twice).
bool is_arp_query_from(const net::EthernetFrame& f, net::MacAddress mac) {
  if (f.type != net::EtherType::kArp || f.src != mac || f.payload.size() < 28) return false;
  const BytesView p = f.payload.view();
  return get_u16(p, 6) == 1 && get_u32(p, 14) != get_u32(p, 24);
}

TEST(Gleaning, OnLinkClientMacIsKnownAtTheVerdict) {
  auto r = test::make_replicated();
  // Like bench_e2e's extra client hosts: static ARP for P and S only, so
  // neither server knows this client's MAC from configuration.
  apps::HostParams hp;
  hp.name = "client2";
  hp.addr = ip::Ipv4::parse("10.0.0.50");
  hp.seed = 150;
  r->extra_hosts.push_back(std::make_unique<apps::Host>(r->sim(), hp, *r->topo->wire));
  apps::Host& x = *r->extra_hosts.back();
  x.arp().add_static(r->primary().address(), r->primary().nic().mac());
  x.arp().add_static(r->secondary().address(), r->secondary().nic().mac());
  ASSERT_FALSE(r->secondary().arp().lookup(x.address(), nullptr));

  int s_arp_queries = 0;
  x.nic().add_observer([&](const net::EthernetFrame& f, bool) {
    if (is_arp_query_from(f, r->secondary().nic().mac())) ++s_arp_queries;
  });
  ClientConn c(x, r->primary().address(), kEchoPort);
  ASSERT_TRUE(run_until(r->sim(), [&] { return c.established(); }));
  c.conn->send(to_bytes("warm"));
  ASSERT_TRUE(run_until(r->sim(), [&] { return c.rx.size() == 4; }));
  r->sim().run_for(milliseconds(100));
  net::MacAddress gleaned;
  ASSERT_TRUE(r->secondary().arp().lookup(x.address(), &gleaned));
  EXPECT_EQ(gleaned, x.nic().mac());

  const SimTime crash_at = r->sim().now();
  r->group->crash_primary();
  c.conn->send(to_bytes("probe"));
  ASSERT_TRUE(run_until(r->sim(), [&] { return c.rx.size() == 9; }, seconds(10)));
  EXPECT_EQ(to_string(c.rx), "warmprobe");
  EXPECT_LE(static_cast<SimDuration>(r->sim().now() - crash_at),
            detection(*r, crash_at) + milliseconds(5));
  EXPECT_EQ(s_arp_queries, 0);
}

TEST(Gleaning, RoutedClientAddsNoArpEntry) {
  // Across a router the snooped frame carries the router's MAC, not the
  // client's: nothing may be learned for the client's address.
  auto r = test::make_replicated({.seed = 12, .hops = 1});
  const std::size_t entries_before = r->secondary().arp().cache_size();
  auto c = warm_echo(*r);
  EXPECT_GT(r->group->secondary_bridge().datagrams_translated(), 0u);
  EXPECT_FALSE(r->secondary().arp().lookup(r->client().address(), nullptr));
  EXPECT_EQ(r->secondary().arp().cache_size(), entries_before);
}

TEST(Gleaning, SpoofedHandshakeAckAddsAndChangesNoEntry) {
  auto r = test::make_replicated();
  apps::Host& attacker = r->add_host("attacker", "10.0.0.30", 130);
  // A client address no host owns: the replicas' SYN|ACK goes unanswered,
  // so the secondary's replica stays in SYN_RCVD.
  const ip::Ipv4 fake = ip::Ipv4::parse("10.0.0.77");
  const ip::Ipv4 p_addr = r->primary().address();
  constexpr std::uint16_t kPort = 4000;
  constexpr std::uint32_t kIsn = 424242;
  auto send_from_fake = [&](std::uint8_t flags, std::uint32_t seq) {
    tcp::TcpSegment seg;
    seg.src_port = kPort;
    seg.dst_port = kEchoPort;
    seg.seq = seq;
    seg.flags = flags;
    seg.window = 65535;
    attacker.ip().send(ip::Proto::kTcp, fake, p_addr, seg.take_wire(fake, p_addr));
    r->sim().run_for(milliseconds(2));
  };
  send_from_fake(tcp::Flags::kSyn, kIsn);
  const tcp::ConnKey sk{r->secondary().address(), kEchoPort, fake, kPort};
  auto replica = r->secondary().tcp().find(sk);
  ASSERT_NE(replica, nullptr);
  ASSERT_EQ(replica->state(), tcp::TcpState::kSynRcvd);

  auto& reg = r->secondary().obs().registry;
  const std::uint64_t spoofed_before = reg.counter_value("bridge.spoof_dropped");
  const std::size_t entries_before = r->secondary().arp().cache_size();
  // Far outside the replica's window: the off-path check drops it before
  // anything is learned from it.
  send_from_fake(tcp::Flags::kAck, kIsn + 1 + (1u << 20));
  EXPECT_EQ(reg.counter_value("bridge.spoof_dropped"), spoofed_before + 1);
  EXPECT_FALSE(r->secondary().arp().lookup(fake, nullptr));
  EXPECT_EQ(r->secondary().arp().cache_size(), entries_before);

  const net::MacAddress owner = net::MacAddress::from_id(999);
  r->secondary().arp().add_static(fake, owner);
  send_from_fake(tcp::Flags::kAck, kIsn + 1 + (1u << 20));
  net::MacAddress held;
  ASSERT_TRUE(r->secondary().arp().lookup(fake, &held));
  EXPECT_EQ(held, owner);

  // The same ACK at the replica's RCV.NXT passes the check and is gleaned.
  send_from_fake(tcp::Flags::kAck, kIsn + 1);
  ASSERT_TRUE(r->secondary().arp().lookup(fake, &held));
  EXPECT_EQ(held, attacker.nic().mac());
}

}  // namespace
}  // namespace tfo::core
