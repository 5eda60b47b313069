// TCP loss-recovery machinery: RTO with exponential backoff and reset,
// Tahoe-style go-back-N refill, fast retransmit, persist probing, and
// retransmission-limit abort.
#include <gtest/gtest.h>

#include "apps/echo.hpp"
#include "apps/topology.hpp"
#include "apps/trace.hpp"
#include "ip/datagram.hpp"
#include "test_util.hpp"

namespace tfo::tcp {
namespace {

using apps::Topology;
using apps::TopologyParams;
using apps::make_topology;
using test::run_until;

struct RetxFixture : ::testing::Test {
  std::unique_ptr<Topology> lan;
  std::shared_ptr<Connection> server, client;

  void build(TopologyParams p = {}) {
    lan = make_topology(p);
    lan->primary->tcp().listen(80, [this](std::shared_ptr<Connection> c) {
      server = std::move(c);
    });
    client = lan->client->tcp().connect(lan->primary->address(), 80, {.nodelay = true});
    ASSERT_TRUE(run_until(lan->sim, [&] {
      return server && client->state() == TcpState::kEstablished;
    }));
  }

  /// Drops the next `count` TCP frames with payload from `src_ip`
  /// delivered to `nic_name`.
  void drop_next_data(ip::Ipv4 src_ip, const std::string& nic_name, int count) {
    auto remaining = std::make_shared<int>(count);
    lan->wire->set_loss_fn([=](const net::Nic&, const net::Nic& rx,
                               const net::EthernetFrame& f) {
      if (*remaining <= 0 || rx.name() != nic_name) return false;
      auto d = ip::IpDatagram::parse(f.payload);
      if (!d || d->proto != ip::Proto::kTcp || d->src != src_ip) return false;
      const std::size_t hdr = static_cast<std::size_t>(d->payload[12] >> 4) * 4;
      if (d->payload.size() <= hdr) return false;  // no payload
      --*remaining;
      return true;
    });
  }
};

TEST_F(RetxFixture, RtoRecoversSingleLoss) {
  build();
  drop_next_data(lan->client->address(), "primary.eth0", 1);
  Bytes got;
  server->on_readable = [&] { server->recv(got); };
  client->send(to_bytes("lost-then-found"));
  ASSERT_TRUE(run_until(lan->sim, [&] { return got.size() == 15; }, seconds(30)));
  EXPECT_EQ(to_string(got), "lost-then-found");
  EXPECT_GE(client->info().timeouts, 1u);
}

TEST_F(RetxFixture, RetransmissionSpacingBacksOffExponentially) {
  build();
  // Black-hole all client data; watch retransmission times at the wire.
  lan->wire->set_loss_fn([&](const net::Nic&, const net::Nic& rx,
                             const net::EthernetFrame& f) {
    if (rx.name() != "primary.eth0") return false;
    auto d = ip::IpDatagram::parse(f.payload);
    if (!d || d->proto != ip::Proto::kTcp) return false;
    const std::size_t hdr = static_cast<std::size_t>(d->payload[12] >> 4) * 4;
    return d->payload.size() > hdr;
  });
  apps::FrameTracer at_client_wire(lan->sim, lan->primary->nic());  // unused sink
  std::vector<SimTime> tx_times;
  lan->client->nic().add_observer([&](const net::EthernetFrame& f, bool) {
    (void)f;  // observer on client NIC sees rx only; use a medium-side count
  });
  // Track transmissions via the client's segment counter instead.
  const auto before = client->info().segments_sent;
  client->send(to_bytes("x"));
  std::vector<SimTime> timeout_times;
  std::uint64_t last_timeouts = 0;
  const SimTime deadline = lan->sim.now() + static_cast<SimTime>(seconds(20));
  while (lan->sim.now() < deadline && lan->sim.pending() > 0) {
    lan->sim.step();
    const auto t = client->info().timeouts;
    if (t != last_timeouts) {
      last_timeouts = t;
      timeout_times.push_back(lan->sim.now());
    }
    if (timeout_times.size() >= 5) break;
  }
  ASSERT_GE(timeout_times.size(), 4u);
  // Consecutive gaps double (exponential backoff).
  for (std::size_t i = 2; i < timeout_times.size(); ++i) {
    const double g1 = static_cast<double>(timeout_times[i - 1] - timeout_times[i - 2]);
    const double g2 = static_cast<double>(timeout_times[i] - timeout_times[i - 1]);
    EXPECT_NEAR(g2 / g1, 2.0, 0.2) << "at timeout " << i;
  }
  EXPECT_GT(client->info().segments_sent, before);
}

TEST_F(RetxFixture, BackoffCollapsesAfterRecovery) {
  TopologyParams p;
  build(p);
  drop_next_data(lan->client->address(), "primary.eth0", 4);  // several timeouts
  Bytes got;
  server->on_readable = [&] { server->recv(got); };
  client->send(to_bytes("abc"));
  ASSERT_TRUE(run_until(lan->sim, [&] { return got.size() == 3; }, seconds(60)));
  const auto inflated = client->info().rto;
  // Exchange fresh data: a clean RTT sample plus ack collapse the RTO.
  lan->wire->set_loss_fn(nullptr);
  client->send(test::pattern_bytes(5000, 1));
  ASSERT_TRUE(run_until(lan->sim, [&] { return got.size() == 5003; }, seconds(30)));
  EXPECT_LT(client->info().rto, inflated);
  EXPECT_LE(client->info().rto, lan->client->tcp().params().min_rto);
}

TEST_F(RetxFixture, FastRetransmitOnTripleDupack) {
  build();
  // Lose exactly one mid-burst segment; the following segments generate
  // dup acks and trigger fast retransmit well before the 200 ms RTO.
  auto dropped = std::make_shared<int>(0);
  auto seen = std::make_shared<int>(0);
  lan->wire->set_loss_fn([=, this](const net::Nic&, const net::Nic& rx,
                                   const net::EthernetFrame& f) {
    if (rx.name() != "primary.eth0" || *dropped > 0) return false;
    auto d = ip::IpDatagram::parse(f.payload);
    if (!d || d->proto != ip::Proto::kTcp || d->src != lan->client->address()) {
      return false;
    }
    const std::size_t hdr = static_cast<std::size_t>(d->payload[12] >> 4) * 4;
    if (d->payload.size() <= hdr) return false;
    if (++*seen == 12) {  // mid-burst, once the window has opened up
      ++*dropped;
      return true;
    }
    return false;
  });
  Bytes got;
  server->on_readable = [&] { server->recv(got); };
  const Bytes data = test::pattern_bytes(30000, 2);
  const SimTime start = lan->sim.now();
  client->send(data);
  ASSERT_TRUE(run_until(lan->sim, [&] { return got.size() == data.size(); },
                        seconds(30)));
  EXPECT_EQ(got, data);
  EXPECT_GE(client->info().fast_retransmits, 1u);
  // Recovered well under the 200ms minimum RTO (fast retransmit path).
  EXPECT_LT(static_cast<SimDuration>(lan->sim.now() - start), milliseconds(150));
}

TEST_F(RetxFixture, GoBackNRefillsWholeGapQuickly) {
  TopologyParams p;
  p.tcp.congestion_control = false;  // whole 64KB window in flight at once
  build(p);
  // Drop a 20-segment hole out of the initial flight: frames 5..24 of the
  // client's transmission vanish, everything after (including
  // retransmissions) is delivered.
  auto seen = std::make_shared<int>(0);
  lan->wire->set_loss_fn([=, this](const net::Nic&, const net::Nic& rx,
                                   const net::EthernetFrame& f) {
    if (rx.name() != "primary.eth0") return false;
    auto d = ip::IpDatagram::parse(f.payload);
    if (!d || d->proto != ip::Proto::kTcp || d->src != lan->client->address()) {
      return false;
    }
    const std::size_t hdr = static_cast<std::size_t>(d->payload[12] >> 4) * 4;
    if (d->payload.size() <= hdr) return false;
    const int n = ++*seen;
    return n >= 5 && n < 25;
  });
  Bytes got;
  server->on_readable = [&] { server->recv(got); };
  const Bytes data = test::pattern_bytes(64 * 1024, 3);
  const SimTime start = lan->sim.now();
  client->send(data);
  ASSERT_TRUE(run_until(lan->sim, [&] { return got.size() == data.size(); },
                        seconds(60)));
  EXPECT_EQ(got, data);
  // One-segment-per-RTO recovery of a 20-segment gap would need >= 20
  // timeouts; go-back-N refill needs only a few.
  EXPECT_LE(client->info().timeouts, 6u);
  EXPECT_LT(static_cast<SimDuration>(lan->sim.now() - start), seconds(5));
}

TEST_F(RetxFixture, SynLossDelaysButCompletesConnect) {
  auto lan2 = make_topology();
  auto first = std::make_shared<bool>(true);
  lan2->wire->set_loss_fn([=](const net::Nic&, const net::Nic& rx,
                              const net::EthernetFrame& f) {
    if (!*first || rx.name() != "primary.eth0") return false;
    if (f.type != net::EtherType::kIpv4) return false;
    *first = false;
    return true;  // eat the very first SYN
  });
  apps::EchoServer echo(lan2->primary->tcp(), 80);
  const SimTime start = lan2->sim.now();
  auto conn = lan2->client->tcp().connect(lan2->primary->address(), 80);
  ASSERT_TRUE(run_until(lan2->sim, [&] {
    return conn->state() == TcpState::kEstablished;
  }, seconds(30)));
  // Establishment took at least one initial RTO (1s).
  EXPECT_GE(static_cast<SimDuration>(lan2->sim.now() - start), milliseconds(900));
}

TEST_F(RetxFixture, RetransmissionLimitAbortsConnection) {
  TopologyParams p;
  p.tcp.max_retries = 3;
  p.tcp.min_rto = milliseconds(50);
  p.tcp.initial_rto = milliseconds(100);
  p.tcp.max_rto = milliseconds(400);
  build(p);
  // Permanent black hole for client data after establishment.
  lan->wire->set_loss_fn([&](const net::Nic&, const net::Nic& rx,
                             const net::EthernetFrame& f) {
    if (rx.name() != "primary.eth0") return false;
    auto d = ip::IpDatagram::parse(f.payload);
    return d && d->proto == ip::Proto::kTcp && d->src == lan->client->address();
  });
  CloseReason reason{};
  bool closed = false;
  client->on_closed = [&](CloseReason r) {
    reason = r;
    closed = true;
  };
  client->send(to_bytes("into the void"));
  ASSERT_TRUE(run_until(lan->sim, [&] { return closed; }, seconds(60)));
  EXPECT_EQ(reason, CloseReason::kTimeout);
}

TEST_F(RetxFixture, SrttConvergesToPathRtt) {
  build();
  Bytes got;
  server->on_readable = [&] {
    Bytes b;
    server->recv(b);
    server->send(std::move(b));  // echo
  };
  client->on_readable = [&] { client->recv(got); };
  // Several request/response rounds to feed the estimator.
  std::size_t sent = 0;
  for (int i = 0; i < 20; ++i) {
    client->send(test::pattern_bytes(500, i));
    sent += 500;
    ASSERT_TRUE(run_until(lan->sim, [&] { return got.size() >= sent; }, seconds(30)));
  }
  // LAN RTT here is ~2*(wire + 30us processing) ≈ 80-120us.
  const auto srtt = client->info().srtt;
  EXPECT_GT(srtt, microseconds(20));
  EXPECT_LT(srtt, microseconds(500));
}

TEST_F(RetxFixture, PersistProbesAreSpacedAndBounded) {
  TopologyParams p;
  p.tcp.recv_buf = 2048;
  build(p);
  // Fill the receiver without draining: window goes to zero.
  client->send(test::pattern_bytes(32 * 1024, 9));
  const auto before = client->info().timeouts;
  lan->sim.run_for(seconds(4));
  const auto probes = client->info().timeouts - before;
  // Persist probing fires, but backs off rather than spamming.
  EXPECT_GE(probes, 2u);
  EXPECT_LE(probes, 12u);
  // Draining the receiver reopens the window and completes the transfer.
  Bytes got;
  server->on_readable = [&] { server->recv(got); };
  server->recv(got);
  ASSERT_TRUE(run_until(lan->sim, [&] { return got.size() == 32 * 1024; },
                        seconds(240)));
}

}  // namespace
}  // namespace tfo::tcp
