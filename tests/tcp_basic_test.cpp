// Integration tests for the TCP state machine over the simulated network:
// handshake, data transfer, buffering semantics, close handshakes, resets.
#include <gtest/gtest.h>

#include <memory>

#include "apps/topology.hpp"
#include "test_util.hpp"

namespace tfo::tcp {
namespace {

using apps::Topology;
using apps::TopologyParams;
using apps::make_topology;

struct TcpFixture : ::testing::Test {
  std::unique_ptr<Topology> lan;
  std::shared_ptr<Connection> server;  // accepted connection on primary
  std::shared_ptr<Connection> client;

  void build(TopologyParams p = {}) { lan = make_topology(p); }

  /// Starts an echo-less listener capturing the accepted connection.
  void listen(std::uint16_t port = 80, SocketOptions opts = {}) {
    lan->primary->tcp().listen(
        port, [this](std::shared_ptr<Connection> c) { server = std::move(c); }, opts);
  }

  void connect(std::uint16_t port = 80, SocketOptions opts = {}) {
    client = lan->client->tcp().connect(lan->primary->address(), port, opts);
  }

  bool established() {
    return client && client->state() == TcpState::kEstablished && server != nullptr;
  }
};

TEST_F(TcpFixture, ThreeWayHandshake) {
  build();
  listen();
  connect();
  ASSERT_TRUE(test::run_until(lan->sim, [&] { return established(); }));
  EXPECT_EQ(server->state(), TcpState::kEstablished);
  EXPECT_EQ(server->key().remote_ip, lan->client->address());
  EXPECT_EQ(client->key().remote_port, 80);
}

TEST_F(TcpFixture, ConnectionRefusedWhenNoListener) {
  build();
  connect(12345);
  CloseReason reason{};
  bool closed = false;
  client->on_closed = [&](CloseReason r) {
    reason = r;
    closed = true;
  };
  ASSERT_TRUE(test::run_until(lan->sim, [&] { return closed; }));
  EXPECT_EQ(reason, CloseReason::kRefused);
}

TEST_F(TcpFixture, SmallDataRoundTrip) {
  build();
  listen();
  connect();
  ASSERT_TRUE(test::run_until(lan->sim, [&] { return established(); }));

  client->send(to_bytes("ping"));
  ASSERT_TRUE(test::run_until(lan->sim, [&] { return server->rx_available() >= 4; }));
  Bytes got;
  server->recv(got);
  EXPECT_EQ(to_string(got), "ping");

  server->send(to_bytes("pong!"));
  ASSERT_TRUE(test::run_until(lan->sim, [&] { return client->rx_available() >= 5; }));
  got.clear();
  client->recv(got);
  EXPECT_EQ(to_string(got), "pong!");
}

TEST_F(TcpFixture, MssNegotiationTakesMinimum) {
  TopologyParams p;
  p.tcp.mss = 1460;
  build(p);
  // Client advertises a smaller MSS.
  lan->client->tcp().mutable_params().mss = 500;
  listen();
  connect();
  ASSERT_TRUE(test::run_until(lan->sim, [&] { return established(); }));
  EXPECT_EQ(server->effective_mss(), 500u);
  EXPECT_EQ(client->effective_mss(), 500u);
}

TEST_F(TcpFixture, LargeTransferIsSegmentedAndComplete) {
  build();
  listen();
  connect();
  ASSERT_TRUE(test::run_until(lan->sim, [&] { return established(); }));

  const Bytes data = test::pattern_bytes(256 * 1024, 5);
  Bytes got;
  server->on_readable = [&] { server->recv(got); };
  server->recv(got);
  client->send(data);
  ASSERT_TRUE(test::run_until(
      lan->sim, [&] { return got.size() == data.size(); }, seconds(120)));
  EXPECT_EQ(got, data);
}

TEST_F(TcpFixture, SendCompletionTracksBufferAdmission) {
  build();
  listen();
  connect();
  ASSERT_TRUE(test::run_until(lan->sim, [&] { return established(); }));

  // A message larger than the 64KB send buffer cannot be accepted at once;
  // completion requires ACK progress.
  const Bytes big = test::pattern_bytes(200 * 1024, 1);
  bool accepted = false;
  client->send(big, [&] { accepted = true; });
  EXPECT_FALSE(accepted);
  EXPECT_GT(client->send_queue_pending(), 0u);

  Bytes sink;
  server->on_readable = [&] { server->recv(sink); };
  server->recv(sink);
  ASSERT_TRUE(test::run_until(lan->sim, [&] { return accepted; }, seconds(120)));
  ASSERT_TRUE(test::run_until(
      lan->sim, [&] { return sink.size() == big.size(); }, seconds(120)));
  EXPECT_EQ(sink, big);
}

TEST_F(TcpFixture, SmallMessageAcceptedImmediatelyIntoSendBuffer) {
  build();
  listen();
  connect();
  ASSERT_TRUE(test::run_until(lan->sim, [&] { return established(); }));
  bool accepted = false;
  client->send(test::pattern_bytes(16 * 1024, 2), [&] { accepted = true; });
  // Completion is deferred via a 0-delay event, not synchronous.
  EXPECT_FALSE(accepted);
  lan->sim.step();
  EXPECT_TRUE(accepted);
}

TEST_F(TcpFixture, ClientInitiatedClose) {
  build();
  listen();
  connect();
  ASSERT_TRUE(test::run_until(lan->sim, [&] { return established(); }));

  bool server_saw_fin = false, server_closed = false, client_closed = false;
  server->on_peer_fin = [&] {
    server_saw_fin = true;
    server->close();  // close our side in response
  };
  server->on_closed = [&](CloseReason r) {
    server_closed = true;
    EXPECT_EQ(r, CloseReason::kGraceful);
  };
  client->on_closed = [&](CloseReason r) {
    client_closed = true;
    EXPECT_EQ(r, CloseReason::kGraceful);
  };
  client->close();
  ASSERT_TRUE(test::run_until(lan->sim, [&] { return server_closed && client_closed; },
                              seconds(30)));
  EXPECT_TRUE(server_saw_fin);
}

TEST_F(TcpFixture, HalfCloseAllowsContinuedTransfer) {
  build();
  listen();
  connect();
  ASSERT_TRUE(test::run_until(lan->sim, [&] { return established(); }));

  // Client closes its sending direction, then the server keeps sending.
  client->close();
  ASSERT_TRUE(test::run_until(
      lan->sim, [&] { return server->state() == TcpState::kCloseWait; }));

  const Bytes reply = test::pattern_bytes(50000, 9);
  Bytes got;
  client->on_readable = [&] { client->recv(got); };
  server->send(reply);
  ASSERT_TRUE(test::run_until(
      lan->sim, [&] { return got.size() == reply.size(); }, seconds(60)));
  EXPECT_EQ(got, reply);

  bool both_closed = false;
  server->on_closed = [&](CloseReason) {
    both_closed = client->state() == TcpState::kClosed ||
                  client->state() == TcpState::kTimeWait;
  };
  server->close();
  ASSERT_TRUE(test::run_until(lan->sim, [&] {
    return server->state() == TcpState::kClosed &&
           (client->state() == TcpState::kTimeWait ||
            client->state() == TcpState::kClosed);
  }, seconds(30)));
}

TEST_F(TcpFixture, ServerInitiatedClose) {
  build();
  listen();
  connect();
  ASSERT_TRUE(test::run_until(lan->sim, [&] { return established(); }));
  bool client_saw_fin = false;
  client->on_peer_fin = [&] {
    client_saw_fin = true;
    client->close();
  };
  server->close();
  ASSERT_TRUE(test::run_until(lan->sim, [&] {
    return server->state() == TcpState::kTimeWait ||
           server->state() == TcpState::kClosed;
  }, seconds(30)));
  EXPECT_TRUE(client_saw_fin);
}

TEST_F(TcpFixture, AbortSendsRst) {
  build();
  listen();
  connect();
  ASSERT_TRUE(test::run_until(lan->sim, [&] { return established(); }));
  bool server_reset = false;
  server->on_closed = [&](CloseReason r) { server_reset = (r == CloseReason::kReset); };
  client->abort();
  ASSERT_TRUE(test::run_until(lan->sim, [&] { return server_reset; }));
}

TEST_F(TcpFixture, DataAfterCloseIsRejected) {
  build();
  listen();
  connect();
  ASSERT_TRUE(test::run_until(lan->sim, [&] { return established(); }));
  client->close();
  client->send(to_bytes("too late"));  // must be ignored, not crash
  lan->sim.run_for(seconds(5));
  EXPECT_EQ(server->rx_available(), 0u);
}

TEST_F(TcpFixture, EphemeralPortsAreDeterministicAcrossHosts) {
  build();
  // Two stacks with the same allocation history pick the same ports —
  // required for §7.2 replicated active opens.
  const std::uint16_t p1 = lan->primary->tcp().allocate_ephemeral_port();
  const std::uint16_t s1 = lan->secondary->tcp().allocate_ephemeral_port();
  EXPECT_EQ(p1, s1);
}

TEST_F(TcpFixture, TimeWaitEventuallyCleansUp) {
  build();
  listen();
  connect();
  ASSERT_TRUE(test::run_until(lan->sim, [&] { return established(); }));
  server->on_peer_fin = [&] { server->close(); };
  client->close();
  ASSERT_TRUE(test::run_until(
      lan->sim, [&] { return client->state() == TcpState::kTimeWait; }, seconds(30)));
  // 2*MSL later the connection is fully gone.
  ASSERT_TRUE(test::run_until(
      lan->sim, [&] { return client->state() == TcpState::kClosed; }, seconds(30)));
  ASSERT_TRUE(test::run_until(
      lan->sim, [&] { return lan->client->tcp().connection_count() == 0; }, seconds(5)));
}

TEST_F(TcpFixture, BidirectionalSimultaneousTransfer) {
  build();
  listen();
  connect();
  ASSERT_TRUE(test::run_until(lan->sim, [&] { return established(); }));

  const Bytes up = test::pattern_bytes(100000, 11);
  const Bytes down = test::pattern_bytes(120000, 13);
  Bytes got_up, got_down;
  server->on_readable = [&] { server->recv(got_up); };
  client->on_readable = [&] { client->recv(got_down); };
  client->send(up);
  server->send(down);
  ASSERT_TRUE(test::run_until(lan->sim, [&] {
    return got_up.size() == up.size() && got_down.size() == down.size();
  }, seconds(120)));
  EXPECT_EQ(got_up, up);
  EXPECT_EQ(got_down, down);
}

TEST_F(TcpFixture, ZeroWindowRecoveryViaPersist) {
  TopologyParams p;
  p.tcp.recv_buf = 4096;  // tiny receiver
  build(p);
  listen();
  connect();
  ASSERT_TRUE(test::run_until(lan->sim, [&] { return established(); }));

  // Server app does not read: the window closes. Then it starts reading.
  const Bytes data = test::pattern_bytes(64 * 1024, 17);
  client->send(data);
  lan->sim.run_for(seconds(3));
  EXPECT_LT(server->bytes_received_total(), data.size());

  Bytes got;
  server->on_readable = [&] { server->recv(got); };
  server->recv(got);
  ASSERT_TRUE(test::run_until(
      lan->sim, [&] { return got.size() == data.size(); }, seconds(240)));
  EXPECT_EQ(got, data);
}

TEST_F(TcpFixture, NagleCoalescesSmallWrites) {
  build();
  listen();
  connect();
  ASSERT_TRUE(test::run_until(lan->sim, [&] { return established(); }));
  // Nagle on (default): many small writes arrive complete.
  Bytes got;
  server->on_readable = [&] { server->recv(got); };
  for (int i = 0; i < 50; ++i) client->send(to_bytes("x"));
  ASSERT_TRUE(test::run_until(lan->sim, [&] { return got.size() == 50; }, seconds(30)));
  // Coalescing means far fewer data segments than writes.
  EXPECT_EQ(got.size(), 50u);
}

}  // namespace
}  // namespace tfo::tcp
