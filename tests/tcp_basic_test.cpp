// Integration tests for the TCP state machine over the simulated network:
// handshake, data transfer, buffering semantics, close handshakes, resets.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "apps/topology.hpp"
#include "core/bridge_conn.hpp"
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

// A write that fits in the send buffer goes straight into it: the
// connection keeps no write-queue entry (nor its capacity), and the
// completion callback fires when the modelled user-to-kernel copy ends,
// exactly as it did when every write went through the queue.
TEST_F(TcpFixture, FittingWriteSkipsTheWriteQueue) {
  TopologyParams p;
  p.tcp.send_copy_ns_per_byte = 10;
  build(p);
  listen();
  connect();
  ASSERT_TRUE(test::run_until(lan->sim, [&] { return established(); }));
  ASSERT_EQ(client->buffer_capacity(), 0u);  // nothing sent or received yet

  const SimTime issued = lan->sim.now();
  std::optional<SimTime> accepted_at;
  client->send(test::pattern_bytes(16, 3), [&] { accepted_at = lan->sim.now(); });
  // The send ring grew to the 16 bytes (its capacity follows vector
  // growth); the receive ring and the write queue hold nothing.
  EXPECT_EQ(client->buffer_capacity(), 16u);
  EXPECT_EQ(client->send_queue_pending(), 0u);
  ASSERT_TRUE(test::run_until(lan->sim, [&] { return accepted_at.has_value(); }));
  EXPECT_EQ(*accepted_at, issued + 16 * 10);
}

// A write larger than the free send space still queues its remainder, and
// a write issued behind it waits its turn: both complete, in order, and
// the bytes arrive in order.
TEST_F(TcpFixture, OversizedWriteQueuesAndCompletesInOrder) {
  build();
  listen();
  connect();
  ASSERT_TRUE(test::run_until(lan->sim, [&] { return established(); }));

  const Bytes big = test::pattern_bytes(100 * 1024, 4);  // > the 64 KB buffer
  const Bytes small = test::pattern_bytes(16, 5);
  std::vector<char> done;
  client->send(big, [&] { done.push_back('b'); });
  EXPECT_GT(client->send_queue_pending(), 0u);
  client->send(small, [&] { done.push_back('s'); });
  EXPECT_EQ(client->send_queue_pending(), big.size() - 64 * 1024 + small.size());

  Bytes sink;
  server->on_readable = [&] { server->recv(sink); };
  ASSERT_TRUE(test::run_until(
      lan->sim, [&] { return sink.size() == big.size() + small.size(); },
      seconds(60)));
  EXPECT_EQ(done, (std::vector<char>{'b', 's'}));
  Bytes expected = big;
  expected.insert(expected.end(), small.begin(), small.end());
  EXPECT_EQ(sink, expected);
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

/// Time from the server sending one small segment to the client's ACK of
/// it reaching the server. With quickack off and two-segment ACK parity,
/// the client acknowledges a lone segment on its delayed-ACK timer.
SimDuration delayed_ack_seen_by_server(Topology& lan, Connection& server) {
  const SimTime sent = lan.sim.now();
  server.send(to_bytes("x"));
  EXPECT_TRUE(test::run_until(lan.sim, [&] { return server.info().bytes_in_flight == 0; }));
  return static_cast<SimDuration>(lan.sim.now() - sent);
}

TEST_F(TcpFixture, ParamsEditAfterConnectAppliesToTheNextConnection) {
  TopologyParams p;
  p.tcp.quickack_segments = 0;
  build(p);
  std::vector<std::shared_ptr<Connection>> accepted;
  lan->primary->tcp().listen(80, [&](std::shared_ptr<Connection> c) {
    accepted.push_back(std::move(c));
  });
  auto first = lan->client->tcp().connect(lan->primary->address(), 80);
  ASSERT_TRUE(test::run_until(lan->sim, [&] { return accepted.size() == 1; }));

  lan->client->tcp().mutable_params().delayed_ack = milliseconds(300);
  auto second = lan->client->tcp().connect(lan->primary->address(), 80);
  ASSERT_TRUE(test::run_until(lan->sim, [&] { return accepted.size() == 2; }));

  // The open connection keeps the params it was created with.
  EXPECT_EQ(first->params().delayed_ack, milliseconds(100));
  EXPECT_EQ(second->params().delayed_ack, milliseconds(300));
  const SimDuration old_wait = delayed_ack_seen_by_server(*lan, *accepted[0]);
  EXPECT_GE(old_wait, milliseconds(100));
  EXPECT_LT(old_wait, milliseconds(300));
  EXPECT_GE(delayed_ack_seen_by_server(*lan, *accepted[1]), milliseconds(300));
}

TEST_F(TcpFixture, ConnectionsUnderUnchangedParamsShareOneSnapshot) {
  build();
  TcpLayer& tcp = lan->client->tcp();
  auto a = tcp.connect(lan->primary->address(), 80);
  auto b = tcp.connect(lan->primary->address(), 81);
  EXPECT_EQ(&a->params(), &b->params());

  // An edit makes a new snapshot for the next connection only.
  tcp.mutable_params().mss = 1000;
  auto c = tcp.connect(lan->primary->address(), 82);
  EXPECT_NE(&c->params(), &a->params());
  EXPECT_EQ(c->params().mss, 1000);
  EXPECT_EQ(a->params().mss, 1460);

  // An edit that is undone before the next connection changes nothing.
  tcp.mutable_params().mss = 500;
  tcp.mutable_params().mss = 1000;
  auto d = tcp.connect(lan->primary->address(), 83);
  EXPECT_EQ(&d->params(), &c->params());
}

// ------------------------------------------------ delayed-ACK pingpong mode

/// Time from the client sending `n` bytes until they are all acknowledged.
SimDuration ack_delay(Topology& lan, Connection& client, std::size_t n) {
  const SimTime sent = lan.sim.now();
  client.send(Bytes(n, 0x5a));
  EXPECT_TRUE(test::run_until(lan.sim, [&] { return client.info().bytes_in_flight == 0; }));
  return static_cast<SimDuration>(lan.sim.now() - sent);
}

TEST_F(TcpFixture, ReplyCarriesTheAckOnceTheConnectionIsInteractive) {
  build();
  listen();
  connect(80, {.nodelay = true});
  ASSERT_TRUE(test::run_until(lan->sim, [&] { return established(); }));
  server->on_readable = [&] {
    Bytes req;
    server->recv(req);
    server->send(std::move(req));
  };
  Bytes echoed;
  client->on_readable = [&] { client->recv(echoed); };
  auto exchange = [&] {
    const std::uint64_t before = server->info().segments_sent;
    const std::size_t want = echoed.size() + 10;
    client->send(Bytes(10, 0x42));
    EXPECT_TRUE(test::run_until(lan->sim, [&] { return echoed.size() == want; }));
    lan->sim.run_for(milliseconds(1));
    return server->info().segments_sent - before;
  };
  // The first request is quick-ACKed ahead of its reply; sending that
  // reply within the delayed-ACK interval puts the connection in pingpong
  // mode, and from then on the reply is the ACK.
  EXPECT_EQ(exchange(), 2u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(exchange(), 1u) << "request " << i + 1;
}

TEST_F(TcpFixture, ReceiverThatNeverRepliesQuickAcksItsFirstEightSegments) {
  build();
  listen();
  connect(80, {.nodelay = true});
  ASSERT_TRUE(test::run_until(lan->sim, [&] { return established(); }));
  Bytes sink;
  server->on_readable = [&] { server->recv(sink); };
  const TcpParams& p = server->params();
  ASSERT_EQ(p.quickack_segments, 8);
  for (int i = 0; i < p.quickack_segments; ++i) {
    EXPECT_LT(ack_delay(*lan, *client, 100), milliseconds(5)) << "segment " << i + 1;
  }
  // The ninth lone segment waits for the delayed-ACK timer.
  EXPECT_GE(ack_delay(*lan, *client, 100), p.delayed_ack);
}

TEST_F(TcpFixture, DelayedAckTimerEndsPingpongMode) {
  build();
  listen();
  connect(80, {.nodelay = true});
  ASSERT_TRUE(test::run_until(lan->sim, [&] { return established(); }));
  bool reply = true;
  server->on_readable = [&] {
    Bytes req;
    server->recv(req);
    if (reply) server->send(std::move(req));
  };
  Bytes echoed;
  client->on_readable = [&] { client->recv(echoed); };
  client->send(Bytes(10, 0x42));
  ASSERT_TRUE(test::run_until(lan->sim, [&] { return echoed.size() == 10; }));

  // In pingpong mode an unanswered request is not quick-ACKed: the ACK
  // goes out when the delayed-ACK timer fires, as a segment of its own.
  reply = false;
  const std::uint64_t before = server->info().segments_sent;
  EXPECT_GE(ack_delay(*lan, *client, 10), server->params().delayed_ack);
  EXPECT_EQ(server->info().segments_sent - before, 1u);
  // The timer ended pingpong mode: quick-ACKs are back.
  EXPECT_LT(ack_delay(*lan, *client, 10), milliseconds(5));
}

TEST(ConnectionLayout, StaysWithinTheStormBudget) {
  // storm holds three Connections per client connection, each with two
  // Timers (the connection timer and the delayed ACK) and two ByteRings;
  // a field added here moves bench_e2e's heap figures. The pins hold for
  // the x86-64 libstdc++ layout the budget was measured on.
#if defined(__x86_64__) && defined(__GLIBCXX__)
  EXPECT_LE(sizeof(Connection), 472u);
  EXPECT_LE(sizeof(sim::Timer), 24u);
  EXPECT_LE(sizeof(ByteRing), 24u);
#else
  GTEST_SKIP() << "layout budget is pinned for x86-64 libstdc++ only";
#endif
}

TEST(ConnectionLayout, BridgeStateStaysWithinTheStormBudget) {
  // The primary bridge keeps one BridgeConn, with its two output queues,
  // per replicated connection. Each queue is a run vector, a head index,
  // its byte total and its gauge bindings.
#if defined(__x86_64__) && defined(__GLIBCXX__)
  EXPECT_LE(sizeof(core::OutputQueue), 72u);
  EXPECT_LE(sizeof(core::BridgeConn), 336u);
#else
  GTEST_SKIP() << "layout budget is pinned for x86-64 libstdc++ only";
#endif
}

TEST(ConnectionLayout, TableSlotAndBufferHeaderStayWithinTheStormBudget) {
  // Each storm connection holds a demux slot on all three hosts, and
  // every live packet block one header. An empty slot is marked by its
  // stored hash, not a flag byte (which padded the slot to 48 B); the
  // buffer header shares its allocation with the bytes.
#if defined(__x86_64__) && defined(__GLIBCXX__)
  EXPECT_LE((FlatMap<ConnKey, std::shared_ptr<Connection>, ConnKeyHash>::kSlotBytes), 40u);
#endif
  EXPECT_LE(sizeof(wire::PacketBuffer::Storage), 16u);
}

TEST(ConnectionLayout, PacketBufferIsThreeWords) {
  // Every queued segment, in-flight frame and rx-ring slot holds one: a
  // storage pointer with an intrusive count, an offset and a length.
  EXPECT_LE(sizeof(wire::PacketBuffer), 24u);
}

}  // namespace
}  // namespace tfo::tcp
