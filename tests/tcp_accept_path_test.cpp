// Accept-path hardening tests: listen backlog bounds under SYN bursts,
// single-fire accept across retransmitted SYNs, TIME_WAIT recycling on
// 4-tuple reuse (BSD rule: the new ISN must be strictly newer than the
// old connection's receive point), RFC 1337 TIME-WAIT assassination
// resistance, and ephemeral-port exhaustion/reuse.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "apps/topology.hpp"
#include "test_util.hpp"

namespace tfo::tcp {
namespace {

using apps::Topology;
using apps::TopologyParams;
using apps::make_topology;
using test::run_until;

struct AcceptPathFixture : ::testing::Test {
  std::unique_ptr<Topology> lan;
  std::vector<std::shared_ptr<Connection>> accepted;

  void build(TopologyParams p = {}) { lan = make_topology(p); }

  void listen(std::uint16_t port = 80, SocketOptions opts = {}) {
    lan->primary->tcp().listen(
        port,
        [this](std::shared_ptr<Connection> c) { accepted.push_back(std::move(c)); },
        opts);
  }

  std::shared_ptr<Connection> connect(std::uint16_t port = 80,
                                      SocketOptions opts = {}) {
    return lan->client->tcp().connect(lan->primary->address(), port, opts);
  }

  std::uint64_t server_counter(const char* name) {
    return lan->primary->metrics().counter_value(name);
  }

  /// Drops server->client SYN-ACKs so embryonic connections pile up in
  /// the listener; returns the tap id for later removal.
  TapId drop_syn_acks() {
    return lan->primary->tcp().add_outbound_tap(
        [](TcpSegment& seg, ip::Ipv4&, ip::Ipv4&) {
          return (seg.syn() && seg.has_ack()) ? TapVerdict::kDrop
                                              : TapVerdict::kContinue;
        });
  }
};

// A SYN burst beyond the listener's backlog is dropped and counted; the
// embryonic population never exceeds the bound, and once the queue
// drains the dropped clients get in via ordinary SYN retransmission.
TEST_F(AcceptPathFixture, BacklogOverflowDropsExcessSyns) {
  build();
  listen(80, {.backlog = 4});
  const TapId tap = drop_syn_acks();

  std::vector<std::shared_ptr<Connection>> clients;
  for (int i = 0; i < 7; ++i) clients.push_back(connect());
  // Well before the first SYN retransmission (initial RTO 1 s): four
  // embryonic connections hold the backlog, three SYNs were refused.
  lan->sim.run_for(milliseconds(300));
  EXPECT_EQ(server_counter("tcp.listen_overflows"), 3u);
  EXPECT_EQ(server_counter("tcp.listen.80.overflows"), 3u);
  EXPECT_EQ(server_counter("tcp.listen.80.accepted"), 4u);
  EXPECT_TRUE(accepted.empty());  // nobody completed a handshake

  // Queue drains: the pending SYN-ACKs retransmit and establish, freeing
  // backlog slots for the refused clients' SYN retries.
  lan->primary->tcp().remove_tap(tap);
  ASSERT_TRUE(run_until(lan->sim, [&] { return accepted.size() == 7; },
                        seconds(30)));
  for (const auto& c : clients) {
    EXPECT_EQ(c->state(), TcpState::kEstablished);
  }
}

// A retransmitted SYN for an existing embryonic connection must not
// create a second connection or fire the accept handler twice.
TEST_F(AcceptPathFixture, RetransmittedSynDoesNotDoubleAccept) {
  build();
  listen();
  const TapId tap = drop_syn_acks();
  auto client = connect();
  // 1.5 s covers the client's first SYN retransmission; the retry finds
  // the embryonic connection and is handled there, not by the listener.
  lan->sim.run_for(milliseconds(1500));
  EXPECT_EQ(server_counter("tcp.listen.80.accepted"), 1u);
  EXPECT_TRUE(accepted.empty());

  lan->primary->tcp().remove_tap(tap);
  ASSERT_TRUE(run_until(lan->sim, [&] { return accepted.size() == 1; },
                        seconds(30)));
  EXPECT_EQ(client->state(), TcpState::kEstablished);
  EXPECT_EQ(server_counter("tcp.listen.80.accepted"), 1u);
}

// A duplicate of the original SYN arriving after the connection is
// established is ignored by the connection, never re-accepted.
TEST_F(AcceptPathFixture, DuplicateSynAfterEstablishIsIgnored) {
  build();
  listen();
  lan->client->tcp().set_next_isn(10000);
  auto client = connect();
  ASSERT_TRUE(run_until(lan->sim, [&] {
    return client->state() == TcpState::kEstablished && accepted.size() == 1;
  }));

  TcpSegment dup;
  dup.src_port = client->key().local_port;
  dup.dst_port = 80;
  dup.seq = 10000;
  dup.flags = Flags::kSyn;
  dup.mss = 1460;
  lan->client->tcp().send_segment_raw(std::move(dup), lan->client->address(),
                                      lan->primary->address());
  lan->sim.run_for(milliseconds(100));
  EXPECT_EQ(accepted.size(), 1u);
  EXPECT_EQ(server_counter("tcp.listen.80.accepted"), 1u);
  EXPECT_EQ(accepted[0]->state(), TcpState::kEstablished);
}

// TIME_WAIT helper: drive one HTTP-style exchange where the *server*
// closes first, leaving the server side in TIME_WAIT and freeing the
// client's ephemeral port. Returns the server-side connection.
struct TimeWaitFixture : AcceptPathFixture {
  std::shared_ptr<Connection> server_time_wait() {
    auto client = connect();
    if (!run_until(lan->sim, [&] {
          return client->state() == TcpState::kEstablished && !accepted.empty();
        })) {
      return nullptr;
    }
    auto server = accepted.back();
    bool client_closed = false;
    client->on_peer_fin = [c = client.get()] { c->close(); };
    client->on_closed = [&](CloseReason) { client_closed = true; };
    server->close();
    if (!run_until(lan->sim, [&] {
          return client_closed && server->state() == TcpState::kTimeWait;
        })) {
      return nullptr;
    }
    // Port release is deferred (connection_closed schedules the erase);
    // settle one tick so the client's ephemeral port is reusable.
    lan->sim.run_for(milliseconds(1));
    return server;
  }
};

// Reusing a 4-tuple whose server side sits in TIME_WAIT succeeds inside
// 2*MSL when the new SYN's ISN is newer than the old receive point: the
// old incarnation is displaced (tcp.time_wait_recycled) and the new
// handshake completes on the same tuple.
TEST_F(TimeWaitFixture, TupleReuseRecyclesTimeWait) {
  build();
  listen();
  // One ephemeral port: every reconnect lands on the same 4-tuple.
  lan->client->tcp().set_ephemeral_range(50000, 50000);
  auto old_server = server_time_wait();
  ASSERT_NE(old_server, nullptr);
  const SimTime closed_at = lan->sim.now();

  auto client2 = connect();
  ASSERT_NE(client2, nullptr);
  ASSERT_TRUE(run_until(lan->sim, [&] {
    return client2->state() == TcpState::kEstablished && accepted.size() == 2;
  }));
  // Inside the old incarnation's 2*MSL window — this was a recycle, not
  // an expiry.
  EXPECT_LT(lan->sim.now(), closed_at + 2 * static_cast<SimTime>(
                                            TcpParams{}.msl));
  EXPECT_EQ(server_counter("tcp.time_wait_recycled"), 1u);
  EXPECT_EQ(old_server->state(), TcpState::kClosed);
  EXPECT_EQ(accepted.size(), 2u);
}

// RFC 1337: a stray RST landing on TIME_WAIT must not assassinate it —
// the quiet period protects the new incarnation from old duplicates.
TEST_F(TimeWaitFixture, StrayRstDoesNotAssassinateTimeWait) {
  build();
  listen();
  lan->client->tcp().set_ephemeral_range(50000, 50000);
  auto server = server_time_wait();
  ASSERT_NE(server, nullptr);

  TcpSegment rst;
  rst.src_port = 50000;
  rst.dst_port = 80;
  rst.seq = server->rcv_nxt_abs();  // in-window: maximally tempting
  rst.flags = Flags::kRst | Flags::kAck;
  lan->client->tcp().send_segment_raw(std::move(rst), lan->client->address(),
                                      lan->primary->address());
  lan->sim.run_for(milliseconds(100));
  EXPECT_EQ(server->state(), TcpState::kTimeWait);

  // The full 2*MSL still elapses before the connection leaves.
  lan->sim.run_for(2 * TcpParams{}.msl);
  EXPECT_EQ(server->state(), TcpState::kClosed);
  EXPECT_EQ(server_counter("tcp.time_wait_recycled"), 0u);
}

// An old duplicate SYN (sequence number at or below the old receive
// point) fails the recycling criterion: TIME_WAIT stands.
TEST_F(TimeWaitFixture, OldDuplicateSynDoesNotRecycle) {
  build();
  listen();
  lan->client->tcp().set_ephemeral_range(50000, 50000);
  auto server = server_time_wait();
  ASSERT_NE(server, nullptr);

  TcpSegment old_syn;
  old_syn.src_port = 50000;
  old_syn.dst_port = 80;
  old_syn.seq = server->rcv_nxt_abs() - 100;
  old_syn.flags = Flags::kSyn;
  old_syn.mss = 1460;
  lan->client->tcp().send_segment_raw(std::move(old_syn), lan->client->address(),
                                      lan->primary->address());
  lan->sim.run_for(milliseconds(100));
  EXPECT_EQ(server->state(), TcpState::kTimeWait);
  EXPECT_EQ(server_counter("tcp.time_wait_recycled"), 0u);
  EXPECT_EQ(accepted.size(), 1u);  // the listener did not re-accept
}

// A server connection entering TIME_WAIT frees its drained send and
// receive buffers: it holds no data for its 2*MSL, only sequence state.
TEST_F(TimeWaitFixture, TimeWaitReleasesDrainedBuffers) {
  build();
  listen();
  auto client = connect();
  ASSERT_TRUE(run_until(lan->sim, [&] {
    return client->state() == TcpState::kEstablished && !accepted.empty();
  }));
  auto server = accepted.back();
  server->on_readable = [s = server.get()] {
    Bytes b;
    s->recv(b);
  };
  client->on_readable = [c = client.get()] {
    Bytes b;
    c->recv(b);
  };
  client->send(Bytes(4000, 0x5a));
  server->send(Bytes(4000, 0xa5));
  ASSERT_TRUE(run_until(lan->sim, [&] {
    return server->bytes_received_total() == 4000 &&
           client->bytes_received_total() == 4000 && server->send_buffer_used() == 0;
  }));
  EXPECT_GT(server->buffer_capacity(), 0u);  // the exchange reserved space

  client->on_peer_fin = [c = client.get()] { c->close(); };
  server->close();
  ASSERT_TRUE(run_until(lan->sim, [&] { return server->state() == TcpState::kTimeWait; }));
  EXPECT_EQ(server->buffer_capacity(), 0u);
}

// Data that arrived but was never read survives the entry to TIME_WAIT:
// only empty buffers are released.
TEST_F(TimeWaitFixture, TimeWaitKeepsUnreadData) {
  build();
  listen();
  auto client = connect();
  ASSERT_TRUE(run_until(lan->sim, [&] {
    return client->state() == TcpState::kEstablished && !accepted.empty();
  }));
  auto server = accepted.back();  // the server application never reads
  client->on_peer_fin = [c = client.get()] {
    c->send(Bytes(300, 0x42));
    c->close();
  };
  server->close();
  ASSERT_TRUE(run_until(lan->sim, [&] { return server->state() == TcpState::kTimeWait; }));
  EXPECT_EQ(server->rx_available(), 300u);
  EXPECT_GE(server->buffer_capacity(), 300u);
  Bytes out;
  EXPECT_EQ(server->recv(out), 300u);
  EXPECT_EQ(out, Bytes(300, 0x42));
}

// Ephemeral-port exhaustion: connect() refuses (returns null) instead of
// corrupting the use table, and a port freed by a full teardown is
// allocatable again.
TEST_F(AcceptPathFixture, EphemeralExhaustionRefusesAndRecovers) {
  build();
  listen();
  lan->client->tcp().set_ephemeral_range(50000, 50003);  // 4 ports

  std::vector<std::shared_ptr<Connection>> clients;
  for (int i = 0; i < 4; ++i) {
    auto c = connect();
    ASSERT_NE(c, nullptr);
    clients.push_back(std::move(c));
  }
  ASSERT_TRUE(run_until(lan->sim, [&] { return accepted.size() == 4; }));
  for (const auto& c : clients) {
    EXPECT_EQ(c->state(), TcpState::kEstablished);
  }
  EXPECT_EQ(connect(), nullptr);  // all four ports in use

  // Server-side close frees the client port without client TIME_WAIT.
  bool closed = false;
  clients[0]->on_peer_fin = [c = clients[0].get()] { c->close(); };
  clients[0]->on_closed = [&](CloseReason) { closed = true; };
  accepted[0]->close();
  ASSERT_TRUE(run_until(lan->sim, [&] { return closed; }));
  // The port release is a deferred erase; settle one tick before reusing.
  lan->sim.run_for(milliseconds(1));

  auto again = connect();
  ASSERT_NE(again, nullptr);
  EXPECT_EQ(again->key().local_port, clients[0]->key().local_port);
  ASSERT_TRUE(run_until(lan->sim, [&] {
    return again->state() == TcpState::kEstablished;
  }));
}

}  // namespace
}  // namespace tfo::tcp
