// Property sweeps over the TCP implementation: for a broad grid of
// configurations (MSS asymmetry, buffer sizes, Nagle, delayed-ACK, loss,
// congestion control, transfer direction) the delivered byte stream must
// equal the sent byte stream exactly.
#include <gtest/gtest.h>

#include <sstream>

#include "apps/topology.hpp"
#include "test_util.hpp"

namespace tfo::tcp {
namespace {

using apps::Topology;
using apps::TopologyParams;
using apps::make_topology;
using test::run_until;

// gtest prints a parameter without a PrintTo overload as a byte dump, and
// that dump is part of the test name ctest registers. The padding is
// spelled out as zeroed members so the name holds no uninitialised bytes.
struct SweepParam {
  std::uint16_t mss_client = 1460;
  std::uint16_t mss_server = 1460;
  std::uint32_t pad0 = 0;
  std::size_t send_buf = 65536;
  std::size_t recv_buf = 65536;
  bool nagle = true;
  bool congestion_control = true;
  std::uint8_t pad1[6] = {};
  SimDuration delack = milliseconds(100);
  double loss = 0.0;
  std::size_t transfer = 100 * 1024;
  bool bidirectional = false;
  std::uint8_t pad2[7] = {};
  std::uint64_t seed = 1;
  const char* label = "";
};

std::string param_name(const ::testing::TestParamInfo<SweepParam>& info) {
  return info.param.label;
}

class TcpSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(TcpSweep, StreamIntegrity) {
  const SweepParam& p = GetParam();
  TopologyParams lp;
  lp.medium.impairment.loss = p.loss;
  lp.medium.impairment.seed = p.seed;
  lp.tcp.send_buf = p.send_buf;
  lp.tcp.recv_buf = p.recv_buf;
  lp.tcp.nagle = p.nagle;
  lp.tcp.congestion_control = p.congestion_control;
  lp.tcp.delayed_ack = p.delack;
  lp.tcp.max_rto = seconds(5);
  auto lan = make_topology(lp);
  lan->client->tcp().mutable_params().mss = p.mss_client;
  lan->primary->tcp().mutable_params().mss = p.mss_server;

  std::shared_ptr<Connection> server;
  lan->primary->tcp().listen(80, [&](std::shared_ptr<Connection> c) {
    server = std::move(c);
  });
  auto client = lan->client->tcp().connect(lan->primary->address(), 80);
  ASSERT_TRUE(run_until(lan->sim, [&] {
    return server && client->state() == TcpState::kEstablished;
  }, seconds(30)));

  const Bytes up = test::pattern_bytes(p.transfer, 21);
  const Bytes down = test::pattern_bytes(p.bidirectional ? p.transfer : 0, 22);
  Bytes got_up, got_down;
  server->on_readable = [&] { server->recv(got_up); };
  client->on_readable = [&] { client->recv(got_down); };
  client->send(up);
  if (p.bidirectional) server->send(down);

  ASSERT_TRUE(run_until(lan->sim, [&] {
    return got_up.size() == up.size() && got_down.size() == down.size();
  }, seconds(1200)))
      << "up " << got_up.size() << "/" << up.size() << ", down " << got_down.size()
      << "/" << down.size();
  EXPECT_EQ(got_up, up);
  EXPECT_EQ(got_down, down);

  // Clean close in both directions as part of the property.
  client->close();
  server->on_peer_fin = [&] { server->close(); };
  if (server->state() == TcpState::kCloseWait) server->close();
  ASSERT_TRUE(run_until(lan->sim, [&] {
    return client->state() == TcpState::kClosed &&
           server->state() == TcpState::kClosed;
  }, seconds(120)));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, TcpSweep,
    ::testing::Values(
        SweepParam{.label = "baseline"},
        SweepParam{.mss_client = 536, .label = "small_client_mss"},
        SweepParam{.mss_server = 536, .label = "small_server_mss"},
        SweepParam{.mss_client = 100, .mss_server = 1460, .label = "tiny_mss"},
        SweepParam{.send_buf = 4096, .label = "tiny_send_buf"},
        SweepParam{.recv_buf = 4096, .label = "tiny_recv_buf"},
        SweepParam{.send_buf = 2048, .recv_buf = 2048, .label = "tiny_both_bufs"},
        SweepParam{.nagle = false, .label = "nodelay"},
        SweepParam{.congestion_control = false, .label = "no_cc"},
        SweepParam{.delack = milliseconds(500), .label = "long_delack"},
        SweepParam{.delack = 0, .label = "zero_delack"},
        SweepParam{.loss = 0.02, .seed = 5, .label = "loss2"},
        SweepParam{.loss = 0.10, .transfer = 40 * 1024, .seed = 6, .label = "loss10"},
        SweepParam{.bidirectional = true, .label = "bidirectional"},
        SweepParam{.loss = 0.05, .transfer = 40 * 1024, .bidirectional = true,
                   .seed = 7, .label = "bidi_loss5"},
        SweepParam{.mss_client = 536, .recv_buf = 8192, .loss = 0.02,
                   .transfer = 60 * 1024, .seed = 8, .label = "mixed_hard"},
        SweepParam{.transfer = 1024 * 1024, .label = "large_1mb"},
        SweepParam{.transfer = 1, .label = "single_byte"},
        SweepParam{.transfer = 1460, .label = "exactly_one_mss"},
        SweepParam{.transfer = 1461, .label = "one_mss_plus_one"}),
    param_name);

// Many small writes with Nagle on/off must still produce an identical
// stream (write boundaries are not preserved, bytes are).
class WritePatternSweep : public ::testing::TestWithParam<int> {};

TEST_P(WritePatternSweep, ChunkedWritesCoalesceCorrectly) {
  const int chunk = GetParam();
  auto lan = make_topology();
  std::shared_ptr<Connection> server;
  lan->primary->tcp().listen(80, [&](std::shared_ptr<Connection> c) {
    server = std::move(c);
  });
  auto client = lan->client->tcp().connect(lan->primary->address(), 80);
  ASSERT_TRUE(run_until(lan->sim, [&] {
    return server && client->state() == TcpState::kEstablished;
  }, seconds(30)));
  const Bytes data = test::pattern_bytes(20000, 31);
  Bytes got;
  server->on_readable = [&] { server->recv(got); };
  for (std::size_t off = 0; off < data.size(); off += chunk) {
    const std::size_t n = std::min<std::size_t>(chunk, data.size() - off);
    client->send(Bytes(data.begin() + static_cast<long>(off),
                       data.begin() + static_cast<long>(off + n)));
  }
  ASSERT_TRUE(run_until(lan->sim, [&] { return got.size() == data.size(); },
                        seconds(120)));
  EXPECT_EQ(got, data);
}

INSTANTIATE_TEST_SUITE_P(Chunks, WritePatternSweep,
                         ::testing::Values(1, 7, 100, 1459, 1460, 1461, 9999));

// ----------------------------------------------------- RFC 5961 hardening
//
// Off-path RST/SYN handling, pinned exactly: an in-window-but-not-exact
// RST elicits a rate-limited challenge ACK (§3.2), only a RST at
// precisely RCV.NXT tears the connection down, and a SYN on a
// synchronized connection is always challenged, never honoured (§4.2).

struct Rfc5961Fixture : ::testing::Test {
  void SetUp() override {
    lan = make_topology();
    lan->primary->tcp().listen(80, [&](std::shared_ptr<Connection> c) {
      server = std::move(c);
    });
    client = lan->client->tcp().connect(lan->primary->address(), 80);
    ASSERT_TRUE(run_until(lan->sim, [&] {
      return server && client->state() == TcpState::kEstablished &&
             server->state() == TcpState::kEstablished;
    }, seconds(30)));
  }

  /// Injects a spoofed segment from a third host on the wire, claiming
  /// the client's address — the off-path adversary's only capability.
  void spoof(std::uint8_t flags, Seq32 seq, Seq32 ack = 0) {
    TcpSegment seg;
    seg.src_port = client->key().local_port;
    seg.dst_port = 80;
    seg.seq = seq;
    seg.flags = flags;
    if (flags & Flags::kAck) seg.ack = ack;
    seg.window = 65535;
    const ip::Ipv4 src = lan->client->address();
    const ip::Ipv4 dst = lan->primary->address();
    lan->secondary->ip().send(ip::Proto::kTcp, src, dst, seg.take_wire(src, dst));
    lan->sim.run_for(milliseconds(10));
  }

  std::uint64_t challenges() const {
    return lan->primary->obs().registry.counter_value("tcp.challenge_acks");
  }
  std::uint64_t limited() const {
    return lan->primary->obs().registry.counter_value("tcp.challenge_acks_limited");
  }

  std::unique_ptr<Topology> lan;
  std::shared_ptr<Connection> server, client;
};

TEST_F(Rfc5961Fixture, InWindowInexactRstElicitsChallengeAckNotTeardown) {
  const Seq32 rcv_nxt = server->rcv_nxt_abs();
  ASSERT_GE(server->advertised_window(), 100);

  spoof(Flags::kRst, rcv_nxt + 10);  // in window, not exact
  EXPECT_EQ(server->state(), TcpState::kEstablished);
  EXPECT_EQ(challenges(), 1u);

  // Out-of-window RST: dropped silently — no challenge, no teardown.
  spoof(Flags::kRst, rcv_nxt + server->advertised_window() + 50000);
  EXPECT_EQ(server->state(), TcpState::kEstablished);
  EXPECT_EQ(challenges(), 1u);
}

TEST_F(Rfc5961Fixture, OnlyExactRcvNxtRstTearsDown) {
  spoof(Flags::kRst, server->rcv_nxt_abs());
  EXPECT_EQ(server->state(), TcpState::kClosed);
  EXPECT_EQ(challenges(), 0u);
}

TEST_F(Rfc5961Fixture, SynOnSynchronizedConnectionIsChallengedNotHonoured) {
  const Seq32 rcv_nxt = server->rcv_nxt_abs();
  // §4.2: regardless of sequence number — exact, in-window, out-of-window.
  for (const Seq32 seq : {rcv_nxt, rcv_nxt + 17, rcv_nxt + 2'000'000u}) {
    spoof(Flags::kSyn, seq);
    EXPECT_EQ(server->state(), TcpState::kEstablished) << "seq " << seq;
  }
  EXPECT_EQ(challenges(), 3u);

  // The connection still works afterwards.
  Bytes got;
  server->on_readable = [&] { server->recv(got); };
  client->send(to_bytes("still alive"));
  ASSERT_TRUE(run_until(lan->sim, [&] { return got.size() == 11; }, seconds(10)));
}

TEST_F(Rfc5961Fixture, ChallengeAcksAreRateLimitedPerConnectionAndRefresh) {
  const auto per_conn = lan->primary->tcp().params().challenge_ack_per_conn;
  const Seq32 rcv_nxt = server->rcv_nxt_abs();
  // A burst of in-window inexact RSTs: only the per-connection budget is
  // answered inside one interval; the rest are counted as limited.
  for (std::uint32_t i = 0; i < per_conn + 5; ++i) {
    spoof(Flags::kRst, rcv_nxt + 1 + i);
  }
  EXPECT_EQ(server->state(), TcpState::kEstablished);
  EXPECT_EQ(challenges(), per_conn);
  EXPECT_EQ(limited(), 5u);

  // A new interval refreshes the budget.
  lan->sim.run_for(lan->primary->tcp().params().challenge_ack_interval);
  spoof(Flags::kRst, rcv_nxt + 1);
  EXPECT_EQ(challenges(), per_conn + 1);
}

TEST_F(Rfc5961Fixture, AckLessPayloadIsDroppedOnSynchronizedConnection) {
  // RFC 793 p.72 + §5.2 closure: payload must never bypass ACK
  // acceptability by clearing the ACK flag.
  Bytes got;
  server->on_readable = [&] { server->recv(got); };
  TcpSegment seg;
  seg.src_port = client->key().local_port;
  seg.dst_port = 80;
  seg.seq = server->rcv_nxt_abs();  // exactly in order — still dropped
  seg.flags = Flags::kPsh;          // no ACK
  seg.window = 65535;
  seg.payload = wire::PacketBuffer(Bytes(64, 0x41));
  const ip::Ipv4 src = lan->client->address();
  const ip::Ipv4 dst = lan->primary->address();
  lan->secondary->ip().send(ip::Proto::kTcp, src, dst, seg.take_wire(src, dst));
  lan->sim.run_for(milliseconds(20));
  EXPECT_TRUE(got.empty());
  EXPECT_EQ(server->state(), TcpState::kEstablished);
}

TEST_F(Rfc5961Fixture, TimeWaitFailedRecycleSynIsChallengedThroughLimiter) {
  // Drive the server into TIME_WAIT (server closes first), then offer a
  // SYN whose sequence does not advance past the old connection's — the
  // recycle must fail and the reply must be a rate-limited challenge ACK,
  // not an unconditional ACK an attacker could use as an amplifier.
  server->close();
  client->on_peer_fin = [&] { client->close(); };
  if (client->state() == TcpState::kCloseWait) client->close();
  ASSERT_TRUE(run_until(lan->sim, [&] {
    return server->state() == TcpState::kTimeWait;
  }, seconds(30)));

  const std::uint64_t before = challenges();
  spoof(Flags::kSyn, server->rcv_nxt_abs() - 100000);  // not advancing
  EXPECT_EQ(server->state(), TcpState::kTimeWait);
  EXPECT_EQ(challenges(), before + 1);
}

}  // namespace
}  // namespace tfo::tcp
