// Fault-free operation of the failover bridge (§3 and §7/§8): replicated
// handshake, merged data transfer, ACK/window minimum selection, sequence
// synchronization, and connection termination.
#include <gtest/gtest.h>

#include "failover_fixture.hpp"
#include "test_util.hpp"

namespace tfo::core {
namespace {

using test::EchoDriver;
using test::kEchoPort;
using test::make_replicated;
using test::run_until;

TEST(FailoverBasic, HandshakeEstablishesOnBothReplicas) {
  auto r = make_replicated();
  auto conn = r->client().tcp().connect(r->primary().address(), kEchoPort);
  ASSERT_TRUE(run_until(r->sim(), [&] {
    return conn->state() == tcp::TcpState::kEstablished;
  }));
  // Both replicas hold an ESTABLISHED connection for this client.
  const tcp::ConnKey pk{r->primary().address(), kEchoPort,
                        r->client().address(), conn->key().local_port};
  const tcp::ConnKey sk{r->secondary().address(), kEchoPort,
                        r->client().address(), conn->key().local_port};
  r->sim().run_for(milliseconds(50));
  auto pc = r->primary().tcp().find(pk);
  auto sc = r->secondary().tcp().find(sk);
  ASSERT_NE(pc, nullptr);
  ASSERT_NE(sc, nullptr);
  EXPECT_EQ(pc->state(), tcp::TcpState::kEstablished);
  EXPECT_EQ(sc->state(), tcp::TcpState::kEstablished);
  EXPECT_EQ(r->group->primary_bridge().connection_count(), 1u);
}

TEST(FailoverBasic, ClientSeesSecondarySequenceSpace) {
  auto r = make_replicated();
  // Force distinguishable ISNs.
  r->primary().tcp().set_next_isn(1000000);
  r->secondary().tcp().set_next_isn(5000000);
  auto conn = r->client().tcp().connect(r->primary().address(), kEchoPort);
  ASSERT_TRUE(run_until(r->sim(), [&] {
    return conn->state() == tcp::TcpState::kEstablished;
  }));
  conn->send(to_bytes("hello"));
  Bytes got;
  conn->on_readable = [&] { conn->recv(got); };
  ASSERT_TRUE(run_until(r->sim(), [&] { return got.size() == 5; }));
  EXPECT_EQ(to_string(got), "hello");
  // §3.3: the client's connection is synchronized to S's sequence numbers.
  const tcp::ConnKey sk{r->secondary().address(), kEchoPort,
                        r->client().address(), conn->key().local_port};
  auto sc = r->secondary().tcp().find(sk);
  ASSERT_NE(sc, nullptr);
  EXPECT_EQ(conn->bytes_received_total(), sc->bytes_sent_total());
}

TEST(FailoverBasic, EchoRoundTripSmall) {
  auto r = make_replicated();
  EchoDriver d(r->client(), r->primary().address(), kEchoPort, 64, 64);
  ASSERT_TRUE(run_until(r->sim(), [&] { return d.done(); }));
  EXPECT_TRUE(d.verify());
  // Both replicas processed the same request.
  EXPECT_EQ(r->echo_p->bytes_echoed(), 64u);
  EXPECT_EQ(r->echo_s->bytes_echoed(), 64u);
}

TEST(FailoverBasic, EchoLargeStream) {
  auto r = make_replicated();
  EchoDriver d(r->client(), r->primary().address(), kEchoPort, 300 * 1024, 8192);
  ASSERT_TRUE(run_until(r->sim(), [&] { return d.done(); }, seconds(300)));
  EXPECT_TRUE(d.verify());
  EXPECT_EQ(r->echo_p->bytes_echoed(), 300u * 1024);
  EXPECT_EQ(r->echo_s->bytes_echoed(), 300u * 1024);
}

TEST(FailoverBasic, MergedSynUsesMinimumMss) {
  apps::TopologyParams lp;
  auto r = make_replicated(lp);
  r->secondary().tcp().mutable_params().mss = 700;  // asymmetric replicas
  auto conn = r->client().tcp().connect(r->primary().address(), kEchoPort);
  ASSERT_TRUE(run_until(r->sim(), [&] {
    return conn->state() == tcp::TcpState::kEstablished;
  }));
  EXPECT_EQ(conn->effective_mss(), 700u);
}

TEST(FailoverBasic, DifferentReplicaSegmentationStillMerges) {
  // §3.2: "one of the server's TCP layer might split the reply into
  // multiple TCP segments, whereas the other ... might pack the entire
  // reply into a single segment." Different MSS values force exactly
  // that; the byte-granular merge must still produce a correct stream.
  auto r = make_replicated();
  r->secondary().tcp().mutable_params().mss = 536;
  EchoDriver d(r->client(), r->primary().address(), kEchoPort, 64 * 1024, 4096);
  ASSERT_TRUE(run_until(r->sim(), [&] { return d.done(); }, seconds(120)));
  EXPECT_TRUE(d.verify());
}

TEST(FailoverBasic, PrimaryNeverAcksBeyondSecondary) {
  // Requirement 2 (§2): the primary must not acknowledge a client segment
  // until the secondary has acknowledged it. With the secondary's ACKs
  // observable at the bridge, the client-visible ACK is the minimum.
  auto r = make_replicated();
  // Slow the secondary's delayed-ACK down so its ACKs lag.
  r->secondary().tcp().mutable_params().delayed_ack = milliseconds(400);

  auto conn = r->client().tcp().connect(r->primary().address(), kEchoPort,
                                        {.nodelay = true});
  ASSERT_TRUE(run_until(r->sim(), [&] {
    return conn->state() == tcp::TcpState::kEstablished;
  }));
  const tcp::ConnKey sk{r->secondary().address(), kEchoPort,
                        r->client().address(), conn->key().local_port};

  conn->send(test::pattern_bytes(100, 1));
  // Whenever the client's data is fully acknowledged, the secondary must
  // have received all of it.
  bool checked = false;
  ASSERT_TRUE(run_until(r->sim(), [&] {
    auto sc = r->secondary().tcp().find(sk);
    if (conn->send_buffer_used() == 0 && conn->bytes_sent_total() == 100) {
      if (sc) {
        EXPECT_EQ(sc->bytes_received_total(), 100u);
      }
      checked = true;
      return true;
    }
    return false;
  }, seconds(30)));
  EXPECT_TRUE(checked);
}

TEST(FailoverBasic, WindowIsMinimumOfReplicas) {
  apps::TopologyParams lp;
  auto r = make_replicated(lp, {}, test::no_app);
  // Secondary has a tiny receive buffer and a non-reading app.
  r->secondary().tcp().mutable_params().recv_buf = 2048;
  std::shared_ptr<tcp::Connection> sp, ss;
  r->primary().tcp().listen(kEchoPort, [&](auto c) { sp = c; });
  r->secondary().tcp().listen(kEchoPort, [&](auto c) { ss = c; });

  auto conn = r->client().tcp().connect(r->primary().address(), kEchoPort);
  ASSERT_TRUE(run_until(r->sim(), [&] {
    return conn->state() == tcp::TcpState::kEstablished && sp && ss;
  }));
  // Client pushes more than the secondary's buffer; since neither app
  // reads, transmission must stall near the *smaller* buffer size.
  conn->send(test::pattern_bytes(32 * 1024, 3));
  r->sim().run_for(seconds(5));
  EXPECT_LE(conn->bytes_sent_total(), 2048u + 1500u);
  EXPECT_GE(conn->bytes_sent_total(), 1000u);
}

TEST(FailoverBasic, ClientInitiatedCloseCompletesFourWay) {
  auto r = make_replicated();
  EchoDriver d(r->client(), r->primary().address(), kEchoPort, 1024, 1024);
  ASSERT_TRUE(run_until(r->sim(), [&] { return d.done(); }));
  d.connection().close();
  // EchoServer closes in response on both replicas; the client must reach
  // a fully closed state (TIME_WAIT then CLOSED).
  ASSERT_TRUE(run_until(r->sim(), [&] {
    return d.connection().state() == tcp::TcpState::kClosed;
  }, seconds(60)));
  EXPECT_EQ(d.close_reason(), tcp::CloseReason::kGraceful);
  // Bridge state is eventually torn down (§8).
  ASSERT_TRUE(run_until(r->sim(), [&] {
    return r->group->primary_bridge().connection_count() == 0;
  }, seconds(30)));
  // And both replicas' TCP connections are gone.
  ASSERT_TRUE(run_until(r->sim(), [&] {
    return r->primary().tcp().connection_count() == 0 &&
           r->secondary().tcp().connection_count() == 0;
  }, seconds(30)));
}

TEST(FailoverBasic, ServerInitiatedCloseCompletes) {
  auto r = make_replicated({}, {}, test::no_app);
  // Servers that send a fixed reply then close.
  std::vector<std::shared_ptr<tcp::Connection>> held;
  auto serve = [&](apps::Host& h) {
    h.tcp().listen(kEchoPort, [&held](std::shared_ptr<tcp::Connection> c) {
      held.push_back(c);
      c->send(to_bytes("goodbye"));
      c->close();
    });
  };
  serve(r->primary());
  serve(r->secondary());

  auto conn = r->client().tcp().connect(r->primary().address(), kEchoPort);
  Bytes got;
  bool peer_closed = false;
  conn->on_readable = [&] { conn->recv(got); };
  conn->on_peer_fin = [&] {
    peer_closed = true;
    conn->close();
  };
  ASSERT_TRUE(run_until(r->sim(), [&] {
    return peer_closed && got.size() == 7 &&
           conn->state() == tcp::TcpState::kClosed;
  }, seconds(60)));
  EXPECT_EQ(to_string(got), "goodbye");
  ASSERT_TRUE(run_until(r->sim(), [&] {
    return r->group->primary_bridge().connection_count() == 0;
  }, seconds(30)));
}

TEST(FailoverBasic, HalfCloseServerKeepsSending) {
  // §8: after the client's FIN the server side may keep transmitting; the
  // bridge keeps merging in the half-closed state.
  auto r = make_replicated({}, {}, test::no_app);
  const Bytes big = apps::deterministic_payload(100 * 1024, 9);
  std::vector<std::shared_ptr<tcp::Connection>> held;
  auto serve = [&](apps::Host& h) {
    h.tcp().listen(kEchoPort, [&held, &big](std::shared_ptr<tcp::Connection> c) {
      held.push_back(c);
      auto* raw = c.get();
      raw->on_peer_fin = [raw, &big] {
        raw->send(big);
        raw->close();
      };
    });
  };
  serve(r->primary());
  serve(r->secondary());

  auto conn = r->client().tcp().connect(r->primary().address(), kEchoPort);
  ASSERT_TRUE(run_until(r->sim(), [&] {
    return conn->state() == tcp::TcpState::kEstablished;
  }));
  conn->close();  // half-close: client->server direction shuts down
  Bytes got;
  conn->on_readable = [&] { conn->recv(got); };
  ASSERT_TRUE(run_until(r->sim(), [&] { return got.size() == big.size(); },
                        seconds(120)));
  EXPECT_EQ(got, big);
  ASSERT_TRUE(run_until(r->sim(), [&] {
    return conn->state() == tcp::TcpState::kClosed;
  }, seconds(60)));
}

TEST(FailoverBasic, MultipleConcurrentConnections) {
  auto r = make_replicated();
  std::vector<std::unique_ptr<EchoDriver>> drivers;
  for (int i = 0; i < 8; ++i) {
    drivers.push_back(std::make_unique<EchoDriver>(
        r->client(), r->primary().address(), kEchoPort, 20000, 2000));
  }
  ASSERT_TRUE(run_until(r->sim(), [&] {
    for (auto& d : drivers) {
      if (!d->done()) return false;
    }
    return true;
  }, seconds(300)));
  for (auto& d : drivers) EXPECT_TRUE(d->verify());
  EXPECT_EQ(r->group->primary_bridge().connection_count(), 8u);
}

TEST(FailoverBasic, NonFailoverPortBypassesBridge) {
  auto r = make_replicated();
  apps::EchoServer plain(r->primary().tcp(), 9999);  // not in the port set
  auto conn = r->client().tcp().connect(r->primary().address(), 9999);
  Bytes got;
  conn->on_readable = [&] { conn->recv(got); };
  conn->on_established = [&] { conn->send(to_bytes("plain")); };
  ASSERT_TRUE(run_until(r->sim(), [&] { return got.size() == 5; }));
  EXPECT_EQ(r->group->primary_bridge().connection_count(), 0u);
  EXPECT_EQ(r->group->primary_bridge().merged_segments_sent(), 0u);
}

TEST(FailoverBasic, SocketOptionMethodMarksConnection) {
  // §7 method 1: no port configured; both replicas open their listener
  // with the failover socket option instead.
  core::FailoverConfig cfg;
  cfg.ports = {1};  // dummy so the fixture doesn't install the echo port
  auto r = make_replicated({}, cfg, test::no_app);
  apps::EchoServer ep(r->primary().tcp(), 8080, {.failover = true});
  apps::EchoServer es(r->secondary().tcp(), 8080, {.failover = true});
  EchoDriver d(r->client(), r->primary().address(), 8080, 50000, 5000);
  ASSERT_TRUE(run_until(r->sim(), [&] { return d.done(); }, seconds(120)));
  EXPECT_TRUE(d.verify());
  EXPECT_EQ(ep.bytes_echoed(), 50000u);
  EXPECT_EQ(es.bytes_echoed(), 50000u);
  EXPECT_GT(r->group->primary_bridge().merged_segments_sent(), 0u);
}

TEST(FailoverBasic, SecondarySnoopsViaPromiscuousMode) {
  auto r = make_replicated();
  EXPECT_TRUE(r->secondary().nic().promiscuous());
  EchoDriver d(r->client(), r->primary().address(), kEchoPort, 1000, 1000);
  ASSERT_TRUE(run_until(r->sim(), [&] { return d.done(); }));
  EXPECT_GT(r->group->secondary_bridge().datagrams_translated(), 0u);
  EXPECT_GT(r->group->secondary_bridge().segments_diverted(), 0u);
}

}  // namespace
}  // namespace tfo::core
