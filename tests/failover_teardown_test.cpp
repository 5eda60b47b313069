// §8 connection-termination corner cases at system level: stray FIN
// retransmissions after the bridge deleted its per-connection state,
// tombstone lifecycle, handshake-watch reaping of connections whose
// handshake never completes, closes racing failovers — plus end-to-end replica
// divergence detection with genuinely non-deterministic applications.
#include <gtest/gtest.h>

#include "apps/trace.hpp"
#include "failover_fixture.hpp"
#include "tcp/segment.hpp"

namespace tfo::core {
namespace {

using test::kEchoPort;
using test::make_replicated;
using test::run_until;

/// Runs a complete echo session through close, so the bridge tombstones
/// the connection. Returns the connection key (client view).
tcp::ConnKey run_full_session(test::Replicated& r) {
  test::EchoDriver d(r.client(), r.primary().address(), kEchoPort, 2000, 500);
  EXPECT_TRUE(run_until(r.sim(), [&] { return d.done(); }, seconds(60)));
  const tcp::ConnKey key{r.primary().address(), kEchoPort, r.client().address(),
                         d.connection().key().local_port};
  d.connection().close();
  EXPECT_TRUE(run_until(r.sim(), [&] {
    return d.connection().state() == tcp::TcpState::kClosed &&
           r.group->primary_bridge().connection_count() == 0;
  }, seconds(60)));
  return key;
}

TEST(Teardown, BridgeTombstonesAfterFullClose) {
  auto r = make_replicated();
  run_full_session(*r);
  EXPECT_EQ(r->group->primary_bridge().connection_count(), 0u);
  EXPECT_GE(r->group->primary_bridge().tombstone_count(), 1u);
}

TEST(Teardown, TombstoneExpiresEventually) {
  auto r = make_replicated();
  run_full_session(*r);
  ASSERT_GE(r->group->primary_bridge().tombstone_count(), 1u);
  // Tombstones live 4*MSL (2s at the default 500ms MSL).
  r->sim().run_for(seconds(10));
  EXPECT_EQ(r->group->primary_bridge().tombstone_count(), 0u);
}

TEST(Teardown, ReplicasGivingUpOnAVanishedClientDrainTheBridge) {
  // The client dies mid-transfer. Both replicas exhaust their
  // retransmissions and reset the connection (BSD's tcp_drop()); the
  // primary's RST takes the bridge's reset path, so the bridge
  // tombstones the connection instead of holding it forever.
  auto r = make_replicated();
  test::EchoDriver d(r->client(), r->primary().address(), kEchoPort, 200 * 1024);
  ASSERT_TRUE(run_until(r->sim(), [&] { return d.received().size() > 3000; }));
  r->client().fail();
  ASSERT_TRUE(run_until(r->sim(), [&] {
    return r->primary().tcp().connection_count() == 0 &&
           r->secondary().tcp().connection_count() == 0;
  }, seconds(3600)));
  r->sim().run_for(4 * r->primary().tcp().params().msl);  // one tombstone TTL
  EXPECT_EQ(r->group->primary_bridge().connection_count(), 0u);
  EXPECT_EQ(r->group->primary_bridge().tombstone_count(), 0u);
}

TEST(Teardown, StrayClientFinIsAckedNotReset) {
  // §8: "When the primary server bridge receives a FIN sent by the client
  // C after it removed all internal data structures associated with the
  // connection, it creates an ACK and sends the ACK back to C."
  auto r = make_replicated();
  const tcp::ConnKey key = run_full_session(*r);

  apps::FrameTracer at_client(r->sim(), r->client().nic());
  // Craft the client's FIN retransmission (its LAST segment, re-sent as
  // if the final ACK had been lost). Sequence numbers need not be exact:
  // the bridge answers from the segment itself.
  tcp::TcpSegment fin;
  fin.src_port = key.remote_port;  // the client's port
  fin.dst_port = key.local_port;
  fin.seq = 123456;
  fin.ack = 654321;
  fin.flags = tcp::Flags::kFin | tcp::Flags::kAck;
  fin.window = 65535;
  r->client().ip().send(ip::Proto::kTcp, r->client().address(),
                        r->primary().address(),
                        fin.take_wire(r->client().address(), r->primary().address()));
  r->sim().run_for(milliseconds(50));

  // The client got a pure ACK covering the FIN, and no RST.
  EXPECT_GE(at_client.count([&](const apps::TraceRecord& rec) {
    return rec.has_tcp && rec.src_ip == r->primary().address() &&
           (rec.flags & tcp::Flags::kAck) && !(rec.flags & tcp::Flags::kRst) &&
           rec.ack == seq_add(123456, 1);
  }), 1u);
  EXPECT_EQ(at_client.count([](const apps::TraceRecord& rec) {
    return rec.has_tcp && (rec.flags & tcp::Flags::kRst);
  }), 0u);
  EXPECT_GE(r->group->primary_bridge().stray_fin_acks(), 1u);
}

TEST(Teardown, StraySecondaryFinIsAckedBackToSecondary) {
  // §8, other direction: the secondary's TCP retransmits its FIN after
  // the bridge tore down; the bridge manufactures the client's ACK.
  auto r = make_replicated();
  const tcp::ConnKey key = run_full_session(*r);

  apps::FrameTracer at_secondary(r->sim(), r->secondary().nic());
  tcp::TcpSegment fin;
  fin.src_port = key.local_port;   // server port
  fin.dst_port = key.remote_port;  // client port
  fin.seq = 99999;
  fin.ack = 11111;
  fin.flags = tcp::Flags::kFin | tcp::Flags::kAck;
  fin.orig_dst = key.remote_ip;  // diverted-segment marking
  r->secondary().ip().send(
      ip::Proto::kTcp, r->secondary().address(), r->primary().address(),
      fin.take_wire(r->secondary().address(), r->primary().address()));
  r->sim().run_for(milliseconds(50));

  // The secondary received an ACK that *appears to come from the client*.
  EXPECT_GE(at_secondary.count([&](const apps::TraceRecord& rec) {
    return rec.has_tcp && rec.src_ip == key.remote_ip &&
           rec.dst_ip == r->secondary().address() &&
           (rec.flags & tcp::Flags::kAck) && rec.ack == seq_add(99999, 1);
  }), 1u);
}

TEST(Teardown, StrayFinReplySequenceComesFromSendersAck) {
  // The manufactured ACK is unsolicited, so its sequence number must sit
  // in the FIN sender's receive window. The only reconstructable
  // in-window value is the stray FIN's own ACK field (the sender's
  // RCV.NXT) — a seq=0 fabrication would be silently discarded by a
  // conforming peer.
  auto r = make_replicated();
  const tcp::ConnKey key = run_full_session(*r);

  apps::FrameTracer at_client(r->sim(), r->client().nic());
  tcp::TcpSegment fin;
  fin.src_port = key.remote_port;
  fin.dst_port = key.local_port;
  fin.seq = 123456;
  fin.ack = 654321;
  fin.flags = tcp::Flags::kFin | tcp::Flags::kAck;
  fin.window = 65535;
  r->client().ip().send(ip::Proto::kTcp, r->client().address(),
                        r->primary().address(),
                        fin.take_wire(r->client().address(), r->primary().address()));
  r->sim().run_for(milliseconds(50));

  EXPECT_GE(at_client.count([&](const apps::TraceRecord& rec) {
    return rec.has_tcp && rec.src_ip == r->primary().address() &&
           (rec.flags & tcp::Flags::kAck) && rec.seq == 654321 &&
           rec.ack == seq_add(123456, 1);
  }), 1u);
}

TEST(Teardown, StrayClientFinWithoutAckIsSuppressed) {
  // A stray FIN with no ACK flag gives the bridge nothing to anchor an
  // in-window reply on: it must stay silent (no fabricated seq=0 ACK,
  // and certainly no RST) and count the suppression.
  auto r = make_replicated();
  const tcp::ConnKey key = run_full_session(*r);

  apps::FrameTracer at_client(r->sim(), r->client().nic());
  tcp::TcpSegment fin;
  fin.src_port = key.remote_port;
  fin.dst_port = key.local_port;
  fin.seq = 123456;
  fin.flags = tcp::Flags::kFin;  // no ACK: nothing usable for a reply
  fin.window = 65535;
  r->client().ip().send(ip::Proto::kTcp, r->client().address(),
                        r->primary().address(),
                        fin.take_wire(r->client().address(), r->primary().address()));
  r->sim().run_for(milliseconds(50));

  EXPECT_EQ(at_client.count([&](const apps::TraceRecord& rec) {
    return rec.has_tcp && rec.src_ip == r->primary().address() &&
           rec.dst_port == key.remote_port;
  }), 0u);
  EXPECT_GE(r->primary().obs().registry.counter_value("bridge.stray_fin_suppressed"),
            1u);
  EXPECT_EQ(r->group->primary_bridge().stray_fin_acks(), 0u);
}

TEST(Teardown, StraySecondaryFinWithoutAckIsSuppressed) {
  // Same rule on the diverted path: the secondary's FIN retransmission
  // without an ACK field gets no manufactured reply.
  auto r = make_replicated();
  const tcp::ConnKey key = run_full_session(*r);

  apps::FrameTracer at_secondary(r->sim(), r->secondary().nic());
  tcp::TcpSegment fin;
  fin.src_port = key.local_port;   // server port
  fin.dst_port = key.remote_port;  // client port
  fin.seq = 99999;
  fin.flags = tcp::Flags::kFin;  // no ACK
  fin.orig_dst = key.remote_ip;
  r->secondary().ip().send(
      ip::Proto::kTcp, r->secondary().address(), r->primary().address(),
      fin.take_wire(r->secondary().address(), r->primary().address()));
  r->sim().run_for(milliseconds(50));

  EXPECT_EQ(at_secondary.count([&](const apps::TraceRecord& rec) {
    return rec.has_tcp && rec.dst_ip == r->secondary().address() &&
           rec.dst_port == key.local_port;
  }), 0u);
  EXPECT_GE(r->primary().obs().registry.counter_value("bridge.stray_fin_suppressed"),
            1u);
}

TEST(Teardown, CloseRacingPrimaryCrashStillCompletes) {
  auto r = make_replicated();
  test::EchoDriver d(r->client(), r->primary().address(), kEchoPort, 4000, 1000);
  ASSERT_TRUE(run_until(r->sim(), [&] { return d.done(); }, seconds(60)));
  // Close and crash at the same instant: the FIN handshake must finish
  // against the surviving replica.
  d.connection().close();
  r->group->crash_primary();
  ASSERT_TRUE(run_until(r->sim(), [&] {
    return d.connection().state() == tcp::TcpState::kClosed;
  }, seconds(120)));
  EXPECT_EQ(d.close_reason(), tcp::CloseReason::kGraceful);
}

TEST(Teardown, CloseRacingSecondaryCrashStillCompletes) {
  auto r = make_replicated();
  test::EchoDriver d(r->client(), r->primary().address(), kEchoPort, 4000, 1000);
  ASSERT_TRUE(run_until(r->sim(), [&] { return d.done(); }, seconds(60)));
  d.connection().close();
  r->group->crash_secondary();
  ASSERT_TRUE(run_until(r->sim(), [&] {
    return d.connection().state() == tcp::TcpState::kClosed;
  }, seconds(120)));
  EXPECT_EQ(d.close_reason(), tcp::CloseReason::kGraceful);
}

TEST(Teardown, ManySequentialSessionsLeaveNoResidue) {
  auto r = make_replicated();
  for (int i = 0; i < 10; ++i) {
    test::EchoDriver d(r->client(), r->primary().address(), kEchoPort, 1000, 500);
    ASSERT_TRUE(run_until(r->sim(), [&] { return d.done(); }, seconds(60))) << i;
    d.connection().close();
    ASSERT_TRUE(run_until(r->sim(), [&] {
      return d.connection().state() == tcp::TcpState::kClosed;
    }, seconds(60))) << i;
  }
  ASSERT_TRUE(run_until(r->sim(), [&] {
    return r->group->primary_bridge().connection_count() == 0;
  }, seconds(30)));
  // All server-side TCP state eventually drains (TIME_WAIT etc.).
  ASSERT_TRUE(run_until(r->sim(), [&] {
    return r->primary().tcp().connection_count() == 0 &&
           r->secondary().tcp().connection_count() == 0;
  }, seconds(60)));
}

// The replicated form of TimeWaitFixture.TupleReuseRecyclesTimeWait: the
// servers close first, so both replicas sit in TIME_WAIT and the primary
// bridge holds a tombstone when the client reconnects on the same 4-tuple.
// The new SYN is one both TCPs recycle the tuple for, so neither the
// tombstone nor the secondary's snoop gate may drop it: the connection
// establishes at once instead of after a 1 s SYN retransmission.
TEST(Teardown, TupleReuseRecyclesTimeWaitOnBothReplicas) {
  auto r = make_replicated({}, {}, test::no_app);
  std::vector<std::shared_ptr<tcp::Connection>> served;
  for (apps::Host* h : {&r->primary(), &r->secondary()}) {
    h->tcp().listen(kEchoPort, [&served](std::shared_ptr<tcp::Connection> c) {
      c->close();  // the server closes first and ends in TIME_WAIT
      served.push_back(std::move(c));
    });
  }
  r->client().tcp().set_ephemeral_range(50000, 50000);
  PrimaryBridge& bridge = r->group->primary_bridge();

  const auto session = [&] {
    auto c = r->client().tcp().connect(r->primary().address(), kEchoPort);
    bool closed = false;
    c->on_peer_fin = [raw = c.get()] { raw->close(); };
    c->on_closed = [&closed](tcp::CloseReason why) {
      closed = why == tcp::CloseReason::kGraceful;
    };
    const SimTime start = r->sim().now();
    EXPECT_TRUE(run_until(r->sim(), [&] {
      return c->state() != tcp::TcpState::kSynSent;
    }, seconds(10)));
    const SimDuration setup = static_cast<SimDuration>(r->sim().now() - start);
    EXPECT_TRUE(run_until(r->sim(), [&] { return closed; }, seconds(10)));
    // Port release is deferred; settle one tick so the port is reusable.
    r->sim().run_for(milliseconds(1));
    return setup;
  };

  session();
  ASSERT_EQ(served.size(), 2u);
  for (const auto& s : served) EXPECT_EQ(s->state(), tcp::TcpState::kTimeWait);
  ASSERT_EQ(bridge.tombstone_count(), 1u);

  const SimDuration setup = session();
  EXPECT_LT(setup, milliseconds(50));  // the SYN RTO is 1 s
  ASSERT_EQ(served.size(), 4u);
  for (apps::Host* h : {&r->primary(), &r->secondary()}) {
    EXPECT_EQ(h->obs().registry.counter_value("tcp.time_wait_recycled"), 1u)
        << h->name();
    EXPECT_EQ(h->obs().registry.counter_value("bridge.spoof_dropped"), 0u)
        << h->name();
  }
  EXPECT_EQ(bridge.divergences(), 0u);
}

// --------------------------------------------------------- expiry queue
// Tombstones and handshake watches share one deadline-ordered queue; every
// entry lives exactly 4*MSL from the instant it was made.

using test::inject_client_syn;

/// Runs until `bridge` holds `key`; returns that instant (the creation
/// time its handshake watch counts from).
SimTime run_until_tracked(sim::Simulator& sim, PrimaryBridge& bridge,
                          const tcp::ConnKey& key) {
  EXPECT_TRUE(run_until(sim, [&] { return bridge.find(key) != nullptr; },
                        seconds(1)));
  return sim.now();
}

std::uint64_t embryonic_reaped(apps::Host& host) {
  return host.obs().registry.counter_value("bridge.embryonic_reaped");
}

TEST(ExpiryQueue, SynLostToBacklogOverflowIsReapedAfterFourMsl) {
  apps::TopologyParams lp;
  lp.tcp.listen_backlog = 0;  // every SYN overflows, on both replicas
  auto r = make_replicated(lp);
  PrimaryBridge& bridge = r->group->primary_bridge();
  const SimDuration ttl = 4 * lp.tcp.msl;

  const tcp::ConnKey key =
      inject_client_syn(r->client(), r->primary().address(), kEchoPort, 40000);
  const SimTime created = run_until_tracked(r->sim(), bridge, key);
  r->sim().run_until(created + static_cast<SimTime>(ttl) - 1);
  EXPECT_GE(r->primary().obs().registry.counter_value("tcp.listen_overflows"), 1u);
  EXPECT_NE(bridge.find(key), nullptr);
  EXPECT_EQ(embryonic_reaped(r->primary()), 0u);

  r->sim().run_until(created + static_cast<SimTime>(ttl));
  EXPECT_EQ(bridge.find(key), nullptr);
  EXPECT_EQ(embryonic_reaped(r->primary()), 1u);
  EXPECT_EQ(bridge.connection_count(), 0u);
}

TEST(ExpiryQueue, HandshakenConnectionIsNeverReaped) {
  auto r = make_replicated();
  test::EchoDriver d(r->client(), r->primary().address(), kEchoPort, 2000, 500);
  ASSERT_TRUE(run_until(r->sim(), [&] { return d.done(); }, seconds(60)));
  // Idle well past the handshake deadline with the connection still open.
  r->sim().run_for(3 * 4 * r->primary().tcp().params().msl);
  EXPECT_EQ(r->group->primary_bridge().connection_count(), 1u);
  EXPECT_EQ(embryonic_reaped(r->primary()), 0u);
  EXPECT_NE(r->group->primary_bridge().find(tcp::ConnKey{
                r->primary().address(), kEchoPort, r->client().address(),
                d.connection().key().local_port}),
            nullptr);
}

TEST(ExpiryQueue, KeyTombstonedTwiceExpiresAtTheLaterDeadline) {
  auto r = make_replicated();
  PrimaryBridge& bridge = r->group->primary_bridge();
  const SimTime ttl = static_cast<SimTime>(4 * r->primary().tcp().params().msl);
  const tcp::ConnKey key = run_full_session(*r);
  const auto& timeline = r->primary().obs().timeline;
  const auto created = timeline.filter(obs::EventKind::kTombstoneCreated);
  ASSERT_EQ(created.size(), 1u);
  const SimTime first = created.front().t;

  // Tombstone the same key again half a TTL later.
  r->sim().run_until(first + ttl / 2);
  bridge.fully_closed(key);
  const SimTime second = r->sim().now();

  r->sim().run_until(first + ttl);
  EXPECT_EQ(bridge.tombstone_count(), 1u) << "expired at the superseded deadline";
  EXPECT_TRUE(timeline.filter(obs::EventKind::kTombstoneExpired).empty());

  r->sim().run_until(second + ttl);
  EXPECT_EQ(bridge.tombstone_count(), 0u);
  const auto expired = timeline.filter(obs::EventKind::kTombstoneExpired);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired.front().t, second + ttl);
  EXPECT_TRUE(expired.front().conn == key);
}

TEST(ExpiryQueue, RekeyedHandshakeWatchKeepsItsDeadline) {
  apps::TopologyParams tp{.seed = 14, .hops = 1};
  tp.tcp.listen_backlog = 0;  // the handshake never completes
  auto r = make_replicated(tp);
  auto& mob = r->topo;
  PrimaryBridge& bridge = r->group->primary_bridge();
  const SimTime ttl = static_cast<SimTime>(4 * tp.tcp.msl);

  const tcp::ConnKey old_key =
      inject_client_syn(*mob->client, mob->primary->address(), kEchoPort, 40000);
  const SimTime created = run_until_tracked(mob->sim, bridge, old_key);

  // The client moves halfway through the watch.
  mob->sim.run_until(created + ttl / 2);
  const ip::Ipv4 moved_to = ip::Ipv4::parse(apps::Topology::kClientAddrB);
  bridge.rekey_remote(old_key, moved_to);
  tcp::ConnKey new_key = old_key;
  new_key.remote_ip = moved_to;
  ASSERT_NE(bridge.find(new_key), nullptr);
  EXPECT_EQ(bridge.find(old_key), nullptr);

  mob->sim.run_until(created + ttl - 1);
  EXPECT_NE(bridge.find(new_key), nullptr);
  mob->sim.run_until(created + ttl);
  EXPECT_EQ(bridge.find(new_key), nullptr);
  EXPECT_EQ(embryonic_reaped(*mob->primary), 1u);
  EXPECT_EQ(bridge.connection_count(), 0u);
}

// ------------------------------------------------------------ divergence

/// A deliberately NON-deterministic server: replies include a per-host
/// tag, so the replicas' streams differ — the failure mode the paper
/// excludes by assumption and this implementation detects.
class TaggedEchoServer {
 public:
  TaggedEchoServer(tcp::TcpLayer& tcp, std::uint16_t port, std::string tag)
      : tag_(std::move(tag)) {
    tcp.listen(port, [this](std::shared_ptr<tcp::Connection> c) {
      auto* raw = c.get();
      conns_[raw] = c;
      raw->on_readable = [this, raw] {
        Bytes data;
        raw->recv(data);
        Bytes reply = to_bytes(tag_);
        append(reply, data);
        raw->send(std::move(reply));
      };
      raw->on_closed = [this, raw](tcp::CloseReason) { conns_.erase(raw); };
    });
  }

 private:
  std::string tag_;
  std::unordered_map<tcp::Connection*, std::shared_ptr<tcp::Connection>> conns_;
};

TEST(Divergence, NonDeterministicRepliesAreDetectedAndReset) {
  auto r = make_replicated({}, {}, test::no_app);
  TaggedEchoServer bad_p(r->primary().tcp(), kEchoPort, "P!");
  TaggedEchoServer bad_s(r->secondary().tcp(), kEchoPort, "S!");

  auto conn = r->client().tcp().connect(r->primary().address(), kEchoPort,
                                        {.nodelay = true});
  bool reset = false;
  conn->on_closed = [&](tcp::CloseReason reason) {
    reset = (reason == tcp::CloseReason::kReset);
  };
  conn->on_established = [&] { conn->send(to_bytes("which replica am I?")); };
  ASSERT_TRUE(run_until(r->sim(), [&] { return reset; }, seconds(60)));
  EXPECT_EQ(r->group->primary_bridge().divergences(), 1u);
  // The client was reset — *never* given a corrupted byte stream.
  EXPECT_EQ(conn->bytes_received_total(), 0u);
}

TEST(Divergence, DifferentReplyLengthsDetectedAtFinMismatch) {
  // Identical prefix, one replica appends a tail, both close after the
  // reply. Byte comparison alone cannot flag a pure length difference —
  // the divergent tail simply never matches — but the replicas' FIN
  // positions disagree, and that is detected.
  auto r = make_replicated({}, {}, test::no_app);
  class OneShotServer {
   public:
    OneShotServer(tcp::TcpLayer& tcp, std::uint16_t port, std::string suffix)
        : suffix_(std::move(suffix)) {
      tcp.listen(port, [this](std::shared_ptr<tcp::Connection> c) {
        auto* raw = c.get();
        conns_[raw] = c;
        raw->on_readable = [this, raw] {
          Bytes data;
          raw->recv(data);
          append(data, to_bytes(suffix_));
          raw->send(std::move(data));
          raw->close();  // reply length differences surface as FIN offsets
        };
        raw->on_closed = [this, raw](tcp::CloseReason) { conns_.erase(raw); };
      });
    }
   private:
    std::string suffix_;
    std::unordered_map<tcp::Connection*, std::shared_ptr<tcp::Connection>> conns_;
  };
  OneShotServer bad_p(r->primary().tcp(), kEchoPort, "");
  OneShotServer bad_s(r->secondary().tcp(), kEchoPort, "-tail");

  auto conn = r->client().tcp().connect(r->primary().address(), kEchoPort,
                                        {.nodelay = true});
  conn->on_established = [&] { conn->send(to_bytes("abc")); };
  ASSERT_TRUE(run_until(r->sim(), [&] {
    return r->group->primary_bridge().divergences() > 0;
  }, seconds(60)));
  EXPECT_GE(r->group->primary_bridge().divergences(), 1u);
}

TEST(Divergence, ResetCarriesInWindowSequence) {
  // The divergence RST is unsolicited, so RFC 793 requires its sequence
  // number to be the client-facing SND.NXT — the client silently discards
  // out-of-window resets (the simulated client enforces this), so a
  // seq=0 RST would leave it hanging until its own timers give up.
  auto r = make_replicated({}, {}, test::no_app);
  TaggedEchoServer bad_p(r->primary().tcp(), kEchoPort, "P!");
  TaggedEchoServer bad_s(r->secondary().tcp(), kEchoPort, "S!");

  apps::FrameTracer at_client(r->sim(), r->client().nic());
  apps::FrameTracer at_primary(r->sim(), r->primary().nic());
  auto conn = r->client().tcp().connect(r->primary().address(), kEchoPort,
                                        {.nodelay = true});
  bool reset = false;
  conn->on_closed = [&](tcp::CloseReason reason) {
    reset = (reason == tcp::CloseReason::kReset);
  };
  conn->on_established = [&] { conn->send(to_bytes("which replica am I?")); };
  ASSERT_TRUE(run_until(r->sim(), [&] { return reset; }, seconds(60)));

  // The client's outgoing ACK field is its RCV.NXT in wire terms — the
  // exact value an in-window unsolicited segment must carry. The client
  // delivered no data, so every post-handshake ACK it sent names the
  // same value.
  std::uint32_t client_rcv_nxt = 0;
  bool have_ack = false;
  for (const auto& rec : at_primary.records()) {
    if (rec.has_tcp && rec.src_ip == r->client().address() &&
        rec.dst_port == kEchoPort && (rec.flags & tcp::Flags::kAck)) {
      client_rcv_nxt = rec.ack;
      have_ack = true;
    }
  }
  ASSERT_TRUE(have_ack);

  std::size_t rsts = 0;
  for (const auto& rec : at_client.records()) {
    if (rec.has_tcp && rec.dst_ip == r->client().address() &&
        (rec.flags & tcp::Flags::kRst)) {
      ++rsts;
      EXPECT_EQ(rec.seq, client_rcv_nxt) << "RST outside the client's window";
    }
  }
  EXPECT_GE(rsts, 1u);
  // The timeline records the divergence for the post-mortem.
  EXPECT_GE(r->primary().obs().timeline.filter(obs::EventKind::kDivergence).size(),
            1u);
}

TEST(Divergence, DeterministicReplicasNeverTrigger) {
  auto r = make_replicated();
  for (int i = 0; i < 3; ++i) {
    test::EchoDriver d(r->client(), r->primary().address(), kEchoPort, 30000, 1500);
    ASSERT_TRUE(run_until(r->sim(), [&] { return d.done(); }, seconds(120)));
    EXPECT_TRUE(d.verify());
  }
  EXPECT_EQ(r->group->primary_bridge().divergences(), 0u);
}

}  // namespace
}  // namespace tfo::core
