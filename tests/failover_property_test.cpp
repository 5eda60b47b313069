// System-level property sweeps for failover: crashes at arbitrary
// *times* (not byte positions), multiple client hosts, double failures,
// and the secondary bridge's snoop-filtering rules.
#include <gtest/gtest.h>

#include "apps/trace.hpp"
#include "failover_fixture.hpp"
#include "ip/datagram.hpp"

namespace tfo::core {
namespace {

using test::kEchoPort;
using test::make_replicated_lan;
using test::run_until;

// ----------------------------------------------- crash-at-time property

// gtest prints a parameter without a PrintTo overload as a byte dump, and
// that dump is part of the test name ctest registers. The padding is
// spelled out as a zeroed member so the name holds no uninitialised bytes.
struct CrashParam {
  bool crash_primary;
  std::uint8_t pad[7] = {};
  SimDuration at;
  const char* label;
};

class CrashTimeSweep : public ::testing::TestWithParam<CrashParam> {};

TEST_P(CrashTimeSweep, ByteStreamIntact) {
  const CrashParam& p = GetParam();
  auto r = make_replicated_lan();
  test::EchoDriver d(r->client(), r->primary().address(), kEchoPort, 80 * 1024, 4096);
  r->sim().run_for(p.at);
  if (p.crash_primary) {
    r->group->crash_primary();
  } else {
    r->group->crash_secondary();
  }
  ASSERT_TRUE(run_until(r->sim(), [&] { return d.done(); }, seconds(300)))
      << "stalled at " << d.received().size();
  EXPECT_TRUE(d.verify());
  EXPECT_FALSE(d.close_reason().has_value());
}

INSTANTIATE_TEST_SUITE_P(
    Times, CrashTimeSweep,
    ::testing::Values(
        CrashParam{.crash_primary = true, .at = 0, .label = "P_at_t0"},
        CrashParam{.crash_primary = true, .at = microseconds(100), .label = "P_during_handshake"},
        CrashParam{.crash_primary = true, .at = microseconds(500), .label = "P_at_500us"},
        CrashParam{.crash_primary = true, .at = milliseconds(2), .label = "P_at_2ms"},
        CrashParam{.crash_primary = true, .at = milliseconds(10), .label = "P_at_10ms"},
        CrashParam{.crash_primary = true, .at = milliseconds(40), .label = "P_at_40ms"},
        CrashParam{.crash_primary = false, .at = 0, .label = "S_at_t0"},
        CrashParam{.crash_primary = false, .at = microseconds(100), .label = "S_during_handshake"},
        CrashParam{.crash_primary = false, .at = microseconds(500), .label = "S_at_500us"},
        CrashParam{.crash_primary = false, .at = milliseconds(2), .label = "S_at_2ms"},
        CrashParam{.crash_primary = false, .at = milliseconds(10), .label = "S_at_10ms"},
        CrashParam{.crash_primary = false, .at = milliseconds(40), .label = "S_at_40ms"}),
    [](const ::testing::TestParamInfo<CrashParam>& info) { return info.param.label; });

// ------------------------------------------------------- multiple hosts

TEST(MultiClient, TwoClientHostsBothSurviveFailover) {
  auto r = make_replicated_lan();
  // A second, independent client machine on the same segment.
  apps::HostParams hp;
  hp.name = "client2";
  hp.addr = ip::Ipv4::parse("10.0.0.11");
  hp.seed = 77;
  apps::Host client2(r->sim(), hp, *r->lan->wire);
  client2.arp().add_static(r->primary().address(), r->primary().nic().mac());
  client2.arp().add_static(r->secondary().address(), r->secondary().nic().mac());
  r->primary().arp().add_static(hp.addr, client2.nic().mac());
  r->secondary().arp().add_static(hp.addr, client2.nic().mac());

  test::EchoDriver d1(r->client(), r->primary().address(), kEchoPort, 40000, 2000);
  test::EchoDriver d2(client2, r->primary().address(), kEchoPort, 40000, 2000);
  ASSERT_TRUE(run_until(r->sim(), [&] {
    return d1.received().size() > 10000 && d2.received().size() > 10000;
  }, seconds(120)));
  r->group->crash_primary();
  ASSERT_TRUE(run_until(r->sim(), [&] { return d1.done() && d2.done(); },
                        seconds(300)));
  EXPECT_TRUE(d1.verify());
  EXPECT_TRUE(d2.verify());
  // The survivor served both sessions to completion.
  EXPECT_EQ(r->echo_s->bytes_echoed(), 80000u);
}

// -------------------------------------------------------- double failure

TEST(DoubleFailure, BothReplicasDieConnectionTimesOutCleanly) {
  apps::LanParams lp;
  lp.tcp.max_retries = 4;
  lp.tcp.max_rto = seconds(2);
  auto r = make_replicated_lan(lp);
  test::EchoDriver d(r->client(), r->primary().address(), kEchoPort, 40000, 2000);
  ASSERT_TRUE(run_until(r->sim(), [&] { return d.received().size() > 5000; }));
  r->group->crash_primary();
  r->group->crash_secondary();
  // An idle TCP connection to a dead peer lives forever (no keepalive);
  // the timeout clock starts when the client next transmits.
  d.connection().send(to_bytes("probe"));
  // The client's connection must die by retransmission timeout — an
  // honest failure, not a hang or a crash of the framework.
  ASSERT_TRUE(run_until(r->sim(), [&] { return d.close_reason().has_value(); },
                        seconds(300)));
  EXPECT_EQ(d.close_reason(), tcp::CloseReason::kTimeout);
}

TEST(DoubleFailure, SecondaryThenPrimaryServesUntilSecondCrash) {
  apps::LanParams lp;
  lp.tcp.max_retries = 4;
  lp.tcp.max_rto = seconds(2);
  auto r = make_replicated_lan(lp);
  test::EchoDriver d(r->client(), r->primary().address(), kEchoPort, 60000, 2000);
  ASSERT_TRUE(run_until(r->sim(), [&] { return d.received().size() > 10000; }));
  r->group->crash_secondary();
  ASSERT_TRUE(run_until(r->sim(), [&] { return d.received().size() > 30000; },
                        seconds(120)));
  r->group->crash_primary();
  ASSERT_TRUE(run_until(r->sim(), [&] { return d.close_reason().has_value(); },
                        seconds(300)));
  EXPECT_EQ(d.close_reason(), tcp::CloseReason::kTimeout);
  // Even an honest double-failure death must never corrupt what was
  // delivered before it.
  EXPECT_TRUE(d.verify_prefix());
}

// ---------------------------------------------- secondary bridge filters

TEST(SecondaryFilter, NonFailoverSnoopedTrafficIsDiscarded) {
  auto r = make_replicated_lan();
  apps::EchoServer plain(r->primary().tcp(), 9999);  // not a failover port
  const auto dropped_before = r->group->secondary_bridge().snooped_dropped();
  auto conn = r->client().tcp().connect(r->primary().address(), 9999,
                                        {.nodelay = true});
  Bytes got;
  conn->on_established = [&] { conn->send(to_bytes("plain traffic")); };
  conn->on_readable = [&] { conn->recv(got); };
  ASSERT_TRUE(run_until(r->sim(), [&] { return got.size() == 13; }, seconds(30)));
  // The secondary saw the frames promiscuously but discarded them (§3.1),
  // and its TCP layer never created a connection.
  EXPECT_GT(r->group->secondary_bridge().snooped_dropped(), dropped_before);
  EXPECT_EQ(r->secondary().tcp().connection_count(), 0u);
}

TEST(SecondaryFilter, SnoopedNonTcpDatagramsAreDiscarded) {
  auto r = make_replicated_lan();
  const auto dropped_before = r->group->secondary_bridge().snooped_dropped();
  // A heartbeat-protocol datagram from the client to the primary: TCP-less.
  r->client().ip().send(ip::Proto::kHeartbeat, ip::Ipv4::any(),
                        r->primary().address(), to_bytes("not tcp"));
  r->sim().run_for(milliseconds(10));
  EXPECT_GT(r->group->secondary_bridge().snooped_dropped(), dropped_before);
}

TEST(SecondaryFilter, TranslationCountsOnlyFailoverTraffic) {
  auto r = make_replicated_lan();
  apps::EchoServer plain(r->primary().tcp(), 9999);
  const auto translated_before = r->group->secondary_bridge().datagrams_translated();

  // Failover traffic: translated.
  {
    test::EchoDriver d(r->client(), r->primary().address(), kEchoPort, 2000, 500);
    ASSERT_TRUE(run_until(r->sim(), [&] { return d.done(); }, seconds(30)));
    d.connection().abort();  // fully quiesce before the plain phase
  }
  r->sim().run_for(milliseconds(500));
  const auto translated_mid = r->group->secondary_bridge().datagrams_translated();
  EXPECT_GT(translated_mid, translated_before);

  // Plain traffic: not translated.
  auto conn = r->client().tcp().connect(r->primary().address(), 9999,
                                        {.nodelay = true});
  Bytes got;
  conn->on_established = [&] { conn->send(to_bytes("x")); };
  conn->on_readable = [&] { conn->recv(got); };
  ASSERT_TRUE(run_until(r->sim(), [&] { return got.size() == 1; }, seconds(30)));
  EXPECT_EQ(r->group->secondary_bridge().datagrams_translated(), translated_mid);
}

TEST(SecondaryFilter, AfterTakeoverSnoopFilterIsInert) {
  auto r = make_replicated_lan();
  r->group->crash_primary();
  ASSERT_TRUE(run_until(r->sim(), [&] {
    return r->group->secondary_bridge().taken_over();
  }, seconds(10)));
  r->sim().run_for(milliseconds(100));
  const auto translated = r->group->secondary_bridge().datagrams_translated();
  const auto dropped = r->group->secondary_bridge().snooped_dropped();
  // New traffic to the taken-over address is served directly, with no
  // translation or snoop-dropping (§5 steps 2–4).
  test::EchoDriver d(r->client(), r->primary().address(), kEchoPort, 3000, 500);
  ASSERT_TRUE(run_until(r->sim(), [&] { return d.done(); }, seconds(60)));
  EXPECT_TRUE(d.verify());
  EXPECT_EQ(r->group->secondary_bridge().datagrams_translated(), translated);
  EXPECT_EQ(r->group->secondary_bridge().snooped_dropped(), dropped);
}

}  // namespace
}  // namespace tfo::core
