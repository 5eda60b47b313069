// Failure handling: §5 (primary fails, secondary takes over the client's
// connections transparently) and §6 (secondary fails, primary continues
// solo). The core property throughout: the client-observed byte stream is
// exactly what an unreplicated server would have produced — no loss, no
// duplication, no reordering, no reset.
#include <gtest/gtest.h>

#include "failover_fixture.hpp"

namespace tfo::core {
namespace {

using test::EchoDriver;
using test::kEchoPort;
using test::make_replicated;
using test::run_until;

TEST(PrimaryFailure, MidTransferIsTransparent) {
  auto r = make_replicated();
  EchoDriver d(r->client(), r->primary().address(), kEchoPort, 200 * 1024, 4096);
  // Let roughly half the transfer happen, then crash the primary.
  ASSERT_TRUE(run_until(r->sim(), [&] { return d.received().size() > 100 * 1024; },
                        seconds(120)));
  r->group->crash_primary();
  ASSERT_TRUE(run_until(r->sim(), [&] { return d.done(); }, seconds(120)));
  EXPECT_TRUE(d.verify());
  EXPECT_TRUE(r->group->secondary_bridge().taken_over());
  EXPECT_FALSE(d.close_reason().has_value());  // never reset or torn down
}

TEST(PrimaryFailure, TakeoverClaimsPrimaryAddress) {
  auto r = make_replicated();
  EchoDriver d(r->client(), r->primary().address(), kEchoPort, 10000, 1000);
  ASSERT_TRUE(run_until(r->sim(), [&] { return d.received().size() > 2000; }));
  r->group->crash_primary();
  ASSERT_TRUE(run_until(r->sim(), [&] {
    return r->group->secondary_bridge().taken_over();
  }, seconds(10)));
  r->sim().run_for(milliseconds(100));
  EXPECT_TRUE(r->secondary().ip().is_local(r->primary().address()));
  // The client's ARP entry for a_p now points at the secondary's MAC.
  net::MacAddress m{};
  ASSERT_TRUE(r->client().arp().lookup(r->primary().address(), &m));
  EXPECT_EQ(m, r->secondary().nic().mac());
  ASSERT_TRUE(run_until(r->sim(), [&] { return d.done(); }, seconds(120)));
  EXPECT_TRUE(d.verify());
}

TEST(PrimaryFailure, DuringHandshakeStillConnects) {
  auto r = make_replicated();
  // Crash the primary the instant the client starts connecting: the SYN
  // may or may not have been processed by P. §1: "failover can occur at
  // any time during the lifetime of a connection."
  auto conn = r->client().tcp().connect(r->primary().address(), kEchoPort,
                                        {.nodelay = true});
  r->group->crash_primary();
  Bytes got;
  conn->on_established = [&] { conn->send(to_bytes("after-failover")); };
  conn->on_readable = [&] { conn->recv(got); };
  ASSERT_TRUE(run_until(r->sim(), [&] { return got.size() == 14; }, seconds(120)));
  EXPECT_EQ(to_string(got), "after-failover");
}

TEST(PrimaryFailure, JustAfterEstablishment) {
  auto r = make_replicated();
  auto conn = r->client().tcp().connect(r->primary().address(), kEchoPort,
                                        {.nodelay = true});
  ASSERT_TRUE(run_until(r->sim(), [&] {
    return conn->state() == tcp::TcpState::kEstablished;
  }));
  r->group->crash_primary();
  Bytes got;
  conn->on_readable = [&] { conn->recv(got); };
  conn->send(to_bytes("hello-secondary"));
  ASSERT_TRUE(run_until(r->sim(), [&] { return got.size() == 15; }, seconds(120)));
  EXPECT_EQ(to_string(got), "hello-secondary");
}

TEST(PrimaryFailure, NewConnectionsServedAfterTakeover) {
  auto r = make_replicated();
  r->group->crash_primary();
  ASSERT_TRUE(run_until(r->sim(), [&] {
    return r->group->secondary_bridge().taken_over();
  }, seconds(10)));
  r->sim().run_for(milliseconds(50));
  // A brand-new client connection to a_p lands on the secondary.
  EchoDriver d(r->client(), r->primary().address(), kEchoPort, 5000, 1000);
  ASSERT_TRUE(run_until(r->sim(), [&] { return d.done(); }, seconds(60)));
  EXPECT_TRUE(d.verify());
}

TEST(PrimaryFailure, CloseAfterFailoverCompletes) {
  auto r = make_replicated();
  EchoDriver d(r->client(), r->primary().address(), kEchoPort, 20000, 2000);
  ASSERT_TRUE(run_until(r->sim(), [&] { return d.received().size() > 4000; }));
  r->group->crash_primary();
  ASSERT_TRUE(run_until(r->sim(), [&] { return d.done(); }, seconds(120)));
  EXPECT_TRUE(d.verify());
  d.connection().close();
  ASSERT_TRUE(run_until(r->sim(), [&] {
    return d.connection().state() == tcp::TcpState::kClosed;
  }, seconds(60)));
  EXPECT_EQ(d.close_reason(), tcp::CloseReason::kGraceful);
}

TEST(PrimaryFailure, ClientStallBoundedByDetectionAndRetransmission) {
  core::FailoverConfig cfg;
  cfg.heartbeat_period = milliseconds(5);
  cfg.failure_timeout = milliseconds(25);
  auto r = make_replicated({}, cfg);
  EchoDriver d(r->client(), r->primary().address(), kEchoPort, 500 * 1024, 8192);
  ASSERT_TRUE(run_until(r->sim(), [&] { return d.received().size() > 50 * 1024; },
                        seconds(120)));
  const SimTime crash_at = r->sim().now();
  r->group->crash_primary();
  const std::size_t at_crash = d.received().size();
  ASSERT_TRUE(run_until(r->sim(), [&] { return d.received().size() > at_crash; },
                        seconds(120)));
  const SimDuration stall = static_cast<SimDuration>(r->sim().now() - crash_at);
  // Stall ≈ detection timeout + one retransmission cycle; generously
  // bounded here, measured precisely in the failover-time bench.
  EXPECT_LT(stall, seconds(5));
  ASSERT_TRUE(run_until(r->sim(), [&] { return d.done(); }, seconds(240)));
  EXPECT_TRUE(d.verify());
}

// Failover at many byte positions: the §1 "any time during the lifetime"
// claim as a property test.
class PrimaryFailureSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PrimaryFailureSweep, TransparentAtAnyPoint) {
  auto r = make_replicated();
  const std::size_t total = 64 * 1024;
  EchoDriver d(r->client(), r->primary().address(), kEchoPort, total, 2048);
  const std::size_t fail_after = GetParam();
  ASSERT_TRUE(run_until(r->sim(), [&] { return d.received().size() >= fail_after; },
                        seconds(120)));
  r->group->crash_primary();
  ASSERT_TRUE(run_until(r->sim(), [&] { return d.done(); }, seconds(240)))
      << "stalled at " << d.received().size() << " of " << total;
  EXPECT_TRUE(d.verify());
}

INSTANTIATE_TEST_SUITE_P(BytePositions, PrimaryFailureSweep,
                         ::testing::Values(0, 1, 100, 2048, 4096, 10000, 20000,
                                           32768, 50000, 63000));

// ------------------------------------------------------------- secondary

TEST(SecondaryFailure, MidTransferIsTransparent) {
  auto r = make_replicated();
  EchoDriver d(r->client(), r->primary().address(), kEchoPort, 200 * 1024, 4096);
  ASSERT_TRUE(run_until(r->sim(), [&] { return d.received().size() > 100 * 1024; },
                        seconds(120)));
  r->group->crash_secondary();
  ASSERT_TRUE(run_until(r->sim(), [&] { return d.done(); }, seconds(120)));
  EXPECT_TRUE(d.verify());
  EXPECT_TRUE(r->group->primary_bridge().secondary_failed());
  EXPECT_FALSE(d.close_reason().has_value());
}

TEST(SecondaryFailure, PrimaryQueueIsFlushed) {
  // §6 step 1: bytes waiting in the primary output queue for the (now
  // dead) secondary's copies must be sent to the client immediately.
  auto r = make_replicated();
  // Slow the secondary's reply path so the primary queue is non-empty:
  // secondary delays ACKs and has a smaller MSS (more segments).
  r->secondary().tcp().mutable_params().delayed_ack = milliseconds(300);
  EchoDriver d(r->client(), r->primary().address(), kEchoPort, 100 * 1024, 8192);
  ASSERT_TRUE(run_until(r->sim(), [&] { return d.received().size() > 30 * 1024; },
                        seconds(120)));
  r->group->crash_secondary();
  ASSERT_TRUE(run_until(r->sim(), [&] { return d.done(); }, seconds(120)));
  EXPECT_TRUE(d.verify());
}

TEST(SecondaryFailure, SequenceOffsetStillCompensated) {
  // §6 step 3: after the secondary fails, the primary bridge must keep
  // subtracting Δseq forever — the client is locked to S's sequence
  // space. Detectable by the transfer simply continuing to work with
  // wildly different ISNs.
  auto r = make_replicated();
  r->primary().tcp().set_next_isn(0xf0000000);
  r->secondary().tcp().set_next_isn(0x10000000);
  EchoDriver d(r->client(), r->primary().address(), kEchoPort, 50 * 1024, 2048);
  ASSERT_TRUE(run_until(r->sim(), [&] { return d.received().size() > 10 * 1024; }));
  r->group->crash_secondary();
  ASSERT_TRUE(run_until(r->sim(), [&] { return d.done(); }, seconds(120)));
  EXPECT_TRUE(d.verify());
}

TEST(SecondaryFailure, DuringHandshake) {
  auto r = make_replicated();
  auto conn = r->client().tcp().connect(r->primary().address(), kEchoPort,
                                        {.nodelay = true});
  r->group->crash_secondary();
  Bytes got;
  conn->on_established = [&] { conn->send(to_bytes("solo")); };
  conn->on_readable = [&] { conn->recv(got); };
  ASSERT_TRUE(run_until(r->sim(), [&] { return got.size() == 4; }, seconds(120)));
  EXPECT_EQ(to_string(got), "solo");
}

TEST(SecondaryFailure, CloseCompletesInSoloMode) {
  auto r = make_replicated();
  EchoDriver d(r->client(), r->primary().address(), kEchoPort, 10000, 1000);
  ASSERT_TRUE(run_until(r->sim(), [&] { return d.received().size() > 3000; }));
  r->group->crash_secondary();
  ASSERT_TRUE(run_until(r->sim(), [&] { return d.done(); }, seconds(60)));
  d.connection().close();
  ASSERT_TRUE(run_until(r->sim(), [&] {
    return d.connection().state() == tcp::TcpState::kClosed;
  }, seconds(60)));
  EXPECT_EQ(d.close_reason(), tcp::CloseReason::kGraceful);
}

class SecondaryFailureSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SecondaryFailureSweep, TransparentAtAnyPoint) {
  auto r = make_replicated();
  const std::size_t total = 64 * 1024;
  EchoDriver d(r->client(), r->primary().address(), kEchoPort, total, 2048);
  ASSERT_TRUE(run_until(r->sim(), [&] {
    return d.received().size() >= GetParam();
  }, seconds(120)));
  r->group->crash_secondary();
  ASSERT_TRUE(run_until(r->sim(), [&] { return d.done(); }, seconds(240)))
      << "stalled at " << d.received().size() << " of " << total;
  EXPECT_TRUE(d.verify());
}

INSTANTIATE_TEST_SUITE_P(BytePositions, SecondaryFailureSweep,
                         ::testing::Values(0, 1, 100, 2048, 4096, 10000, 20000,
                                           32768, 50000, 63000));

TEST(Failover, TakeoverPauseDelaysResumption) {
  core::FailoverConfig cfg;
  cfg.takeover_pause = milliseconds(200);
  auto r = make_replicated({}, cfg);
  EchoDriver d(r->client(), r->primary().address(), kEchoPort, 50000, 2000);
  ASSERT_TRUE(run_until(r->sim(), [&] { return d.received().size() > 10000; }));
  r->group->crash_primary();
  ASSERT_TRUE(run_until(r->sim(), [&] {
    return r->group->secondary_bridge().taken_over();
  }, seconds(10)));
  ASSERT_TRUE(run_until(r->sim(), [&] { return d.done(); }, seconds(240)));
  EXPECT_TRUE(d.verify());
}

TEST(Failover, MultipleConnectionsSurvivePrimaryFailure) {
  auto r = make_replicated();
  std::vector<std::unique_ptr<EchoDriver>> drivers;
  for (int i = 0; i < 5; ++i) {
    drivers.push_back(std::make_unique<EchoDriver>(
        r->client(), r->primary().address(), kEchoPort, 40000, 2000));
  }
  ASSERT_TRUE(run_until(r->sim(), [&] {
    return drivers[0]->received().size() > 10000;
  }, seconds(120)));
  r->group->crash_primary();
  ASSERT_TRUE(run_until(r->sim(), [&] {
    for (auto& d : drivers) {
      if (!d->done()) return false;
    }
    return true;
  }, seconds(300)));
  for (auto& d : drivers) EXPECT_TRUE(d->verify());
}

}  // namespace
}  // namespace tfo::core
