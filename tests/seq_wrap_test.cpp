// 32-bit sequence-number wraparound, end to end: ISNs parked just below
// 2^32 force every sequence field — client stream, both server streams,
// the bridge's Δseq translation, and the merge queues — across the wrap
// during a transfer, with and without failover.
#include <gtest/gtest.h>

#include "failover_fixture.hpp"

namespace tfo::core {
namespace {

using test::kEchoPort;
using test::make_replicated;
using test::run_until;

struct WrapParam {
  Seq32 isn_client;
  Seq32 isn_primary;
  Seq32 isn_secondary;
  bool crash_primary;
  const char* label;
};

class SeqWrapSweep : public ::testing::TestWithParam<WrapParam> {};

TEST_P(SeqWrapSweep, TransferCrossesTheWrapIntact) {
  const WrapParam& p = GetParam();
  auto r = make_replicated();
  r->client().tcp().set_next_isn(p.isn_client);
  r->primary().tcp().set_next_isn(p.isn_primary);
  r->secondary().tcp().set_next_isn(p.isn_secondary);

  // 96 KB each way guarantees the 16-bit-ish headroom below 2^32 is
  // crossed in every sequence space involved.
  test::EchoDriver d(r->client(), r->primary().address(), kEchoPort, 96 * 1024, 4096);
  if (p.crash_primary) {
    ASSERT_TRUE(run_until(r->sim(), [&] { return d.received().size() > 48 * 1024; },
                          seconds(300)));
    r->group->crash_primary();
  }
  ASSERT_TRUE(run_until(r->sim(), [&] { return d.done(); }, seconds(300)))
      << "stalled at " << d.received().size();
  EXPECT_TRUE(d.verify());
  EXPECT_EQ(r->group->primary_bridge().divergences(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Wraps, SeqWrapSweep,
    ::testing::Values(
        WrapParam{0xffffff00u, 1000, 2000, false, "client_wraps"},
        WrapParam{1000, 0xffffff00u, 2000, false, "primary_wraps"},
        WrapParam{1000, 2000, 0xffffff00u, false, "secondary_wraps"},
        WrapParam{0xfffffff0u, 0xffffff80u, 0xffffffc0u, false, "all_wrap"},
        WrapParam{0xffffff00u, 0xffffff00u, 0xffffff00u, false, "identical_isns"},
        WrapParam{1000, 0xffffff00u, 0x00000100u, false, "delta_spans_wrap"},
        WrapParam{0xffffff00u, 1000, 2000, true, "client_wraps_failover"},
        WrapParam{1000, 2000, 0xffffff00u, true, "secondary_wraps_failover"},
        WrapParam{0xfffffff0u, 0xffffff80u, 0xffffffc0u, true, "all_wrap_failover"}),
    [](const ::testing::TestParamInfo<WrapParam>& info) { return info.param.label; });

TEST(SeqWrap, DeltaSeqZeroWorks) {
  // Identical ISNs make Δseq == 0 — the degenerate case where translation
  // is the identity; nothing may assume Δseq != 0.
  auto r = make_replicated();
  r->primary().tcp().set_next_isn(42);
  r->secondary().tcp().set_next_isn(42);
  test::EchoDriver d(r->client(), r->primary().address(), kEchoPort, 20000, 2000);
  ASSERT_TRUE(run_until(r->sim(), [&] { return d.done(); }, seconds(120)));
  EXPECT_TRUE(d.verify());
}

TEST(SeqWrap, CloseHandshakeAcrossWrap) {
  auto r = make_replicated();
  r->secondary().tcp().set_next_isn(0xffffffe0u);  // FIN lands past the wrap
  test::EchoDriver d(r->client(), r->primary().address(), kEchoPort, 1000, 500);
  ASSERT_TRUE(run_until(r->sim(), [&] { return d.done(); }, seconds(60)));
  d.connection().close();
  ASSERT_TRUE(run_until(r->sim(), [&] {
    return d.connection().state() == tcp::TcpState::kClosed;
  }, seconds(60)));
  EXPECT_EQ(d.close_reason(), tcp::CloseReason::kGraceful);
}

}  // namespace
}  // namespace tfo::core
