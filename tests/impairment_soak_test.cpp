// Adversarial soak harness: a seeded matrix of impairment profiles ×
// failover timing, run against the full replicated LAN. Each run is
// checked by four oracles:
//   1. client byte-stream integrity (EchoDriver::verify);
//   2. no RST ever reaches the client — fabricated bridge segments must
//      never tear a healthy connection down (the out-of-window cases are
//      pinned exactly in failover_teardown_test.cpp);
//   3. corrupted copies are caught by the IP/TCP receive-path checksums,
//      never delivered as payload;
//   4. the impairment engine's conservation identity closes and its
//      registry mirror agrees with the internal counters.
// Plus targeted §4/§8 scenarios: a duplicated client FIN arriving after
// bridge teardown, diverted secondary segments jittered against primary
// retransmissions, and corrupted merged segments recovered by
// retransmission.
#include <gtest/gtest.h>

#include "impairment_util.hpp"
#include "ip/datagram.hpp"

namespace tfo::core {
namespace {

using test::checksum_rejects;
using test::EchoDriver;
using test::impairment_profiles;
using test::kEchoPort;
using test::make_replicated;
using test::processed_by;
using test::RstCounter;
using test::run_until;

// ------------------------------------------------------------ soak matrix

struct SoakParam {
  std::string name;
  net::ImpairmentParams imp;
  bool fail_primary;
  std::uint64_t seed;
};

std::vector<SoakParam> soak_matrix() {
  std::vector<SoakParam> out;
  std::uint64_t seed = 101;
  for (const auto& [name, imp] : impairment_profiles()) {
    out.push_back({name, imp, false, seed});
    out.push_back({name, imp, true, seed + 100});
    ++seed;
  }
  return out;
}

class ImpairmentSoak : public ::testing::TestWithParam<SoakParam> {};

TEST_P(ImpairmentSoak, StreamSurvivesImpairedWire) {
  const SoakParam param = GetParam();
  apps::TopologyParams lp;
  lp.medium.impairment = param.imp;
  lp.medium.impairment.seed = param.seed;
  // Diverted replies cross the wire twice; cap RTO backoff so recovery
  // under sustained impairment stays seconds-scale (same reasoning as the
  // §4 random-loss sweeps).
  lp.tcp.max_rto = seconds(5);
  core::FailoverConfig cfg;
  cfg.heartbeat_period = milliseconds(5);
  cfg.failure_timeout = milliseconds(200);
  auto r = make_replicated(lp, cfg);
  auto& eng = r->topo->wire->impairment();
  eng.set_target(processed_by);
  eng.bind_registry(r->client().metrics());
  RstCounter rsts(r->sim(), r->client().nic());

  const std::size_t total = 24000;
  EchoDriver d(r->client(), r->primary().address(), kEchoPort, total, 1500);
  if (param.fail_primary) {
    ASSERT_TRUE(run_until(r->sim(), [&] { return d.received().size() > total / 3; },
                          seconds(600)));
    r->group->crash_primary();
  }
  ASSERT_TRUE(run_until(r->sim(), [&] { return d.done(); }, seconds(1200)))
      << "stalled at " << d.received().size() << "/" << total;

  // Oracle 1: the echoed stream is byte-identical to what was sent.
  EXPECT_TRUE(d.verify());
  // Oracle 2: nothing the bridges fabricated (or the impairments mangled)
  // reset the client.
  EXPECT_EQ(rsts.count(), 0u);

  // Freeze the pipeline, then let delayed/duplicated copies still in
  // flight settle: heartbeat traffic never stops, so an exact conservation
  // audit needs a point where no new deliveries enter the pipeline.
  eng.configure({});
  r->sim().run_for(seconds(1));
  const auto c = eng.counters();
  EXPECT_GT(c.offered, 0u);
  // Oracle 3: every corrupted copy was rejected at a receive-path checksum.
  if (c.corrupted > 0) {
    EXPECT_GE(checksum_rejects(*r), 1u);
  }
  // Oracle 4: conservation, internally and in the registry mirror.
  EXPECT_TRUE(eng.conserved())
      << "offered=" << c.offered << " dup=" << c.duplicated
      << " delivered=" << c.delivered << " dropped=" << c.dropped
      << " detached=" << c.detached;
  const auto& reg = r->client().metrics();
  EXPECT_EQ(reg.counter_value("net.impairment.offered"), c.offered);
  EXPECT_EQ(reg.counter_value("net.impairment.dropped"), c.dropped);
  EXPECT_EQ(reg.counter_value("net.impairment.duplicated"), c.duplicated);
  EXPECT_EQ(reg.counter_value("net.impairment.reordered"), c.reordered);
  EXPECT_EQ(reg.counter_value("net.impairment.corrupted"), c.corrupted);
  EXPECT_EQ(reg.counter_value("net.impairment.delivered"), c.delivered);
  EXPECT_EQ(reg.counter_value("net.impairment.detached"), c.detached);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ImpairmentSoak, ::testing::ValuesIn(soak_matrix()),
    [](const ::testing::TestParamInfo<SoakParam>& info) {
      return info.param.name + (info.param.fail_primary ? "_failover" : "_steady") +
             "_s" + std::to_string(info.param.seed);
    });

// ----------------------------------------- §8: duplicated FIN after teardown

TEST(ImpairmentScenario, DuplicatedClientFinAfterTeardownIsAckedNotReset) {
  // The wire duplicates the client's teardown segments towards the primary
  // with a one-second echo — long after the bridge removed the connection
  // (but inside the tombstone's 4*MSL lifetime). §8 requires the stray FIN
  // be ACKed from the tombstone, never RST.
  auto r = make_replicated();
  EchoDriver d(r->client(), r->primary().address(), kEchoPort, 2000, 500);
  ASSERT_TRUE(run_until(r->sim(), [&] { return d.done(); }, seconds(60)));

  auto& eng = r->topo->wire->impairment();
  net::ImpairmentParams imp;
  imp.duplicate = 1.0;
  imp.duplicate_delay = seconds(1);
  imp.seed = 31;
  eng.configure(imp);
  eng.set_target([](const net::Nic* s, const net::Nic& rx,
                    const net::EthernetFrame& f) {
    return s != nullptr && f.type == net::EtherType::kIpv4 &&
           s->name() == "client.eth0" && rx.name() == "primary.eth0";
  });

  RstCounter rsts(r->sim(), r->client().nic());
  d.connection().close();
  ASSERT_TRUE(run_until(r->sim(), [&] {
    return d.connection().state() == tcp::TcpState::kClosed &&
           r->group->primary_bridge().connection_count() == 0;
  }, seconds(60)));
  ASSERT_GE(r->group->primary_bridge().tombstone_count(), 1u);

  // The duplicated FIN (and final ACK) land at the primary ~1s later.
  r->sim().run_for(milliseconds(1500));
  EXPECT_GE(r->group->primary_bridge().stray_fin_acks(), 1u);
  EXPECT_EQ(rsts.count(), 0u);
  EXPECT_EQ(d.close_reason(), tcp::CloseReason::kGraceful);
  EXPECT_TRUE(eng.conserved());
}

// ------------------- §4: diverted segments jittered against retransmissions

TEST(ImpairmentScenario, ReorderedDivertedSegmentRacesRetransmission) {
  // Merged segments are dropped at the client (forcing primary-side
  // retransmissions) while every diverted secondary→primary segment takes
  // milliseconds of extra jitter — so retransmitted server data races its
  // own late diverted counterpart at the merge point. §4's retransmission
  // recognition must keep the merged stream exact.
  auto r = make_replicated();
  auto& eng = r->topo->wire->impairment();
  net::ImpairmentParams imp;
  imp.reorder = 1.0;
  imp.reorder_delay = milliseconds(4);
  imp.seed = 57;
  eng.configure(imp);
  eng.set_target([](const net::Nic* s, const net::Nic& rx,
                    const net::EthernetFrame& f) {
    return s != nullptr && f.type == net::EtherType::kIpv4 &&
           s->name() == "secondary.eth0" && rx.name() == "primary.eth0";
  });

  // Drop a few primary→client data frames to force retransmission cycles.
  auto dropped = std::make_shared<int>(0);
  auto seen = std::make_shared<int>(0);
  const ip::Ipv4 from = r->primary().address();
  r->topo->wire->set_loss_fn([=](const net::Nic&, const net::Nic& rx,
                                const net::EthernetFrame& f) {
    if (rx.name() != "client.eth0" || f.type != net::EtherType::kIpv4) return false;
    auto dg = ip::IpDatagram::parse(f.payload);
    if (!dg || dg->proto != ip::Proto::kTcp || dg->src != from) return false;
    if (dg->payload.size() < 20) return false;
    const std::size_t hdr = static_cast<std::size_t>(dg->payload[12] >> 4) * 4;
    if (dg->payload.size() <= hdr) return false;  // data segments only
    if ((*seen)++ < 2) return false;
    if (*dropped >= 3) return false;
    ++*dropped;
    return true;
  });

  RstCounter rsts(r->sim(), r->client().nic());
  EchoDriver d(r->client(), r->primary().address(), kEchoPort, 20000, 1000);
  ASSERT_TRUE(run_until(r->sim(), [&] { return d.done(); }, seconds(240)));
  EXPECT_TRUE(d.verify());
  EXPECT_EQ(*dropped, 3);
  EXPECT_EQ(rsts.count(), 0u);
  // The race actually happened: the bridge both forwarded retransmissions
  // and kept merging the jittered diverted stream.
  EXPECT_GE(r->group->primary_bridge().retransmissions_forwarded(), 1u);
  EXPECT_GT(r->group->primary_bridge().merged_segments_sent(), 20u);
  EXPECT_GT(eng.counters().reordered, 0u);
  // Freeze and drain in-flight jittered copies before the exact audit.
  eng.configure({});
  r->sim().run_for(seconds(1));
  EXPECT_TRUE(eng.conserved());
}

// ----------------- §4: corrupted merged segment recovered by retransmission

TEST(ImpairmentScenario, CorruptedMergedSegmentDroppedByChecksumThenRecovered) {
  // Mid-transfer, three consecutive primary→client copies are corrupted
  // (single-byte flips: always checksum-detectable). The client must drop
  // them at the IP/TCP receive path — never surface a damaged byte — and
  // the normal retransmission machinery must repair the stream.
  auto r = make_replicated();
  EchoDriver d(r->client(), r->primary().address(), kEchoPort, 20000, 1000);
  ASSERT_TRUE(run_until(r->sim(), [&] { return d.received().size() > 5000; },
                        seconds(60)));

  auto& eng = r->topo->wire->impairment();
  net::ImpairmentParams imp;
  imp.corrupt = 1.0;
  imp.corrupt_max_bytes = 1;
  imp.seed = 73;
  eng.configure(imp);
  eng.set_target([left = std::make_shared<int>(3)](
                     const net::Nic* s, const net::Nic& rx,
                     const net::EthernetFrame& f) {
    if (*left <= 0 || s == nullptr) return false;
    // Only frames the client will actually checksum: IPv4, addressed to its
    // MAC (a snooped heartbeat copy filtered at L2 exercises nothing, and
    // ARP carries no checksum for the receive path to reject).
    if (f.type != net::EtherType::kIpv4 || f.dst != rx.mac()) return false;
    if (s->name() != "primary.eth0" || rx.name() != "client.eth0") return false;
    --*left;
    return true;
  });

  RstCounter rsts(r->sim(), r->client().nic());
  ASSERT_TRUE(run_until(r->sim(), [&] { return d.done(); }, seconds(240)));
  EXPECT_TRUE(d.verify());
  EXPECT_EQ(eng.counters().corrupted, 3u);
  // Every corrupted copy was rejected by a checksum on the client side.
  EXPECT_GE(r->client().obs().registry.counter_value("tcp.segments_malformed") +
                r->client().ip().datagrams_parse_failed(),
            3u);
  EXPECT_EQ(rsts.count(), 0u);
  EXPECT_TRUE(eng.conserved());
}

}  // namespace
}  // namespace tfo::core
