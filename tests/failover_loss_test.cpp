// Message-loss handling (§4 of the paper). The five enumerated loss cases
// are reproduced with targeted per-receiver frame drops, then random-loss
// property sweeps check stream integrity under sustained loss, with and
// without a concurrent failover.
#include <gtest/gtest.h>

#include "failover_fixture.hpp"
#include "ip/datagram.hpp"

namespace tfo::core {
namespace {

using test::EchoDriver;
using test::kEchoPort;
using test::make_replicated;
using test::run_until;

/// Parsed view of a frame for loss targeting.
struct FrameInfo {
  ip::Ipv4 src, dst;
  bool tcp = false;
  std::size_t tcp_payload = 0;
};

std::optional<FrameInfo> classify(const net::EthernetFrame& f) {
  if (f.type != net::EtherType::kIpv4) return std::nullopt;
  auto d = ip::IpDatagram::parse(f.payload);
  if (!d) return std::nullopt;
  FrameInfo info;
  info.src = d->src;
  info.dst = d->dst;
  info.tcp = d->proto == ip::Proto::kTcp;
  if (info.tcp && d->payload.size() >= 20) {
    const std::size_t hdr = static_cast<std::size_t>(d->payload[12] >> 4) * 4;
    info.tcp_payload = d->payload.size() > hdr ? d->payload.size() - hdr : 0;
  }
  return info;
}

/// Installs a rule dropping the first `count` TCP *data* frames matching
/// (src, receiver-name) after `skip` matches.
void drop_data_frames(test::Replicated& r, ip::Ipv4 from, const std::string& rx_nic,
                      int skip, int count) {
  auto dropped = std::make_shared<int>(0);
  auto seen = std::make_shared<int>(0);
  r.topo->wire->set_loss_fn([=](const net::Nic&, const net::Nic& rx,
                               const net::EthernetFrame& f) {
    if (rx.name() != rx_nic) return false;
    auto info = classify(f);
    if (!info || !info->tcp || info->src != from || info->tcp_payload == 0) return false;
    if ((*seen)++ < skip) return false;
    if (*dropped >= count) return false;
    ++*dropped;
    return true;
  });
}

// §4 case 1: "The primary server does not receive a client segment m."
TEST(LossCases, PrimaryMissesClientSegment) {
  auto r = make_replicated();
  drop_data_frames(*r, r->client().address(), "primary.eth0", 2, 3);
  EchoDriver d(r->client(), r->primary().address(), kEchoPort, 40000, 1000);
  ASSERT_TRUE(run_until(r->sim(), [&] { return d.done(); }, seconds(240)));
  EXPECT_TRUE(d.verify());
  // Both replicas saw the full request stream despite the drops.
  EXPECT_EQ(r->echo_p->bytes_echoed(), 40000u);
  EXPECT_EQ(r->echo_s->bytes_echoed(), 40000u);
}

// §4 case 2: "The secondary server drops the client segment although the
// primary server receives it."
TEST(LossCases, SecondaryMissesClientSegment) {
  auto r = make_replicated();
  drop_data_frames(*r, r->client().address(), "secondary.eth0", 2, 3);
  EchoDriver d(r->client(), r->primary().address(), kEchoPort, 40000, 1000);
  ASSERT_TRUE(run_until(r->sim(), [&] { return d.done(); }, seconds(240)));
  EXPECT_TRUE(d.verify());
  EXPECT_EQ(r->echo_s->bytes_echoed(), 40000u);
}

// §4 case 3: "A client segment is lost on its way to the servers" (both
// replicas miss it; the bridge ends up forwarding the retransmission of
// the server segment twice — harmless duplicates for the client).
TEST(LossCases, BothServersMissClientSegment) {
  auto r = make_replicated();
  auto dropped = std::make_shared<int>(0);
  auto seen = std::make_shared<int>(0);
  r->topo->wire->set_loss_fn([&, dropped, seen](const net::Nic&, const net::Nic& rx,
                                               const net::EthernetFrame& f) {
    if (rx.name() != "primary.eth0" && rx.name() != "secondary.eth0") return false;
    auto info = classify(f);
    if (!info || !info->tcp || info->src != r->client().address() ||
        info->tcp_payload == 0) {
      return false;
    }
    // Drop the same logical segment for both receivers: 2 matches each.
    if (*seen >= 4 && *seen < 6) {
      ++*seen;
      ++*dropped;
      return true;
    }
    ++*seen;
    return false;
  });
  EchoDriver d(r->client(), r->primary().address(), kEchoPort, 40000, 1000);
  ASSERT_TRUE(run_until(r->sim(), [&] { return d.done(); }, seconds(240)));
  EXPECT_TRUE(d.verify());
  EXPECT_GT(*dropped, 0);
}

// §4 case 4: "The secondary server's segment is dropped by the primary."
TEST(LossCases, PrimaryMissesSecondarysDivertedSegment) {
  auto r = make_replicated();
  drop_data_frames(*r, r->secondary().address(), "primary.eth0", 2, 3);
  EchoDriver d(r->client(), r->primary().address(), kEchoPort, 40000, 1000);
  ASSERT_TRUE(run_until(r->sim(), [&] { return d.done(); }, seconds(240)));
  EXPECT_TRUE(d.verify());
}

// §4 case 5: "The primary server's segment is lost on its way to the
// client" (a merged segment vanishes; both replicas retransmit; the
// client sees duplicate copies and discards one).
TEST(LossCases, ClientMissesMergedSegment) {
  auto r = make_replicated();
  drop_data_frames(*r, r->primary().address(), "client.eth0", 2, 3);
  EchoDriver d(r->client(), r->primary().address(), kEchoPort, 40000, 1000);
  ASSERT_TRUE(run_until(r->sim(), [&] { return d.done(); }, seconds(240)));
  EXPECT_TRUE(d.verify());
  // The bridge forwarded at least one retransmission (§4's duplicate-copy
  // behaviour).
  EXPECT_GT(r->group->primary_bridge().merged_segments_sent(), 40u);
}

// The lost-SYN variants of connection establishment (§7.1).
TEST(LossCases, ClientSynLostAtPrimary) {
  auto r = make_replicated();
  auto dropped = std::make_shared<bool>(false);
  r->topo->wire->set_loss_fn([&, dropped](const net::Nic&, const net::Nic& rx,
                                         const net::EthernetFrame& f) {
    if (*dropped || rx.name() != "primary.eth0") return false;
    auto info = classify(f);
    if (info && info->tcp && info->src == r->client().address()) {
      *dropped = true;
      return true;  // drop the client's very first SYN at P only
    }
    return false;
  });
  EchoDriver d(r->client(), r->primary().address(), kEchoPort, 2000, 500);
  ASSERT_TRUE(run_until(r->sim(), [&] { return d.done(); }, seconds(240)));
  EXPECT_TRUE(d.verify());
  EXPECT_TRUE(*dropped);
}

TEST(LossCases, ClientSynLostAtSecondary) {
  auto r = make_replicated();
  auto dropped = std::make_shared<bool>(false);
  r->topo->wire->set_loss_fn([&, dropped](const net::Nic&, const net::Nic& rx,
                                         const net::EthernetFrame& f) {
    if (*dropped || rx.name() != "secondary.eth0") return false;
    auto info = classify(f);
    if (info && info->tcp && info->src == r->client().address()) {
      *dropped = true;
      return true;
    }
    return false;
  });
  EchoDriver d(r->client(), r->primary().address(), kEchoPort, 2000, 500);
  ASSERT_TRUE(run_until(r->sim(), [&] { return d.done(); }, seconds(240)));
  EXPECT_TRUE(d.verify());
}

TEST(LossCases, MergedSynAckLost) {
  auto r = make_replicated();
  auto dropped = std::make_shared<bool>(false);
  r->topo->wire->set_loss_fn([&, dropped](const net::Nic&, const net::Nic& rx,
                                         const net::EthernetFrame& f) {
    if (*dropped || rx.name() != "client.eth0") return false;
    auto info = classify(f);
    if (info && info->tcp) {
      *dropped = true;
      return true;  // the client misses the merged SYN-ACK
    }
    return false;
  });
  EchoDriver d(r->client(), r->primary().address(), kEchoPort, 2000, 500);
  ASSERT_TRUE(run_until(r->sim(), [&] { return d.done(); }, seconds(240)));
  EXPECT_TRUE(d.verify());
}

// ------------------------------------------------- random-loss sweeps

struct LossSweepParam {
  double loss;
  bool fail_primary;
  std::uint64_t seed;
};

class RandomLossSweep : public ::testing::TestWithParam<LossSweepParam> {};

TEST_P(RandomLossSweep, StreamIntegrityUnderLoss) {
  const auto param = GetParam();
  apps::TopologyParams lp;
  lp.medium.impairment.loss = param.loss;
  lp.medium.impairment.seed = param.seed;
  // A diverted reply crosses the wire twice, so per-attempt delivery odds
  // compound; cap the RTO backoff at a LAN-appropriate bound so recovery
  // under heavy loss is measured in seconds, not minutes.
  lp.tcp.max_rto = seconds(5);
  core::FailoverConfig cfg;
  // Heartbeats ride the same lossy wire; use a tolerant detector so loss
  // alone does not trigger spurious failovers.
  cfg.heartbeat_period = milliseconds(5);
  cfg.failure_timeout = milliseconds(200);
  auto r = make_replicated(lp, cfg);
  const std::size_t total = 30000;
  EchoDriver d(r->client(), r->primary().address(), kEchoPort, total, 1500);
  if (param.fail_primary) {
    ASSERT_TRUE(run_until(r->sim(), [&] { return d.received().size() > total / 3; },
                          seconds(600)));
    r->group->crash_primary();
  }
  ASSERT_TRUE(run_until(r->sim(), [&] { return d.done(); }, seconds(1200)))
      << "stalled at " << d.received().size() << "/" << total;
  EXPECT_TRUE(d.verify());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RandomLossSweep,
    ::testing::Values(LossSweepParam{0.01, false, 11}, LossSweepParam{0.05, false, 12},
                      LossSweepParam{0.10, false, 13}, LossSweepParam{0.20, false, 14},
                      LossSweepParam{0.01, true, 21}, LossSweepParam{0.05, true, 22},
                      LossSweepParam{0.10, true, 23}),
    [](const ::testing::TestParamInfo<LossSweepParam>& info) {
      return "loss" + std::to_string(static_cast<int>(info.param.loss * 100)) +
             (info.param.fail_primary ? "_failover" : "_steady") + "_s" +
             std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace tfo::core
