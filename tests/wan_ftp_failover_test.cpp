// The paper's two evaluation environments combined with its core claim:
// FTP transfers across a WAN/router surviving replica failures at varied
// points — control-connection phase, data-connection handshake, and
// mid-transfer — in both transfer directions.
#include <gtest/gtest.h>

#include "apps/echo.hpp"
#include "apps/ftp.hpp"
#include "core/takeover_announcer.hpp"
#include "failover_fixture.hpp"
#include "impairment_util.hpp"

namespace tfo::core {
namespace {

using test::run_until;

struct WanFtpParam {
  bool upload;          // STOR instead of RETR
  bool crash_primary;   // which replica dies
  int crash_phase;      // 0 = before login, 1 = after login, 2 = mid-transfer
  const char* label;
};

/// FTP servers on P and S, each serving `file` as f.bin, with the client
/// across a 4 Mb/s WAN.
struct FtpWan {
  std::unique_ptr<test::Replicated> r;
  std::vector<std::unique_ptr<apps::FtpServer>> ftp;  // P, then S

  FtpWan(apps::TopologyParams tp, FailoverConfig cfg, const Bytes& file) {
    tp.wan_link.bandwidth_bps = 4'000'000;
    cfg.ports = {21, 20};
    r = test::make_replicated(tp, cfg, [&](apps::Host& h) {
      ftp.push_back(std::make_unique<apps::FtpServer>(h.tcp()));
      ftp.back()->add_file("f.bin", file);
    });
  }
};

/// Logs in, then fetches f.bin with the primary crashing once the data
/// connection has moved for 100 ms. The client must see the whole file
/// and no reset.
void get_survives_primary_crash(test::Replicated& r, const Bytes& file) {
  test::RstCounter rsts(r.sim(), r.client().nic());
  apps::FtpClient client(r.client().tcp(), r.primary().address());
  bool logged_in = false;
  client.login([&](bool ok) { logged_in = ok; });
  ASSERT_TRUE(run_until(r.sim(), [&] { return logged_in; }, seconds(120)));

  bool done = false, ok = false;
  Bytes got;
  client.get("f.bin", [&](bool k, Bytes b) {
    ok = k;
    got = std::move(b);
    done = true;
  });
  ASSERT_TRUE(run_until(r.sim(), [&] {
    return r.client().tcp().connection_count() >= 2;
  }, seconds(120)));
  r.sim().run_for(milliseconds(100));
  r.group->crash_primary();

  ASSERT_TRUE(run_until(r.sim(), [&] { return done; }, seconds(1200)));
  EXPECT_TRUE(ok);
  EXPECT_EQ(got, file);
  EXPECT_EQ(rsts.count(), 0u);
}

class WanFtpFailover : public ::testing::TestWithParam<WanFtpParam> {};

TEST_P(WanFtpFailover, TransferCompletesIntact) {
  const WanFtpParam& p = GetParam();
  const Bytes file = apps::deterministic_payload(200 * 1024, 4);
  apps::TopologyParams tp{.seed = 12, .hops = 1};
  tp.wan_link.propagation = milliseconds(10);
  FtpWan w(tp, {}, file);
  test::Replicated& r = *w.r;

  auto crash = [&] {
    if (p.crash_primary) {
      r.group->crash_primary();
    } else {
      r.group->crash_secondary();
    }
  };

  apps::FtpClient client(r.client().tcp(), r.primary().address());
  if (p.crash_phase == 0) crash();

  bool logged_in = false;
  client.login([&](bool ok) { logged_in = ok; });
  ASSERT_TRUE(run_until(r.sim(), [&] { return logged_in; }, seconds(120)));
  if (p.crash_phase == 1) crash();

  bool done = false, ok = false;
  Bytes got;
  if (p.upload) {
    client.put("up.bin", file, [&](bool k) {
      ok = k;
      done = true;
    });
  } else {
    client.get("f.bin", [&](bool k, Bytes b) {
      ok = k;
      got = std::move(b);
      done = true;
    });
  }
  if (p.crash_phase == 2) {
    // Let the data connection start moving first.
    ASSERT_TRUE(run_until(r.sim(), [&] {
      return r.client().tcp().connection_count() >= 2;
    }, seconds(120)));
    r.sim().run_for(milliseconds(100));
    crash();
  }
  ASSERT_TRUE(run_until(r.sim(), [&] { return done; }, seconds(1200)));
  EXPECT_TRUE(ok);
  if (p.upload) {
    const auto& fs = w.ftp[p.crash_primary ? 1 : 0]->files();
    ASSERT_TRUE(fs.contains("up.bin"));
    EXPECT_EQ(fs.at("up.bin"), file);
  } else {
    EXPECT_EQ(got, file);
  }
}

// PR 10: the takeover announcement is a repeated, unacknowledged
// broadcast (GARP) or a repeated, acked unicast (route advert). Under
// bursty Gilbert–Elliott loss scoped to exactly those announcement frames,
// the repeat schedule must still complete the takeover — one surviving
// announcement suffices.

TEST(WanAnnouncementLoss, GarpRepeatsSurviveBurstyLoss) {
  apps::TopologyParams tp{.seed = 12, .hops = 1};
  tp.wan_link.propagation = milliseconds(10);
  FailoverConfig cfg;
  cfg.announce_repeats = 10;
  const Bytes file = apps::deterministic_payload(100 * 1024, 6);
  FtpWan w(tp, cfg, file);
  test::Replicated& r = *w.r;

  // Drop most ARP frames on the server LAN (the GARP broadcast among
  // them); warmed static caches keep regular traffic flowing.
  net::ImpairmentParams ip_params;
  ip_params.gilbert = {.p_enter_bad = 0.8, .p_exit_bad = 0.2,
                       .loss_good = 0.0, .loss_bad = 1.0};
  ip_params.seed = 99;
  r.topo->wire->impairment().configure(ip_params);
  r.topo->wire->impairment().set_target(
      [](const net::Nic*, const net::Nic&, const net::EthernetFrame& f) {
        return f.type == net::EtherType::kArp;
      });

  get_survives_primary_crash(r, file);
  // The takeover needed more than one announcement: the repeat schedule
  // is what carried it through the loss burst.
  net::MacAddress m{};
  ASSERT_TRUE(r.topo->edge().arp(0).lookup(r.primary().address(), &m));
  EXPECT_EQ(m, r.secondary().nic().mac());
}

TEST(WanAnnouncementLoss, RouteAdvertRepeatsSurviveBurstyLoss) {
  apps::TopologyParams tp{.seed = 13, .hops = 2};
  tp.wan_link.propagation = milliseconds(5);
  FailoverConfig cfg;
  cfg.announcer = std::make_shared<RouteAnnouncer>();
  cfg.mirror_inbound = true;
  cfg.announce_repeats = 10;
  const Bytes file = apps::deterministic_payload(100 * 1024, 7);
  FtpWan w(tp, cfg, file);
  test::Replicated& r = *w.r;

  // Drop most route-advert datagrams (adverts *and* acks) on the server
  // LAN, where the secondary talks to its gateway.
  net::ImpairmentParams ip_params;
  ip_params.gilbert = {.p_enter_bad = 0.6, .p_exit_bad = 0.4,
                       .loss_good = 0.0, .loss_bad = 1.0};
  ip_params.seed = 77;
  r.topo->wire->impairment().configure(ip_params);
  r.topo->wire->impairment().set_target(
      [](const net::Nic*, const net::Nic&, const net::EthernetFrame& f) {
        if (f.type != net::EtherType::kIpv4) return false;
        const auto d = ip::IpDatagram::parse(f.payload);
        return d && d->proto == ip::Proto::kRouteAdvert;
      });

  get_survives_primary_crash(r, file);
  // At least one advert survived: the host route is installed and the
  // announcer saw an ack.
  ASSERT_NE(r.topo->edge().ip().routes().find(r.primary().address(), 32), nullptr);
  auto* ra = static_cast<RouteAnnouncer*>(cfg.announcer.get());
  EXPECT_TRUE(ra->converged());
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, WanFtpFailover,
    ::testing::Values(
        WanFtpParam{false, true, 0, "get_P_dies_before_login"},
        WanFtpParam{false, true, 1, "get_P_dies_after_login"},
        WanFtpParam{false, true, 2, "get_P_dies_mid_transfer"},
        WanFtpParam{false, false, 1, "get_S_dies_after_login"},
        WanFtpParam{false, false, 2, "get_S_dies_mid_transfer"},
        WanFtpParam{true, true, 1, "put_P_dies_after_login"},
        WanFtpParam{true, true, 2, "put_P_dies_mid_transfer"},
        WanFtpParam{true, false, 2, "put_S_dies_mid_transfer"}),
    [](const ::testing::TestParamInfo<WanFtpParam>& info) { return info.param.label; });

}  // namespace
}  // namespace tfo::core
