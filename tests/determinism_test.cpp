// Reproducibility: the entire simulation — media, stacks, bridges,
// failures — is deterministic. Identical configurations produce
// bit-identical wire traces; changing a seed changes the trace. This is
// the property that makes every number in EXPERIMENTS.md regenerable.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>

#include "apps/ftp.hpp"
#include "apps/trace.hpp"
#include "core/takeover_announcer.hpp"
#include "failover_fixture.hpp"

namespace tfo {
namespace {

using test::kEchoPort;
using test::run_until;

/// Runs a full scenario (transfer + mid-way primary crash + completion)
/// and returns a canonical trace of every frame the client saw.
std::string run_scenario(std::uint64_t lan_seed, double loss, std::uint64_t loss_seed) {
  apps::TopologyParams lp;
  lp.seed = lan_seed;
  lp.medium.impairment.loss = loss;
  lp.medium.impairment.seed = loss_seed;
  lp.tcp.max_rto = seconds(5);
  auto r = test::make_replicated(lp);
  apps::FrameTracer at_client(r->sim(), r->client().nic());
  test::EchoDriver d(r->client(), r->primary().address(), kEchoPort, 30000, 1500);
  EXPECT_TRUE(run_until(r->sim(), [&] { return d.received().size() > 10000; },
                        seconds(300)));
  r->group->crash_primary();
  EXPECT_TRUE(run_until(r->sim(), [&] { return d.done(); }, seconds(600)));
  EXPECT_TRUE(d.verify());
  return at_client.dump();
}

TEST(Determinism, IdenticalConfigurationsProduceIdenticalTraces) {
  const std::string a = run_scenario(11, 0.0, 42);
  const std::string b = run_scenario(11, 0.0, 42);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(Determinism, IdenticalLossyRunsMatchExactly) {
  const std::string a = run_scenario(11, 0.05, 42);
  const std::string b = run_scenario(11, 0.05, 42);
  EXPECT_EQ(a, b);
}

TEST(Determinism, DifferentHostSeedsProduceDifferentIsns) {
  // Different host seeds change ISNs, hence the trace.
  const std::string a = run_scenario(11, 0.0, 42);
  const std::string b = run_scenario(12, 0.0, 42);
  EXPECT_NE(a, b);
}

TEST(Determinism, DifferentLossSeedsDiverge) {
  const std::string a = run_scenario(11, 0.05, 42);
  const std::string b = run_scenario(11, 0.05, 43);
  EXPECT_NE(a, b);
}

// ------------------------------------------------------- batched path

struct BatchedRunResult {
  std::string trace;    // every frame the client saw, canonical form
  std::string metrics;  // client + secondary snapshots, canonical form
};

/// Counters/gauges/histograms of a host, canonicalized.
std::string canonical_metrics(const apps::Host& h) {
  std::ostringstream os;
  const obs::Snapshot snap = h.metrics_snapshot();
  for (const auto& [name, v] : snap.counters) os << name << '=' << v << '\n';
  for (const auto& [name, g] : snap.gauges)
    os << name << '=' << g.value << '/' << g.max << '\n';
  for (const auto& [name, hist] : snap.histograms)
    os << name << '=' << hist.count << '/' << hist.sum << '/' << hist.min << '/'
       << hist.max << '\n';
  return os.str();
}

/// Full failover scenario (transfer, mid-way crash, completion) on the
/// batched+GRO data path.
BatchedRunResult run_batched_scenario() {
  apps::TopologyParams lp;
  lp.seed = 11;
  lp.tcp.max_rto = seconds(5);
  lp.nic.rx_batch_max = 8;
  lp.nic.rx_batch_window = microseconds(150);
  auto r = test::make_replicated(lp);
  apps::FrameTracer at_client(r->sim(), r->client().nic());
  test::EchoDriver d(r->client(), r->primary().address(), kEchoPort, 24000, 4096);
  EXPECT_TRUE(run_until(r->sim(), [&] { return d.received().size() > 8000; },
                        seconds(300)));
  r->group->crash_primary();
  EXPECT_TRUE(run_until(r->sim(), [&] { return d.done(); }, seconds(600)));
  EXPECT_TRUE(d.verify());
  return {at_client.dump(),
          canonical_metrics(r->client()) + canonical_metrics(r->secondary())};
}

/// 64-bit FNV-1a of a string's bytes.
std::uint64_t fnv1a64(const std::string& s) {
  test::Fnv1a f;
  for (const unsigned char c : s) f.byte(c);
  return f.h;
}

TEST(Determinism, BatchedFailoverTraceMatchesRecordedDigest) {
  // Digest of the client's wire trace on the batched+GRO path. It moves
  // only with an intended change to what goes on the wire; re-record it
  // only then.
  constexpr std::uint64_t kRecordedTraceDigest = 0xd5e1bd84e0710290ull;
  const BatchedRunResult r = run_batched_scenario();
  ASSERT_FALSE(r.trace.empty());
  EXPECT_EQ(fnv1a64(r.trace), kRecordedTraceDigest);
  // Same seed, same bits — observability snapshot included.
  const BatchedRunResult again = run_batched_scenario();
  EXPECT_EQ(again.trace, r.trace);
  EXPECT_EQ(again.metrics, r.metrics);
}

// ---------------------------------------------------------- routed shapes

/// Echo transfer from the client across the routers with a mid-transfer
/// primary crash; with `move`, the client changes access segment first.
/// Returns every frame the client saw, canonical form.
std::string routed_failover_trace(apps::TopologyParams tp, bool move = false) {
  auto r = test::make_replicated(tp);
  apps::FrameTracer at_client(r->sim(), r->client().nic());
  test::EchoDriver d(r->client(), r->primary().address(), kEchoPort, 30000, 1500);
  if (move) {
    EXPECT_TRUE(run_until(r->sim(), [&] { return d.received().size() > 6000; },
                          seconds(300)));
    r->topo->move_client();
  }
  EXPECT_TRUE(run_until(r->sim(), [&] { return d.received().size() > 12000; },
                        seconds(300)));
  r->group->crash_primary();
  EXPECT_TRUE(run_until(r->sim(), [&] { return d.done(); }, seconds(600)));
  EXPECT_TRUE(d.verify());
  return at_client.dump();
}

TEST(Determinism, ArpColdRoutedRunsRepeatInOneProcess) {
  // Every run resolves the router by ARP, so the router's MACs are on the
  // client's wire. They must not depend on what the process built before.
  const std::string a = routed_failover_trace({.seed = 12, .warm_arp = false, .hops = 1});
  const std::string b = routed_failover_trace({.seed = 12, .warm_arp = false, .hops = 1});
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

// Digests of the client's wire trace on each routed shape. Like the LAN
// digest above they move only with an intended change to the wire.
TEST(Determinism, RoutedFailoverTraceMatchesRecordedDigest) {
  EXPECT_EQ(fnv1a64(routed_failover_trace({.seed = 12, .hops = 1})),
            0x042be0e5f7c40453ull);
}

TEST(Determinism, RouteAnnouncedTraceMatchesRecordedDigest) {
  // The secondary on its own LAN, takeover by host route: an FTP get with
  // the primary crashing mid-transfer, as in the Wan2Failover matrix.
  apps::TopologyParams tp{.seed = 13, .hops = 2, .separate_secondary_lan = true};
  tp.wan_link.bandwidth_bps = 4'000'000;
  tp.wan_link.propagation = milliseconds(5);
  core::FailoverConfig cfg;
  cfg.ports = {21, 20};
  cfg.announcer = std::make_shared<core::RouteAnnouncer>();
  cfg.mirror_inbound = true;
  const Bytes file = apps::deterministic_payload(100 * 1024, 10);
  std::unique_ptr<test::Replicated> r;  // outlives the servers
  std::vector<std::unique_ptr<apps::FtpServer>> ftp;
  r = test::make_replicated(tp, cfg, [&](apps::Host& h) {
    ftp.push_back(std::make_unique<apps::FtpServer>(h.tcp()));
    ftp.back()->add_file("f.bin", file);
  });
  apps::FrameTracer at_client(r->sim(), r->client().nic());
  apps::FtpClient client(r->client().tcp(), r->primary().address());
  bool logged_in = false, done = false;
  Bytes got;
  client.login([&](bool ok) { logged_in = ok; });
  ASSERT_TRUE(run_until(r->sim(), [&] { return logged_in; }, seconds(120)));
  client.get("f.bin", [&](bool, Bytes b) {
    got = std::move(b);
    done = true;
  });
  ASSERT_TRUE(run_until(r->sim(), [&] {
    return r->client().tcp().connection_count() >= 2;
  }, seconds(120)));
  r->sim().run_for(milliseconds(100));
  r->group->crash_primary();
  ASSERT_TRUE(run_until(r->sim(), [&] { return done; }, seconds(1200)));
  EXPECT_EQ(got, file);
  EXPECT_EQ(fnv1a64(at_client.dump()), 0x9835513cc354a25aull);
}

TEST(Determinism, ThreeHopTraceMatchesRecordedDigest) {
  EXPECT_EQ(fnv1a64(routed_failover_trace({.seed = 13, .hops = 3})),
            0xbb9e9beebdb175bfull);
}

TEST(Determinism, MovedClientTraceMatchesRecordedDigest) {
  EXPECT_EQ(fnv1a64(routed_failover_trace({.seed = 14, .hops = 1}, /*move=*/true)),
            0x026cfdba482e2928ull);
}

TEST(Determinism, SimulatorTimeIsIndependentOfWallClock) {
  // Two simulators stepped in interleaved order still agree event-wise.
  sim::Simulator s1, s2;
  std::ostringstream log1, log2;
  auto fill = [](sim::Simulator& s, std::ostringstream& log) {
    for (int i = 0; i < 50; ++i) {
      s.schedule_after(static_cast<SimDuration>((i * 37) % 19), [&log, i, &s] {
        log << i << '@' << s.now() << ';';
      });
    }
  };
  fill(s1, log1);
  fill(s2, log2);
  // Interleave stepping.
  bool any = true;
  while (any) {
    any = false;
    if (s1.step()) any = true;
    if (s2.step()) any = true;
  }
  EXPECT_EQ(log1.str(), log2.str());
}

}  // namespace
}  // namespace tfo
