// Reproducibility: the entire simulation — media, stacks, bridges,
// failures — is deterministic. Identical configurations produce
// bit-identical wire traces; changing a seed changes the trace. This is
// the property that makes every number in EXPERIMENTS.md regenerable.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>

#include "apps/trace.hpp"
#include "failover_fixture.hpp"

namespace tfo {
namespace {

using test::kEchoPort;
using test::run_until;

/// Runs a full scenario (transfer + mid-way primary crash + completion)
/// and returns a canonical trace of every frame the client saw.
std::string run_scenario(std::uint64_t lan_seed, double loss, std::uint64_t loss_seed) {
  apps::LanParams lp;
  lp.seed = lan_seed;
  lp.medium.impairment.loss = loss;
  lp.medium.impairment.seed = loss_seed;
  lp.tcp.max_rto = seconds(5);
  auto r = test::make_replicated_lan(lp);
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
  apps::LanParams lp;
  lp.seed = 11;
  lp.tcp.max_rto = seconds(5);
  lp.nic.rx_batch_max = 8;
  lp.nic.rx_batch_window = microseconds(150);
  auto r = test::make_replicated_lan(lp);
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
