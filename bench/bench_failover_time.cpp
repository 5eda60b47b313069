// Experiment E1 (extension of the paper's §5 analysis): client-observed
// failover time — the longest stall in a client's byte stream around a
// primary crash, and the time from the crash until the transfer completes
// — swept over the fault-detector timeout and the ARP-table update
// latency T that §5 analyses qualitatively. EXPERIMENTS.md E1 keeps the
// table of the paper's §5 takeover, which predates the takeover kick.
#include "bench_util.hpp"
#include "failover_fixture.hpp"  // test::EchoDriver (shared with the tests)

namespace tfo::bench {
namespace {

/// Crashes the primary mid-transfer and returns the longest stall (ms) in
/// client progress, the crash → transfer-complete time, and the takeover
/// latency reported by the bridge.
struct FailoverMeasurement {
  double longest_stall_ms = -1;
  double complete_ms = -1;
  double detect_ms = -1;
};

FailoverMeasurement measure(SimDuration fd_timeout, SimDuration arp_latency,
                            std::uint64_t seed, BenchJson* json = nullptr) {
  apps::LanParams lp = paper_lan_params();
  lp.arp.update_latency = arp_latency;
  lp.seed = seed;
  core::FailoverConfig cfg;
  cfg.heartbeat_period = std::max<SimDuration>(fd_timeout / 5, milliseconds(1));
  cfg.failure_timeout = fd_timeout;

  // Declared before the servers: the LAN (and its simulator) must
  // outlive the servers' connections at scope exit.
  Testbed t;
  std::unique_ptr<apps::EchoServer> e1, e2;
  t = make_testbed(true, [&](apps::Host& h) {
    auto e = std::make_unique<apps::EchoServer>(h.tcp(), kPort);
    (e1 ? e2 : e1) = std::move(e);
  }, lp, cfg);
  t.sim().run_for(milliseconds(100));

  test::EchoDriver d(t.client(), t.server_addr(), kPort, 300 * 1024, 8192);
  if (!t.run_until([&] { return d.received().size() > 100 * 1024; }, seconds(600))) {
    return {};
  }
  const SimTime crash_at = t.sim().now();
  t.lan->primary->fail();

  FailoverMeasurement m;
  SimTime last_progress = t.sim().now();
  std::size_t last_size = d.received().size();
  SimDuration longest = 0;
  const SimTime deadline = t.sim().now() + static_cast<SimTime>(seconds(600));
  while (!d.done() && t.sim().pending() > 0 && t.sim().now() < deadline) {
    t.sim().step();
    if (d.received().size() != last_size) {
      longest = std::max<SimDuration>(
          longest, static_cast<SimDuration>(t.sim().now() - last_progress));
      last_size = d.received().size();
      last_progress = t.sim().now();
    }
  }
  if (!d.done() || !d.verify()) return {};
  m.longest_stall_ms = to_milliseconds(longest);
  m.complete_ms = to_milliseconds(static_cast<SimDuration>(t.sim().now() - crash_at));
  m.detect_ms = to_milliseconds(
      static_cast<SimDuration>(t.group->secondary_bridge().takeover_time() - crash_at));
  if (json) {
    // Snapshot every host's registry and failover timeline while the
    // testbed is still alive: the crashed primary's event log shows the
    // pre-crash merge activity, the secondary's shows the takeover.
    json->capture_host(*t.lan->primary);
    json->capture_host(*t.lan->secondary);
    json->capture_host(t.client());
  }
  return m;
}

}  // namespace
}  // namespace tfo::bench

int main(int argc, char** argv) {
  using namespace tfo;
  using namespace tfo::bench;
  // --quick: single configuration, single seed — used by the CTest step
  // that validates the BENCH_failover_time.json artifact schema.
  const bool quick = argc > 1 && std::string(argv[1]) == "--quick";
  print_header("E1: client-observed failover time",
               "extension of paper §5 (interval T analysis); no table in the paper");

  BenchJson json("failover_time");
  TextTable table({"detector timeout", "ARP latency T", "detect [ms]",
                   "longest client stall [ms]", "crash->complete [ms]"});
  std::vector<SimDuration> timeouts = {milliseconds(10), milliseconds(50),
                                       milliseconds(100), milliseconds(500)};
  std::vector<SimDuration> arps = {0, milliseconds(10), milliseconds(100),
                                   milliseconds(500)};
  std::uint64_t seeds = 3;
  if (quick) {
    timeouts = {milliseconds(50)};
    arps = {milliseconds(10)};
    seeds = 1;
  }
  bool captured = false;
  for (SimDuration to : timeouts) {
    for (SimDuration arp : arps) {
      Sampler stall, complete, detect;
      for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
        const auto m = measure(to, arp, seed, captured ? nullptr : &json);
        if (m.longest_stall_ms >= 0) {
          captured = true;
          stall.add(m.longest_stall_ms);
          complete.add(m.complete_ms);
          detect.add(m.detect_ms);
        }
      }
      auto median = [](const Sampler& s) {
        return s.empty() ? std::string("-") : TextTable::num(s.median(), 1);
      };
      table.add_row({TextTable::num(to_milliseconds(to), 0) + "ms",
                     TextTable::num(to_milliseconds(arp), 0) + "ms", median(detect),
                     median(stall), median(complete)});
    }
  }
  std::printf("%s", table.render().c_str());
  std::printf("expected shape: at T = 0, completion ~ detector timeout + a few\n"
              "RTTs (the takeover kick resends at once); a late ARP update adds\n"
              "T and can cost up to one more detection interval.\n");
  json.add_table("failover time vs detector timeout and ARP latency", table);
  if (!json.write()) return 1;
  return 0;
}
