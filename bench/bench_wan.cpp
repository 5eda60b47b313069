// Experiment E12: takeover latency observed by a client several
// routers away from the replica pair, gratuitous-ARP vs. host-route
// announcement. The paper's §5 analysis covers the shared-segment case
// (GARP updates the last-hop ARP tables); the routed announcer extends it
// across subnets, and this bench measures what the client pays for each as
// the chain between it and the servers grows.
#include "bench_util.hpp"
#include "core/takeover_announcer.hpp"
#include "failover_fixture.hpp"   // test::EchoDriver
#include "impairment_util.hpp"    // test::RstCounter

namespace tfo::bench {
namespace {

struct WanMeasurement {
  double stall_ns = -1;      // longest gap in client progress around the crash
  double converged_ns = 0;   // route announcer: advert -> first router ack
  std::uint64_t resets = 0;  // RSTs reaching the client NIC (must stay 0)
};

WanMeasurement measure(int hops, bool route_announcer, std::uint64_t seed,
                       BenchJson* json = nullptr) {
  apps::Wan2Params wp;
  wp.hops = hops;
  wp.wan_link.bandwidth_bps = 20'000'000;
  wp.wan_link.propagation = milliseconds(1);
  wp.seed = 100 * seed + static_cast<std::uint64_t>(hops);
  auto wan = apps::make_wan2(wp);

  core::FailoverConfig cfg;
  cfg.ports = {kPort};
  std::shared_ptr<core::RouteAnnouncer> ra;
  if (route_announcer) {
    ra = std::make_shared<core::RouteAnnouncer>();
    cfg.announcer = ra;
  }
  core::ReplicaGroup group(*wan->primary, *wan->secondary, cfg);
  apps::EchoServer echo_p(wan->primary->tcp(), kPort);
  apps::EchoServer echo_s(wan->secondary->tcp(), kPort);
  group.start();
  wan->sim.run_for(milliseconds(50));

  test::RstCounter rsts(wan->sim, wan->client->nic());
  test::EchoDriver d(*wan->client, wan->primary->address(), kPort, 160 * 1024,
                     4096);
  const SimTime warm_deadline =
      wan->sim.now() + static_cast<SimTime>(seconds(120));
  while (d.received().size() < 48 * 1024 && wan->sim.pending() > 0 &&
         wan->sim.now() < warm_deadline) {
    wan->sim.step();
  }
  if (d.received().size() < 48 * 1024) return {};
  group.crash_primary();

  SimTime last_progress = wan->sim.now();
  std::size_t last_size = d.received().size();
  SimDuration longest = 0;
  const SimTime deadline = wan->sim.now() + static_cast<SimTime>(seconds(600));
  while (!d.done() && wan->sim.pending() > 0 && wan->sim.now() < deadline) {
    wan->sim.step();
    if (d.received().size() != last_size) {
      longest = std::max<SimDuration>(
          longest, static_cast<SimDuration>(wan->sim.now() - last_progress));
      last_size = d.received().size();
      last_progress = wan->sim.now();
    }
  }
  if (!d.done() || !d.verify()) return {};

  WanMeasurement m;
  m.stall_ns = static_cast<double>(longest);
  m.converged_ns =
      ra ? static_cast<double>(ra->convergence_delay()) : 0.0;
  m.resets = rsts.count();
  if (json) {
    json->capture_host(*wan->secondary);
    json->capture_host(*wan->client);
  }
  return m;
}

}  // namespace
}  // namespace tfo::bench

int main(int argc, char** argv) {
  using namespace tfo;
  using namespace tfo::bench;
  const bool quick = argc > 1 && std::string(argv[1]) == "--quick";
  print_header("E12: takeover latency vs. router hop count",
               "extension of paper §5 (takeover announcement reach)");

  BenchJson json("wan");
  TextTable table({"announcer", "hops", "runs", "takeover p50 [ms]",
                   "takeover p99 [ms]", "route convergence [ms]",
                   "client RSTs"});
  std::vector<int> hop_counts = {1, 2, 3, 4};
  std::uint64_t seeds = 3;
  if (quick) {
    hop_counts = {1, 2};
    seeds = 1;
  }

  obs::JsonWriter sw;
  sw.begin_object();
  sw.key("points").begin_array();
  bool captured = false;
  bool all_clean = true;
  for (const bool route : {false, true}) {
    for (int hops : hop_counts) {
      Sampler stall_ns, converged_ns;
      std::uint64_t resets = 0, runs = 0;
      for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
        const auto m =
            measure(hops, route, seed, captured ? nullptr : &json);
        if (m.stall_ns < 0) continue;
        captured = true;
        ++runs;
        stall_ns.add(m.stall_ns);
        converged_ns.add(m.converged_ns);
        resets += m.resets;
      }
      if (runs == 0) {
        all_clean = false;
        continue;
      }
      const double p50 = stall_ns.percentile(50.0);
      const double p99 = stall_ns.percentile(99.0);
      const double conv = route ? converged_ns.median() : 0.0;
      table.add_row({route ? "route" : "garp", TextTable::num(hops, 0),
                     TextTable::num(static_cast<double>(runs), 0),
                     TextTable::num(p50 / 1e6, 1), TextTable::num(p99 / 1e6, 1),
                     route ? TextTable::num(conv / 1e6, 3) : "-",
                     TextTable::num(static_cast<double>(resets), 0)});
      sw.begin_object();
      sw.key("announcer").value(route ? "route" : "garp");
      sw.key("hops").value(static_cast<std::uint64_t>(hops));
      sw.key("runs").value(runs);
      sw.key("takeover_p50_ns").value(p50);
      sw.key("takeover_p99_ns").value(p99);
      sw.key("route_converged_ns").value(conv);
      sw.key("client_resets").value(resets);
      sw.end_object();
      if (resets != 0) all_clean = false;
    }
  }
  sw.end_array();
  sw.end_object();
  std::printf("%s", table.render().c_str());
  std::printf("expected shape: the stall is dominated by failure detection and\n"
              "is nearly flat in hop count for both announcers — GARP fixes the\n"
              "last-hop ARP table, the route advert fixes the first router; the\n"
              "route announcer additionally reports its advert->ack convergence\n"
              "delay. Client-visible resets must be exactly zero everywhere.\n");
  json.add_table("takeover latency vs hop count and announcer", table);
  json.add_section("wan", sw.str());
  if (!all_clean) {
    std::fprintf(stderr, "FAIL: a configuration lost a run or reset a client\n");
    return 1;
  }
  if (!json.write()) return 1;
  return 0;
}
