// Experiments E1, E4 and E12: the client-observed takeover stall. One
// measurement crashes the head of a replica chain mid-transfer and times
// the longest stall in the client's byte stream, the crash → transfer-
// complete time, the detection time, the route announcer's convergence
// and the resets the client saw. The sweep varies one axis of the shape
// at a time around a base point (LAN, 2 replicas, 50 ms detector, T = 0,
// gratuitous ARP):
//
//   * E1, detector timeout × ARP-table update latency T: the interval T
//     the paper's §5 analyses qualitatively (EXPERIMENTS.md E1 keeps the
//     table of the §5 takeover, which predates the takeover kick);
//   * E4, chain length 2–4: the daisy-chaining of §1;
//   * E12, router hops 1–4 × {gratuitous ARP, host-route announcer}: the
//     takeover announced across subnets.
#include "bench_util.hpp"
#include "core/replica_chain.hpp"
#include "core/takeover_announcer.hpp"
#include "failover_fixture.hpp"  // test::EchoDriver (shared with the tests)
#include "impairment_util.hpp"   // test::RstCounter

namespace tfo::bench {
namespace {

/// Where a takeover happens and how it is detected and announced.
struct Shape {
  const char* axis;  // the axis this point varies: "grid", "chain" or "hops"
  int hops = 0;
  std::size_t replicas = 2;
  SimDuration detector = milliseconds(50);
  SimDuration arp_latency = 0;  // T: a takeover ARP update takes effect late
  bool route = false;           // host-route announcer instead of GARP
};

struct Takeover {
  SimDuration detect = -1;     // crash → the new head's takeover
  SimDuration stall = -1;      // longest gap in client progress
  SimDuration complete = -1;   // crash → transfer complete
  SimDuration converged = 0;   // route announcer: advert → first router ack
  std::uint64_t resets = 0;    // RSTs reaching the client NIC
};

/// Runs a 300 KB echo in 8 KB writes over `shape`, crashes the head after
/// 100 KB and times the takeover. Returns a negative stall when the
/// transfer did not complete intact.
Takeover measure(const Shape& shape, std::uint64_t seed, BenchJson* json) {
  apps::TopologyParams tp = paper_lan_params();
  tp.seed = seed;
  tp.hops = shape.hops;
  tp.arp.update_latency = shape.arp_latency;
  tp.wan_link.bandwidth_bps = 20'000'000;
  tp.wan_link.propagation = milliseconds(1);
  core::FailoverConfig cfg;
  cfg.ports = {kPort};
  cfg.heartbeat_period = std::max<SimDuration>(shape.detector / 5, milliseconds(1));
  cfg.failure_timeout = shape.detector;
  std::shared_ptr<core::RouteAnnouncer> ra;
  if (shape.route) {
    ra = std::make_shared<core::RouteAnnouncer>();
    cfg.announcer = ra;
  }

  // Members are destroyed before the hosts and the hosts before the
  // topology whose simulator their connections' timers run on.
  const auto topo = apps::make_topology(tp);
  std::vector<std::unique_ptr<apps::Host>> extra;
  std::vector<apps::Host*> servers = {topo->primary.get(), topo->secondary.get()};
  for (std::size_t i = 2; i < shape.replicas; ++i) {
    apps::HostParams hp;
    hp.name = "backup" + std::to_string(i);
    hp.addr = ip::Ipv4::parse(("10.0.0." + std::to_string(20 + i)).c_str());
    hp.nic = tp.nic;
    hp.tcp = tp.tcp;
    hp.seed = 100 + i;
    extra.push_back(std::make_unique<apps::Host>(topo->sim, hp, *topo->wire));
    servers.push_back(extra.back().get());
  }
  if (!extra.empty()) {
    // Warm every ARP cache on the LAN, as make_topology does for its hosts.
    std::vector<apps::Host*> lan = servers;
    lan.push_back(topo->client.get());
    for (apps::Host* a : lan) {
      for (apps::Host* b : lan) {
        if (a != b) a->arp().add_static(b->address(), b->nic().mac());
      }
    }
  }
  std::vector<std::unique_ptr<apps::EchoServer>> echoes;
  for (apps::Host* s : servers) {
    echoes.push_back(std::make_unique<apps::EchoServer>(s->tcp(), kPort));
  }
  core::ReplicaChain chain(servers, cfg);
  chain.start();
  sim::Simulator& sim = topo->sim;
  sim.run_for(milliseconds(100));

  test::RstCounter rsts(sim, topo->client->nic());
  test::EchoDriver d(*topo->client, servers[0]->address(), kPort, 300 * 1024, 8192);
  if (!test::run_until(sim, [&] { return d.received().size() > 100 * 1024; },
                       seconds(600))) {
    return {};
  }
  const SimTime crash_at = sim.now();
  chain.crash(0);

  SimTime last_progress = crash_at;
  std::size_t last_size = d.received().size();
  SimDuration longest = 0;
  const SimTime deadline = crash_at + static_cast<SimTime>(seconds(600));
  while (!d.done() && sim.pending() > 0 && sim.now() < deadline) {
    sim.step();
    if (d.received().size() != last_size) {
      longest = std::max<SimDuration>(longest,
                                      static_cast<SimDuration>(sim.now() - last_progress));
      last_size = d.received().size();
      last_progress = sim.now();
    }
  }
  if (!d.done() || !d.verify()) return {};
  Takeover m;
  m.detect = static_cast<SimDuration>(chain.divert_bridge(1)->takeover_time() - crash_at);
  m.stall = longest;
  m.complete = static_cast<SimDuration>(sim.now() - crash_at);
  m.converged = ra ? ra->convergence_delay() : 0;
  m.resets = rsts.count();
  if (json) {
    // Snapshot the registries and failover timelines while the testbed is
    // alive: the crashed head's log shows the pre-crash merge activity,
    // the new head's shows the takeover.
    json->capture_host(*servers[0]);
    json->capture_host(*servers[1]);
    json->capture_host(*topo->client);
  }
  return m;
}

/// One shape over its seeds.
struct Point {
  Shape shape;
  std::uint64_t seeds = 0;
  std::uint64_t runs = 0;  // seeds whose transfer completed intact
  std::uint64_t resets = 0;
  Sampler detect_ns, stall_ns, complete_ns, converged_ns;
};

double ns_at(const Sampler& s, double pct = 50.0) {
  return s.empty() ? 0.0 : s.percentile(pct);
}
std::string ms_cell(const Sampler& s, double pct = 50.0, int prec = 1) {
  return s.empty() ? std::string("-") : TextTable::num(s.percentile(pct) / 1e6, prec);
}

Point sweep_point(const Shape& shape, std::uint64_t seeds, BenchJson& json,
                  bool& captured) {
  Point p;
  p.shape = shape;
  p.seeds = seeds;
  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    const Takeover m = measure(shape, seed, captured ? nullptr : &json);
    if (m.stall < 0) continue;
    captured = true;
    ++p.runs;
    p.resets += m.resets;
    p.detect_ns.add(static_cast<double>(m.detect));
    p.stall_ns.add(static_cast<double>(m.stall));
    p.complete_ns.add(static_cast<double>(m.complete));
    p.converged_ns.add(static_cast<double>(m.converged));
  }
  return p;
}

std::string ms_label(SimDuration d) { return TextTable::num(to_milliseconds(d), 0) + "ms"; }

}  // namespace
}  // namespace tfo::bench

int main() {
  using namespace tfo;
  using namespace tfo::bench;
  print_header("E1/E4/E12: client-observed takeover stall",
               "extension of paper §5 (interval T, announcement reach) and §1 "
               "(daisy-chaining); no table in the paper");

  constexpr std::uint64_t kSeeds = 3;
  std::vector<Shape> shapes;
  for (int to : {10, 50, 100, 500}) {
    for (int arp : {0, 10, 100, 500}) {
      shapes.push_back({.axis = "grid", .detector = milliseconds(to),
                        .arp_latency = milliseconds(arp)});
    }
  }
  for (std::size_t n : {2u, 3u, 4u}) shapes.push_back({.axis = "chain", .replicas = n});
  for (const bool route : {false, true}) {
    for (int hops : {1, 2, 3, 4}) {
      shapes.push_back({.axis = "hops", .hops = hops, .route = route});
    }
  }

  BenchJson json("failover_time");
  bool captured = false;
  std::vector<Point> points;
  for (const Shape& s : shapes) points.push_back(sweep_point(s, kSeeds, json, captured));

  TextTable grid({"detector timeout", "ARP latency T", "detect [ms]",
                  "longest client stall [ms]", "crash->complete [ms]"});
  TextTable chain({"replicas", "detect [ms]", "head-crash stall [ms]",
                   "crash->complete [ms]"});
  TextTable hops({"announcer", "hops", "runs", "takeover p50 [ms]", "takeover p99 [ms]",
                  "route convergence [ms]", "client RSTs"});
  obs::JsonWriter sw;
  sw.begin_object();
  sw.key("points").begin_array();
  bool clean = true;
  for (const Point& p : points) {
    const Shape& s = p.shape;
    const std::string axis = s.axis;
    if (axis == "grid") {
      grid.add_row({ms_label(s.detector), ms_label(s.arp_latency), ms_cell(p.detect_ns),
                    ms_cell(p.stall_ns), ms_cell(p.complete_ns)});
    } else if (axis == "chain") {
      chain.add_row({std::to_string(s.replicas), ms_cell(p.detect_ns), ms_cell(p.stall_ns),
                     ms_cell(p.complete_ns)});
    } else {
      hops.add_row({s.route ? "route" : "garp", std::to_string(s.hops),
                    std::to_string(p.runs), ms_cell(p.stall_ns), ms_cell(p.stall_ns, 99.0),
                    s.route ? ms_cell(p.converged_ns, 50.0, 3) : "-",
                    std::to_string(p.resets)});
    }
    sw.begin_object();
    sw.key("axis").value(axis);
    sw.key("hops").value(static_cast<std::uint64_t>(s.hops));
    sw.key("replicas").value(static_cast<std::uint64_t>(s.replicas));
    sw.key("detector_ns").value(static_cast<std::uint64_t>(s.detector));
    sw.key("arp_latency_ns").value(static_cast<std::uint64_t>(s.arp_latency));
    sw.key("announcer").value(s.route ? "route" : "garp");
    sw.key("seeds").value(p.seeds);
    sw.key("runs").value(p.runs);
    sw.key("detect_ns").value(ns_at(p.detect_ns));
    sw.key("stall_p50_ns").value(ns_at(p.stall_ns));
    sw.key("stall_p99_ns").value(ns_at(p.stall_ns, 99.0));
    sw.key("complete_ns").value(ns_at(p.complete_ns));
    sw.key("route_converged_ns").value(ns_at(p.converged_ns));
    sw.key("client_resets").value(p.resets);
    sw.end_object();
    if (p.runs != p.seeds || p.resets != 0) clean = false;
  }
  sw.end_array();
  sw.end_object();

  std::printf("%s", grid.render().c_str());
  std::printf("expected shape: at T = 0, completion ~ detector timeout + a few\n"
              "RTTs (the takeover kick resends at once); a late ARP update adds\n"
              "T and can cost up to one more detection interval.\n\n");
  std::printf("%s", chain.render().c_str());
  std::printf("expected shape: the stall stays flat in the chain length (head\n"
              "promotion runs the takeover and its kick).\n\n");
  std::printf("%s", hops.render().c_str());
  std::printf("expected shape: the stall is the detection time plus the kick's\n"
              "trip to the client, nearly flat in hop count, and the two announcers\n"
              "agree; the route announcer also reports its advert->ack convergence.\n"
              "Client-visible resets must be exactly zero everywhere.\n");
  json.add_table("failover time vs detector timeout and ARP latency", grid);
  json.add_table("head-crash stall vs chain length", chain);
  json.add_table("takeover latency vs hop count and announcer", hops);
  json.add_section("takeover", sw.str());
  if (!json.write()) return 1;
  if (!clean) {
    std::fprintf(stderr, "FAIL: a point lost a run or reset a client\n");
    return 1;
  }
  return 0;
}
