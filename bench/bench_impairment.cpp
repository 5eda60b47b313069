// Experiment E6: transfer behaviour over adversarial wires — the impairment
// profile matrix (uniform/bursty loss, duplication, reorder jitter, byte
// corruption) run in steady state and across a primary crash. Every run is
// judged by the soak oracles (stream integrity, no client RST, corrupted
// copies caught at receive-path checksums, conservation + registry mirror)
// and the verdicts land in BENCH_impairment.json's "profiles" array.
//
// Profiles and seeds are the exact ones tests/impairment_soak_test.cpp pins
// (shared via tests/impairment_util.hpp), so a red oracle here reproduces
// under the soak test with the same seed.
#include "bench_util.hpp"
#include "impairment_util.hpp"

namespace tfo::bench {
namespace {

std::string impairment_params_json(const net::ImpairmentParams& p) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("loss").value(p.loss);
  w.key("gilbert").begin_object();
  w.key("p_enter_bad").value(p.gilbert.p_enter_bad);
  w.key("p_exit_bad").value(p.gilbert.p_exit_bad);
  w.key("loss_good").value(p.gilbert.loss_good);
  w.key("loss_bad").value(p.gilbert.loss_bad);
  w.end_object();
  w.key("duplicate").value(p.duplicate);
  w.key("duplicate_delay_ns").value(static_cast<std::int64_t>(p.duplicate_delay));
  w.key("reorder").value(p.reorder);
  w.key("reorder_delay_ns").value(static_cast<std::int64_t>(p.reorder_delay));
  w.key("corrupt").value(p.corrupt);
  w.key("corrupt_max_bytes").value(p.corrupt_max_bytes);
  w.key("seed").value(p.seed);
  w.end_object();
  return w.str();
}

struct RunResult {
  bool completed = false;
  double transfer_ms = -1;
  net::Impairment::Counters c;
  // The soak oracles, in the order they are reported.
  bool stream_intact = false;
  bool no_client_rst = false;
  bool corruption_caught = true;  // vacuously true when nothing was corrupted
  bool conserved = false;
  bool mirror_consistent = false;

  bool all_green() const {
    return completed && stream_intact && no_client_rst && corruption_caught &&
           conserved && mirror_consistent;
  }
};

/// One matrix cell: an echo transfer under `imp`, optionally with the
/// primary crashed at one third of the stream. Mirrors the soak test run
/// for run, so the pinned seeds reproduce bit-for-bit.
RunResult run_profile(const net::ImpairmentParams& imp, std::uint64_t seed,
                      bool fail_primary, std::size_t total,
                      BenchJson* json = nullptr) {
  apps::TopologyParams lp;
  lp.medium.impairment = imp;
  lp.medium.impairment.seed = seed;
  lp.tcp.max_rto = seconds(5);  // keep recovery seconds-scale under loss
  core::FailoverConfig cfg;
  cfg.heartbeat_period = milliseconds(5);
  cfg.failure_timeout = milliseconds(200);
  auto r = test::make_replicated(lp, cfg);
  auto& eng = r->topo->wire->impairment();
  eng.set_target(test::processed_by);
  eng.bind_registry(r->client().metrics());
  test::RstCounter rsts(r->sim(), r->client().nic());

  const SimTime start = r->sim().now();
  test::EchoDriver d(r->client(), r->primary().address(), test::kEchoPort,
                     total, 1500);
  RunResult res;
  if (fail_primary) {
    if (!test::run_until(r->sim(),
                         [&] { return d.received().size() > total / 3; },
                         seconds(600))) {
      return res;
    }
    r->group->crash_primary();
  }
  if (!test::run_until(r->sim(), [&] { return d.done(); }, seconds(1200))) {
    return res;
  }
  res.completed = true;
  res.transfer_ms = to_milliseconds(static_cast<SimDuration>(r->sim().now() - start));
  res.stream_intact = d.verify();
  res.no_client_rst = rsts.count() == 0;

  // Freeze the pipeline and drain in-flight delayed copies so the
  // conservation audit is exact (heartbeat traffic never stops).
  eng.configure({});
  r->sim().run_for(seconds(1));
  res.c = eng.counters();
  if (res.c.corrupted > 0) {
    res.corruption_caught = test::checksum_rejects(*r) >= 1;
  }
  res.conserved = eng.conserved();
  const auto& reg = r->client().metrics();
  res.mirror_consistent =
      reg.counter_value("net.impairment.offered") == res.c.offered &&
      reg.counter_value("net.impairment.dropped") == res.c.dropped &&
      reg.counter_value("net.impairment.duplicated") == res.c.duplicated &&
      reg.counter_value("net.impairment.reordered") == res.c.reordered &&
      reg.counter_value("net.impairment.corrupted") == res.c.corrupted &&
      reg.counter_value("net.impairment.delivered") == res.c.delivered &&
      reg.counter_value("net.impairment.detached") == res.c.detached;

  if (json) {
    json->capture_host(*r->topo->primary);
    json->capture_host(*r->topo->secondary);
    json->capture_host(r->client());
  }
  return res;
}

}  // namespace
}  // namespace tfo::bench

int main(int argc, char** argv) {
  using namespace tfo;
  using namespace tfo::bench;
  // --quick: a 3-profile subset with a shorter transfer — used by the CTest
  // step that validates the BENCH_impairment.json artifact schema.
  const bool quick = argc > 1 && std::string(argv[1]) == "--quick";
  print_header("E6: adversarial-wire soak matrix",
               "extension of paper §4 (loss cases) and §8 (teardown corner "
               "cases); no table in the paper");

  auto profiles = test::impairment_profiles();
  std::size_t total = 24000;
  if (quick) {
    // uniform2, corrupt2, chaos: one pure-loss, one pure-corruption, one
    // everything-at-once profile.
    decltype(profiles) subset;
    for (const auto& p : profiles) {
      if (p.name == "uniform2" || p.name == "corrupt2" || p.name == "chaos") {
        subset.push_back(p);
      }
    }
    profiles = std::move(subset);
    total = 8000;
  }

  BenchJson json("impairment");
  TextTable table({"profile", "mode", "seed", "transfer [ms]", "offered",
                   "dropped", "dup", "reord", "corrupt", "oracles"});
  bool captured = false;
  bool all_green = true;
  // Seeds match tests/impairment_soak_test.cpp: 101.. steady, 201.. failover.
  std::uint64_t seed = 101;
  for (const auto& prof : test::impairment_profiles()) {
    bool in_subset = false;
    for (const auto& p : profiles) in_subset |= p.name == prof.name;
    for (const bool fail_primary : {false, true}) {
      const std::uint64_t run_seed = seed + (fail_primary ? 100 : 0);
      if (!in_subset) continue;
      const auto res = run_profile(prof.imp, run_seed, fail_primary, total,
                                   captured ? nullptr : &json);
      captured = captured || res.completed;
      all_green = all_green && res.all_green();
      const std::string mode = fail_primary ? "failover" : "steady";
      table.add_row({prof.name, mode, std::to_string(run_seed),
                     res.completed ? TextTable::num(res.transfer_ms, 1) : "-",
                     std::to_string(res.c.offered), std::to_string(res.c.dropped),
                     std::to_string(res.c.duplicated),
                     std::to_string(res.c.reordered),
                     std::to_string(res.c.corrupted),
                     res.all_green() ? "green" : "RED"});
      net::ImpairmentParams imp = prof.imp;
      imp.seed = run_seed;
      json.add_profile(prof.name + "_" + mode, run_seed,
                       impairment_params_json(imp),
                       {{"completed", res.completed},
                        {"stream_intact", res.stream_intact},
                        {"no_client_rst", res.no_client_rst},
                        {"corruption_caught", res.corruption_caught},
                        {"conserved", res.conserved},
                        {"mirror_consistent", res.mirror_consistent}});
    }
    ++seed;
  }
  std::printf("%s", table.render().c_str());
  std::printf("oracles: stream byte-identical, no RST at the client, corrupted\n"
              "copies caught by receive-path checksums, conservation identity\n"
              "and registry mirror exact. All must be green.\n");
  json.add_table("adversarial-wire soak matrix", table);
  if (!json.write()) return 1;
  return all_green ? 0 : 1;
}
