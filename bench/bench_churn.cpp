// Churn bench: an open-loop HTTP load generator (apps::LoadGen, the
// jtest shape) drives the replicated web server at a configured
// connections/s rate — arrivals come from a seeded schedule, never from
// completions, so a stalling server faces undiminished offered load.
// Mid-run the primary is crashed: the bench reports sustained requests/s,
// established connections, and the client-visible p50/p99 request latency
// *across the failover*, at churn rates up to 10k conn/s.
//
// What the accept-path work has to sustain here:
//   * a real listen backlog — SYN bursts beyond it are dropped and
//     counted (tcp.listen_overflows), never allocated;
//   * TIME_WAIT recycling — at the top churn rate the client's ephemeral
//     port space wraps inside 2*MSL, so every reused 4-tuple lands on a
//     server connection still parked in TIME_WAIT and must displace it
//     via the newer-ISN criterion (tcp.time_wait_recycled);
//   * bounded memory — the run fails if process growth scales with the
//     total number of connections churned through.
//
// Artifact: BENCH_churn.json ("churn" section schema validated by
// scripts/check_bench_json.py).
#include <chrono>

#include "apps/echo.hpp"
#include "apps/http.hpp"
#include "apps/loadgen.hpp"
#include "bench_util.hpp"
#include "counting_alloc.hpp"

namespace tfo::bench {
namespace {

constexpr std::uint16_t kHttpPort = 80;
constexpr int kRequestsPerConn = 2;  // keep-alive depth

struct ChurnResult {
  double offered_cps = 0;
  double duration_s = 0;
  std::uint64_t started = 0;
  std::uint64_t established = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t requests_sent = 0;
  std::uint64_t responses_ok = 0;
  double requests_per_s = 0;
  double p50_ns = -1;
  double p99_ns = -1;
  double setup_p50_ns = -1;
  double setup_p99_ns = -1;
  /// Setups that took at least the client's initial SYN RTO: their first
  /// SYN overflowed the backlog (or was lost) and was retransmitted.
  std::uint64_t setup_retried = 0;
  /// p99 of the other setups. setup_p99_ns sits on the line between the
  /// two groups whenever about 1 % retried, so it jumps by the whole RTO
  /// on a small change in overflows; this one does not.
  double setup_p99_first_syn_ns = -1;
  std::uint64_t listen_overflows = 0;
  std::uint64_t tw_recycled = 0;
  std::uint64_t embryonic_reaped = 0;
  std::uint64_t growth_bytes = 0;
  double growth_per_conn = 0;
  double wall_s = 0;
  bool ok = false;
};

ChurnResult run_churn(double cps, SimDuration duration, BenchJson* json) {
  const auto wall_start = std::chrono::steady_clock::now();

  apps::TopologyParams lp = paper_lan_params();
  // Churn measures the accept path, not the paper's 100 Mb/s testbed:
  // gigabit wire, light per-frame processing. MSL is raised to 1 s so
  // that at 10k conn/s the client's 16384-port ephemeral space wraps
  // (1.64 s) inside 2*MSL and tuple reuse must go through TIME_WAIT
  // recycling rather than waiting out the quiet period.
  lp.medium.bandwidth_bps = 1'000'000'000;
  lp.nic.rx_processing = microseconds(2);
  lp.nic.rx_jitter = 0;
  lp.tcp.msl = seconds(1);

  core::FailoverConfig cfg;
  cfg.ports = {kHttpPort};

  std::unique_ptr<test::Replicated> t;
  std::unique_ptr<apps::HttpServer> w1, w2;
  t = test::make_replicated(lp, cfg, [&](apps::Host& h) {
    auto w = std::make_unique<apps::HttpServer>(h.tcp(), kHttpPort);
    w->add_document("/", apps::deterministic_payload(512, 7));
    w->add_document("/small", apps::deterministic_payload(128, 8));
    w->add_document("/big", apps::deterministic_payload(4096, 9));
    (w1 ? w2 : w1) = std::move(w);
  });
  t->sim().run_for(milliseconds(100));  // detectors and ARP settle

  apps::LoadGenConfig lg_cfg;
  lg_cfg.server = t->primary().address();
  lg_cfg.port = kHttpPort;
  lg_cfg.conns_per_sec = cps;
  lg_cfg.duration = duration;
  lg_cfg.requests_per_conn = kRequestsPerConn;
  lg_cfg.think_time = microseconds(200);
  lg_cfg.mix = {{"/", 6}, {"/small", 3}, {"/big", 1}};
  lg_cfg.seed = 42;
  apps::LoadGen lg(t->sim(), {&t->client().tcp()}, lg_cfg, &t->client().obs());

  const std::uint64_t bytes_baseline = heap_stats().live_bytes;

  lg.start();
  // The mid-run crash: half the arrival window is served by the primary,
  // the rest lands on (or diverts to) the secondary.
  t->sim().schedule_after(duration / 2, [&] { t->group->crash_primary(); });

  if (!test::run_until(t->sim(), [&] { return lg.done(); }, seconds(120))) {
    std::fprintf(stderr, "churn %.0f conn/s: %llu connections still live\n", cps,
                 static_cast<unsigned long long>(lg.live_conns()));
    return {};
  }
  // Drain: let server-side TIME_WAIT expire and sweeps run so the growth
  // figure measures leaks, not the quiet period.
  t->sim().run_for(2 * lp.tcp.msl + milliseconds(600));

  const std::uint64_t bytes_end = heap_stats().live_bytes;

  ChurnResult r;
  r.offered_cps = cps;
  r.duration_s = static_cast<double>(duration) / 1e9;
  r.started = lg.conns_started();
  r.established = lg.conns_established();
  r.completed = lg.conns_completed();
  r.failed = lg.conns_failed();
  r.requests_sent = lg.requests_sent();
  r.responses_ok = lg.responses_ok();
  r.requests_per_s = static_cast<double>(r.responses_ok) / r.duration_s;

  Sampler latency;
  for (SimDuration s : lg.latencies()) latency.add(static_cast<double>(s));
  if (!latency.empty()) {
    r.p50_ns = latency.percentile(50);
    r.p99_ns = latency.percentile(99);
  }
  Sampler setup;
  Sampler setup_first_syn;
  const SimDuration syn_rto = t->client().tcp().params().initial_rto;
  for (SimDuration s : lg.setup_latencies()) {
    setup.add(static_cast<double>(s));
    if (s >= syn_rto) {
      ++r.setup_retried;
    } else {
      setup_first_syn.add(static_cast<double>(s));
    }
  }
  if (!setup.empty()) {
    r.setup_p50_ns = setup.percentile(50);
    r.setup_p99_ns = setup.percentile(99);
  }
  if (!setup_first_syn.empty()) {
    r.setup_p99_first_syn_ns = setup_first_syn.percentile(99);
  }

  const auto host_ctr = [](const apps::Host& h, const char* name) {
    return h.obs().registry.counter_value(name);
  };
  r.listen_overflows = host_ctr(t->primary(), "tcp.listen_overflows") +
                       host_ctr(t->secondary(), "tcp.listen_overflows");
  r.tw_recycled = host_ctr(t->primary(), "tcp.time_wait_recycled") +
                  host_ctr(t->secondary(), "tcp.time_wait_recycled");
  r.embryonic_reaped = host_ctr(t->primary(), "bridge.embryonic_reaped");
  r.growth_bytes = bytes_end > bytes_baseline ? bytes_end - bytes_baseline : 0;
  r.growth_per_conn =
      r.started ? static_cast<double>(r.growth_bytes) / static_cast<double>(r.started)
                : 0;
  r.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           wall_start)
                 .count();
  r.ok = true;
  if (json) {
    json->capture_host(t->primary());
    json->capture_host(t->secondary());
    json->capture_host(t->client());
  }
  return r;
}

}  // namespace
}  // namespace tfo::bench

int main(int argc, char** argv) {
  using namespace tfo;
  using namespace tfo::bench;
  const bool quick = argc > 1 && std::string(argv[1]) == "--quick";
  print_header("E10: high-churn HTTP with mid-run failover",
               "extension of paper §9 (short keep-alive exchanges at up to "
               "10k conn/s across a primary crash)");

  struct Point {
    double cps;
    SimDuration duration;
  };
  const std::vector<Point> points =
      quick ? std::vector<Point>{{1'000, seconds(1)}, {2'500, seconds(1)}}
            : std::vector<Point>{{2'000, seconds(3)},
                                 {5'000, seconds(3)},
                                 {10'000, seconds(3)}};

  BenchJson json("churn");
  TextTable table({"offered conn/s", "started", "completed", "failed", "req/s",
                   "p50 [ms]", "p99 [ms]", "setup p99 [ms]", "retried",
                   "setup p99 1st SYN [ms]", "overflows", "tw recycled",
                   "growth/conn", "wall [s]"});
  std::vector<ChurnResult> results;
  for (const Point& p : points) {
    std::printf("\nrunning churn %.0f conn/s for %.1f s (failover at %.1f s) ...\n",
                p.cps, static_cast<double>(p.duration) / 1e9,
                static_cast<double>(p.duration) / 2e9);
    std::fflush(stdout);
    ChurnResult r = run_churn(p.cps, p.duration, results.empty() ? &json : nullptr);
    if (!r.ok) {
      std::fprintf(stderr, "FAIL: churn %.0f conn/s did not complete\n", p.cps);
      return 1;
    }
    table.add_row({TextTable::num(r.offered_cps, 0), std::to_string(r.started),
                   std::to_string(r.completed), std::to_string(r.failed),
                   TextTable::num(r.requests_per_s, 0),
                   TextTable::num(r.p50_ns / 1e6, 2),
                   TextTable::num(r.p99_ns / 1e6, 2),
                   TextTable::num(r.setup_p99_ns / 1e6, 2),
                   std::to_string(r.setup_retried),
                   TextTable::num(r.setup_p99_first_syn_ns / 1e6, 2),
                   std::to_string(r.listen_overflows),
                   std::to_string(r.tw_recycled),
                   TextTable::num(r.growth_per_conn, 0),
                   TextTable::num(r.wall_s, 1)});
    results.push_back(r);
  }
  std::printf("%s", table.render().c_str());
  std::printf("expected shape: request p50/p99 ~ RTT and flat across the failover —\n"
              "at this churn a connection's whole life is shorter than the blackout,\n"
              "so the outage lands on connection setup (SYN retries against a full\n"
              "backlog: see setup p99, the retried setups and the overflow drops)\n"
              "while established exchanges stay unaffected; setup p99 1st SYN is\n"
              "the setups that waited out no SYN RTO; growth/conn stays near\n"
              "zero — churned-through state is reclaimed.\n");
  json.add_table("open-loop HTTP churn across a mid-run failover", table);

  // ------------------------------------------------------------- gates
  bool fail = false;
  for (const ChurnResult& r : results) {
    const double failed_frac =
        r.started ? static_cast<double>(r.failed) / static_cast<double>(r.started) : 1;
    if (failed_frac > 0.05) {
      std::fprintf(stderr, "FAIL: churn %.0f conn/s: %.1f%% connections failed "
                   "(gate: <= 5%%)\n", r.offered_cps, failed_frac * 100);
      fail = true;
    }
    if (!(r.p99_ns >= r.p50_ns) || !(r.p50_ns > 0)) {
      std::fprintf(stderr, "FAIL: churn %.0f conn/s: implausible latency "
                   "p50=%.0fns p99=%.0fns\n", r.offered_cps, r.p50_ns, r.p99_ns);
      fail = true;
    }
    const double offered_rps = r.offered_cps * kRequestsPerConn;
    if (r.requests_per_s < 0.8 * offered_rps) {
      std::fprintf(stderr, "FAIL: churn %.0f conn/s: sustained only %.0f req/s "
                   "of %.0f offered (gate: >= 80%%)\n",
                   r.offered_cps, r.requests_per_s, offered_rps);
      fail = true;
    }
    // Bounded memory: growth must not scale with the churned population.
    const std::uint64_t growth_gate =
        std::max<std::uint64_t>(8u << 20, 1024 * r.started);
    if (r.growth_bytes > growth_gate) {
      std::fprintf(stderr, "FAIL: churn %.0f conn/s: %llu bytes growth "
                   "(gate: <= %llu)\n", r.offered_cps,
                   static_cast<unsigned long long>(r.growth_bytes),
                   static_cast<unsigned long long>(growth_gate));
      fail = true;
    }
  }
  if (!quick) {
    // At 10k conn/s the port space wraps inside 2*MSL: recycling must
    // actually fire or the bench is not exercising it.
    if (results.back().tw_recycled == 0) {
      std::fprintf(stderr,
                   "FAIL: top churn rate recycled no TIME_WAIT connections\n");
      fail = true;
    }
    if (results.back().offered_cps < 10'000) {
      std::fprintf(stderr, "FAIL: top churn rate below 10k conn/s\n");
      fail = true;
    }
  }

  // Machine-readable churn section (validated by check_bench_json.py).
  {
    obs::JsonWriter w;
    w.begin_object();
    w.key("requests_per_conn").value(static_cast<std::uint64_t>(kRequestsPerConn));
    w.key("points").begin_array();
    for (const ChurnResult& r : results) {
      w.begin_object();
      w.key("offered_cps").value(r.offered_cps);
      w.key("duration_s").value(r.duration_s);
      w.key("conns_started").value(r.started);
      w.key("conns_established").value(r.established);
      w.key("conns_completed").value(r.completed);
      w.key("conns_failed").value(r.failed);
      w.key("requests_sent").value(r.requests_sent);
      w.key("responses_ok").value(r.responses_ok);
      w.key("requests_per_s").value(r.requests_per_s);
      w.key("latency_p50_ns").value(r.p50_ns);
      w.key("latency_p99_ns").value(r.p99_ns);
      w.key("setup_p50_ns").value(r.setup_p50_ns);
      w.key("setup_p99_ns").value(r.setup_p99_ns);
      w.key("setup_retried").value(r.setup_retried);
      w.key("setup_p99_first_syn_ns").value(r.setup_p99_first_syn_ns);
      w.key("listen_overflows").value(r.listen_overflows);
      w.key("time_wait_recycled").value(r.tw_recycled);
      w.key("embryonic_reaped").value(r.embryonic_reaped);
      w.key("growth_bytes_per_conn").value(r.growth_per_conn);
      w.end_object();
    }
    w.end_array();
    w.end_object();
    json.add_section("churn", w.str());
  }
  if (!json.write()) return 1;
  return fail ? 1 : 0;
}
