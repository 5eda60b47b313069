// Experiment E5 (extension): bridge scalability. The paper measures one
// connection at a time; a production failover deployment serves many.
// Measures (a) aggregate echo throughput across 1..64 concurrent
// connections, standard vs failover, (b) connection churn (sessions
// established+closed per second) through the bridge, and (c) churn at
// storm scale knobs on the per-frame vs the batched+GRO NIC path, with
// wall-clock cost per configuration.
#include <algorithm>
#include <chrono>

#include "bench_util.hpp"
#include "failover_fixture.hpp"

namespace tfo::bench {
namespace {

double aggregate_rate_kbs(bool failover, int conns) {
  // Declared before the servers: the LAN (and its simulator) must
  // outlive the servers' connections at scope exit.
  Testbed t;
  std::unique_ptr<apps::EchoServer> e1, e2;
  t = make_testbed(failover, [&](apps::Host& h) {
    auto e = std::make_unique<apps::EchoServer>(h.tcp(), kPort);
    (e1 ? e2 : e1) = std::move(e);
  });
  t.sim().run_for(milliseconds(100));

  const std::size_t per_conn = 2 * 1000 * 1000 / static_cast<std::size_t>(conns);
  std::vector<std::unique_ptr<test::EchoDriver>> drivers;
  const SimTime start = t.sim().now();
  for (int i = 0; i < conns; ++i) {
    drivers.push_back(std::make_unique<test::EchoDriver>(
        t.client(), t.server_addr(), kPort, per_conn, 8192));
  }
  const bool ok = t.run_until([&] {
    for (auto& d : drivers) {
      if (!d->done()) return false;
    }
    return true;
  }, seconds(3600));
  if (!ok) return -1;
  const double secs = to_seconds(static_cast<SimDuration>(t.sim().now() - start));
  return static_cast<double>(per_conn) * conns / 1000.0 / secs;
}

double churn_per_second(bool failover, int sessions) {
  // Declared before the servers: the LAN (and its simulator) must
  // outlive the servers' connections at scope exit.
  Testbed t;
  std::unique_ptr<apps::EchoServer> e1, e2;
  t = make_testbed(failover, [&](apps::Host& h) {
    auto e = std::make_unique<apps::EchoServer>(h.tcp(), kPort);
    (e1 ? e2 : e1) = std::move(e);
  });
  t.sim().run_for(milliseconds(100));

  const SimTime start = t.sim().now();
  int completed = 0;
  for (int i = 0; i < sessions; ++i) {
    auto conn = t.client().tcp().connect(t.server_addr(), kPort, {.nodelay = true});
    Bytes got;
    // Raw captures: a shared_ptr self-capture in the connection's own
    // callbacks is an ownership cycle and leaks one connection per session.
    conn->on_established = [c = conn.get()] { c->send(to_bytes("hi")); };
    conn->on_readable = [&got, c = conn.get()] { c->recv(got); };
    if (!t.run_until([&] { return got.size() == 2; }, seconds(30))) break;
    conn->close();
    if (!t.run_until([&] {
          return conn->state() == tcp::TcpState::kClosed ||
                 conn->state() == tcp::TcpState::kTimeWait;
        }, seconds(30))) {
      break;
    }
    ++completed;
  }
  const double secs = to_seconds(static_cast<SimDuration>(t.sim().now() - start));
  return completed / secs;
}

struct FastChurnResult {
  double sessions_per_s = 0;  // simulated-time rate
  double wall_s = 0;          // wall-clock cost of the whole run
};

/// Session churn (connect + echo + close) in 64-wide concurrent waves at
/// storm scale knobs: gigabit wire, light per-frame cost, the wheel
/// scheduler and the flat connection tables doing the work. Batching moves
/// the simulated rate only through the coalescing window; the wall column
/// is where the rx path's cost shows up.
FastChurnResult churn_at_scale(int sessions, bool batching) {
  const auto wall_start = std::chrono::steady_clock::now();
  apps::LanParams lp = paper_lan_params();
  lp.medium.bandwidth_bps = 1'000'000'000;
  lp.nic.rx_processing = microseconds(2);
  lp.nic.rx_jitter = 0;
  if (batching) {
    lp.nic.rx_batch_max = 32;
    lp.nic.rx_batch_window = microseconds(400);
    lp.nic.tx_batch_max = 32;
    lp.nic.gro.max_merged = 32;
  }

  Testbed t;
  std::unique_ptr<apps::EchoServer> e1, e2;
  t = make_testbed(true, [&](apps::Host& h) {
    auto e = std::make_unique<apps::EchoServer>(h.tcp(), kPort);
    (e1 ? e2 : e1) = std::move(e);
  }, lp);
  t.sim().run_for(milliseconds(100));

  constexpr int kWave = 64;
  const SimTime start = t.sim().now();
  int completed = 0;
  for (int base = 0; base < sessions; base += kWave) {
    const int wave = std::min(kWave, sessions - base);
    std::vector<std::shared_ptr<tcp::Connection>> conns(wave);
    std::vector<Bytes> got(wave);
    for (int i = 0; i < wave; ++i) {
      conns[i] = t.client().tcp().connect(t.server_addr(), kPort, {.nodelay = true});
      tcp::Connection* c = conns[i].get();
      c->on_established = [c] { c->send(to_bytes("hi")); };
      c->on_readable = [&got, i, c] { c->recv(got[i]); };
    }
    const bool echoed = t.run_until([&] {
      for (const Bytes& g : got) {
        if (g.size() != 2) return false;
      }
      return true;
    }, seconds(60));
    if (!echoed) break;
    for (auto& c : conns) c->close();
    if (!t.run_until([&] {
          for (const auto& c : conns) {
            if (c->state() != tcp::TcpState::kClosed &&
                c->state() != tcp::TcpState::kTimeWait) {
              return false;
            }
          }
          return true;
        }, seconds(60))) {
      break;
    }
    completed += wave;
  }
  FastChurnResult r;
  const double secs = to_seconds(static_cast<SimDuration>(t.sim().now() - start));
  r.sessions_per_s = completed / secs;
  r.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           wall_start)
                 .count();
  return r;
}

}  // namespace
}  // namespace tfo::bench

int main() {
  using namespace tfo;
  using namespace tfo::bench;
  print_header("E5: bridge scalability (extension; no table in the paper)",
               "aggregate throughput over concurrent connections + session churn");

  {
    TextTable table({"concurrent conns", "std TCP [KB/s]", "failover [KB/s]", "ratio"});
    for (int conns : {1, 4, 16, 64}) {
      const double s = aggregate_rate_kbs(false, conns);
      const double f = aggregate_rate_kbs(true, conns);
      table.add_row({std::to_string(conns), TextTable::num(s, 1), TextTable::num(f, 1),
                     TextTable::num(f / s, 2)});
    }
    std::printf("%s", table.render().c_str());
    std::printf("expected: the failover/std ratio is flat in the connection count —\n"
                "the bridge's per-connection state is O(window), not O(stream), and\n"
                "the shared wire is the bottleneck either way.\n");
  }
  {
    TextTable table({"configuration", "sessions/second (connect+echo+close)"});
    table.add_row({"standard TCP", TextTable::num(churn_per_second(false, 200), 1)});
    table.add_row({"TCP failover", TextTable::num(churn_per_second(true, 200), 1)});
    std::printf("%s", table.render().c_str());
    std::printf("expected: churn overhead tracks the T1 connection-setup overhead\n"
                "(~1.5x), plus §8's merged four-way close.\n");
  }
  {
    const int sessions = 512;
    TextTable table({"rx path", "sessions/s (sim)", "wall [s]"});
    for (const bool batching : {false, true}) {
      const FastChurnResult r = churn_at_scale(sessions, batching);
      table.add_row({batching ? "batched+GRO" : "per-frame",
                     TextTable::num(r.sessions_per_s, 1),
                     TextTable::num(r.wall_s, 2)});
    }
    std::printf("%s", table.render().c_str());
    std::printf("expected: batching changes the simulated rate only via the\n"
                "coalescing window; the wall-clock column shows its cost.\n");
  }
  return 0;
}
