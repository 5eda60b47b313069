// Experiment E5 (extension): bridge scalability. The paper measures one
// connection at a time; a production failover deployment serves many.
// Measures (a) aggregate echo throughput across 1..64 concurrent
// connections, standard vs failover, and (b) connection churn (sessions
// established+closed per second) through the bridge.
#include "bench_util.hpp"
#include "failover_fixture.hpp"

namespace tfo::bench {
namespace {

double aggregate_rate_kbs(bool failover, int conns) {
  // Declared before the servers: the LAN (and its simulator) must
  // outlive the servers' connections at scope exit.
  std::unique_ptr<test::Replicated> t;
  std::unique_ptr<apps::EchoServer> e1, e2;
  t = test::make_replicated(paper_lan_params(), {}, [&](apps::Host& h) {
    auto e = std::make_unique<apps::EchoServer>(h.tcp(), kPort);
    (e1 ? e2 : e1) = std::move(e);
  }, failover);
  t->sim().run_for(milliseconds(100));

  const std::size_t per_conn = 2 * 1000 * 1000 / static_cast<std::size_t>(conns);
  std::vector<std::unique_ptr<test::EchoDriver>> drivers;
  const SimTime start = t->sim().now();
  for (int i = 0; i < conns; ++i) {
    drivers.push_back(std::make_unique<test::EchoDriver>(
        t->client(), t->primary().address(), kPort, per_conn, 8192));
  }
  const bool ok = test::run_until(t->sim(), [&] {
    for (auto& d : drivers) {
      if (!d->done()) return false;
    }
    return true;
  }, seconds(3600));
  if (!ok) return -1;
  const double secs = to_seconds(static_cast<SimDuration>(t->sim().now() - start));
  return static_cast<double>(per_conn) * conns / 1000.0 / secs;
}

double churn_per_second(bool failover, int sessions) {
  // Declared before the servers: the LAN (and its simulator) must
  // outlive the servers' connections at scope exit.
  std::unique_ptr<test::Replicated> t;
  std::unique_ptr<apps::EchoServer> e1, e2;
  t = test::make_replicated(paper_lan_params(), {}, [&](apps::Host& h) {
    auto e = std::make_unique<apps::EchoServer>(h.tcp(), kPort);
    (e1 ? e2 : e1) = std::move(e);
  }, failover);
  t->sim().run_for(milliseconds(100));

  const SimTime start = t->sim().now();
  int completed = 0;
  for (int i = 0; i < sessions; ++i) {
    auto conn = t->client().tcp().connect(t->primary().address(), kPort, {.nodelay = true});
    Bytes got;
    // Raw captures: a shared_ptr self-capture in the connection's own
    // callbacks is an ownership cycle and leaks one connection per session.
    conn->on_established = [c = conn.get()] { c->send(to_bytes("hi")); };
    conn->on_readable = [&got, c = conn.get()] { c->recv(got); };
    if (!test::run_until(t->sim(), [&] { return got.size() == 2; }, seconds(30))) break;
    conn->close();
    if (!test::run_until(t->sim(), [&] {
          return conn->state() == tcp::TcpState::kClosed ||
                 conn->state() == tcp::TcpState::kTimeWait;
        }, seconds(30))) {
      break;
    }
    ++completed;
  }
  const double secs = to_seconds(static_cast<SimDuration>(t->sim().now() - start));
  return completed / secs;
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
  return 0;
}
