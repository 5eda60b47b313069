// Figure 5: send and receive rates for long data streams (100 MBytes),
// standard TCP vs TCP Failover.
//
// Paper result (KB/s):
//                 standard TCP    TCP Failover
//   send rate        7833.70         5835.80
//   receive rate     8707.88         3510.03
//
// The shape to reproduce: the receive (server→client) rate collapses to
// well under half under failover because every reply crosses the
// half-duplex wire twice and the merge adds per-segment latency, while
// the send (client→server) rate degrades more mildly — the client's data
// reaches both replicas in one transmission (promiscuous snooping) and
// only the min-ACK discipline slows it.
#include "bench_util.hpp"

namespace tfo::bench {
namespace {

constexpr std::size_t kStreamBytes = 100 * 1000 * 1000;

double send_rate_kbs(bool failover) {
  // Declared before the servers: the LAN (and its simulator) must
  // outlive the servers' connections at scope exit.
  std::unique_ptr<test::Replicated> t;
  std::unique_ptr<apps::SinkServer> s1, s2;
  t = test::make_replicated(paper_lan_params(), {}, [&](apps::Host& h) {
    auto s = std::make_unique<apps::SinkServer>(h.tcp(), kPort);
    (s1 ? s2 : s1) = std::move(s);
  }, failover);
  t->sim().run_for(milliseconds(100));

  auto conn = t->client().tcp().connect(t->primary().address(), kPort, {.nodelay = true});
  bool established = false;
  conn->on_established = [&] { established = true; };
  test::run_until(t->sim(), [&] { return established; }, seconds(10));

  // Stream in 256KB application writes, keeping the send buffer fed.
  const SimTime start = t->sim().now();
  std::size_t queued = 0;
  std::function<void()> feed = [&] {
    if (queued >= kStreamBytes) return;
    const std::size_t n = std::min<std::size_t>(256 * 1024, kStreamBytes - queued);
    queued += n;
    conn->send(apps::deterministic_payload(n, static_cast<std::uint32_t>(queued)),
               [&] { feed(); });
  };
  feed();
  if (!test::run_until(t->sim(), [&] { return s1->bytes_received() >= kStreamBytes; },
                   seconds(3600))) {
    return -1;
  }
  const double secs = to_seconds(static_cast<SimDuration>(t->sim().now() - start));
  return static_cast<double>(kStreamBytes) / 1000.0 / secs;
}

double receive_rate_kbs(bool failover) {
  // Declared before the servers: the LAN (and its simulator) must
  // outlive the servers' connections at scope exit.
  std::unique_ptr<test::Replicated> t;
  std::unique_ptr<apps::BlastServer> b1, b2;
  t = test::make_replicated(paper_lan_params(), {}, [&](apps::Host& h) {
    auto b = std::make_unique<apps::BlastServer>(h.tcp(), kPort);
    (b1 ? b2 : b1) = std::move(b);
  }, failover);
  t->sim().run_for(milliseconds(100));

  auto conn = t->client().tcp().connect(t->primary().address(), kPort, {.nodelay = true});
  bool established = false;
  conn->on_established = [&] { established = true; };
  test::run_until(t->sim(), [&] { return established; }, seconds(10));

  std::size_t received = 0;
  conn->on_readable = [&] {
    Bytes b;
    conn->recv(b);
    received += b.size();
  };
  const SimTime start = t->sim().now();
  char req[48];
  std::snprintf(req, sizeof(req), "GET %zu 1\n", kStreamBytes);
  conn->send(to_bytes(req));
  if (!test::run_until(t->sim(), [&] { return received >= kStreamBytes; }, seconds(3600))) {
    return -1;
  }
  const double secs = to_seconds(static_cast<SimDuration>(t->sim().now() - start));
  return static_cast<double>(kStreamBytes) / 1000.0 / secs;
}

}  // namespace
}  // namespace tfo::bench

int main() {
  using namespace tfo;
  using namespace tfo::bench;
  print_header("Figure 5: send/receive rates for 100 MB data streams",
               "paper Fig. 5 — send 7833.70 vs 5835.80, recv 8707.88 vs 3510.03 KB/s");

  const double send_std = send_rate_kbs(false);
  const double send_fo = send_rate_kbs(true);
  const double recv_std = receive_rate_kbs(false);
  const double recv_fo = receive_rate_kbs(true);

  TextTable table({"direction", "std TCP [KB/s]", "failover [KB/s]", "failover/std",
                   "paper std", "paper failover", "paper ratio"});
  table.add_row({"send rate (client->server)", TextTable::num(send_std, 2),
                 TextTable::num(send_fo, 2), TextTable::num(send_fo / send_std, 2),
                 "7833.70", "5835.80", "0.75"});
  table.add_row({"receive rate (server->client)", TextTable::num(recv_std, 2),
                 TextTable::num(recv_fo, 2), TextTable::num(recv_fo / recv_std, 2),
                 "8707.88", "3510.03", "0.40"});
  std::printf("%s", table.render().c_str());
  return 0;
}
