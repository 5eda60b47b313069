// Figure 4: server-to-client data transfer — the client sends a small
// request and measures the time until the last byte of an L-byte reply
// arrives, L = 64 B … 1 MB, standard TCP vs TCP Failover.
//
// Paper shape: failover above standard at all sizes; the gap grows with
// size because every reply byte crosses the shared wire twice (secondary
// → primary diversion, then primary → client).
#include "bench_util.hpp"

namespace tfo::bench {
namespace {

double median_reply_time_us(bool failover, std::size_t reply_size, int samples) {
  // Declared before the servers: the LAN (and its simulator) must
  // outlive the servers' connections at scope exit.
  std::unique_ptr<test::Replicated> t;
  std::unique_ptr<apps::BlastServer> blast_p, blast_s;
  t = test::make_replicated(paper_lan_params(), {}, [&](apps::Host& h) {
    auto blast = std::make_unique<apps::BlastServer>(h.tcp(), kPort);
    (blast_p ? blast_s : blast_p) = std::move(blast);
  }, failover);
  t->sim().run_for(milliseconds(100));

  Sampler us;
  for (int i = 0; i < samples; ++i) {
    auto conn = t->client().tcp().connect(t->primary().address(), kPort, {.nodelay = true});
    bool established = false;
    conn->on_established = [&] { established = true; };
    if (!test::run_until(t->sim(), [&] { return established; }, seconds(10))) continue;

    std::size_t received = 0;
    conn->on_readable = [&] {
      Bytes b;
      conn->recv(b);
      received += b.size();
    };
    const SimTime start = t->sim().now();
    // The paper's 4-byte request plus our framing.
    char req[48];
    std::snprintf(req, sizeof(req), "GET %zu %d\n", reply_size, i);
    conn->send(to_bytes(req));
    if (!test::run_until(t->sim(), [&] { return received >= reply_size; }, seconds(300))) continue;
    us.add(to_microseconds(static_cast<SimDuration>(t->sim().now() - start)));
    conn->abort();
    t->sim().run_for(milliseconds(5));
  }
  return us.empty() ? -1.0 : us.median();
}

}  // namespace
}  // namespace tfo::bench

int main() {
  using namespace tfo;
  using namespace tfo::bench;
  print_header(
      "Figure 4: server-to-client data transfer (request->full reply latency)",
      "paper Fig. 4 — failover above standard at all sizes; gap grows with size");

  const std::size_t sizes[] = {64,        256,        1024,       4 * 1024,
                               16 * 1024, 32 * 1024,  64 * 1024,  128 * 1024,
                               256 * 1024, 512 * 1024, 1024 * 1024};
  TextTable table({"reply", "std TCP [us]", "failover [us]", "ratio"});
  for (std::size_t size : sizes) {
    const int samples = size >= 256 * 1024 ? 5 : 9;
    const double s = median_reply_time_us(false, size, samples);
    const double f = median_reply_time_us(true, size, samples);
    table.add_row({size_label(size), TextTable::num(s, 1), TextTable::num(f, 1),
                   TextTable::num(f / s, 2)});
  }
  std::printf("%s", table.render().c_str());
  return 0;
}
