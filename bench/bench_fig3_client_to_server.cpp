// Figure 3: client-to-server data transfer — the median time for a client
// application's send of an L-byte message to return (i.e. the last byte
// accepted by the stack), L = 64 B … 1 MB, standard TCP vs TCP Failover.
//
// Paper shape: flat-ish below ~32 KB (the 64 KB socket send buffer
// absorbs the message), then linear growth; TCP Failover above standard
// at every size, with the gap widening once the buffer no longer hides
// the replicated-acknowledgment path.
#include "bench_util.hpp"

namespace tfo::bench {
namespace {

double median_send_time_us(bool failover, std::size_t msg_size, int samples) {
  // Declared before the servers: the LAN (and its simulator) must
  // outlive the servers' connections at scope exit.
  std::unique_ptr<test::Replicated> t;
  std::unique_ptr<apps::SinkServer> sink_p, sink_s;
  t = test::make_replicated(paper_lan_params(), {}, [&](apps::Host& h) {
    auto sink = std::make_unique<apps::SinkServer>(h.tcp(), kPort);
    (sink_p ? sink_s : sink_p) = std::move(sink);
  }, failover);
  t->sim().run_for(milliseconds(100));

  Sampler us;
  for (int i = 0; i < samples; ++i) {
    auto conn = t->client().tcp().connect(t->primary().address(), kPort, {.nodelay = true});
    bool established = false;
    conn->on_established = [&] { established = true; };
    if (!test::run_until(t->sim(), [&] { return established; }, seconds(10))) continue;

    const SimTime start = t->sim().now();
    bool accepted = false;
    conn->send(apps::deterministic_payload(msg_size, static_cast<std::uint32_t>(i)),
               [&] { accepted = true; });
    if (!test::run_until(t->sim(), [&] { return accepted; }, seconds(120))) continue;
    us.add(to_microseconds(static_cast<SimDuration>(t->sim().now() - start)));

    // Drain fully so the next sample starts clean.
    test::run_until(t->sim(), [&] { return conn->send_buffer_used() == 0; }, seconds(120));
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
  print_header("Figure 3: client-to-server data transfer (send time vs message size)",
               "paper Fig. 3 — flat below ~32KB (64KB send buffer), then linear;"
               " failover above standard throughout");

  const std::size_t sizes[] = {64,        256,        1024,       4 * 1024,
                               16 * 1024, 32 * 1024,  64 * 1024,  128 * 1024,
                               256 * 1024, 512 * 1024, 1024 * 1024};
  TextTable table({"message", "std TCP [us]", "failover [us]", "ratio"});
  for (std::size_t size : sizes) {
    const int samples = size >= 256 * 1024 ? 5 : 9;
    const double s = median_send_time_us(false, size, samples);
    const double f = median_send_time_us(true, size, samples);
    table.add_row({size_label(size), TextTable::num(s, 1), TextTable::num(f, 1),
                   TextTable::num(f / s, 2)});
  }
  std::printf("%s", table.render().c_str());
  std::printf("note: send time = until the last byte enters the 64KB socket send\n"
              "buffer (the paper's definition), hence the sub-linear region below it.\n");
  return 0;
}
