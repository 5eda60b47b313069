// Experiment T1 (§9, text): TCP connection setup time, standard TCP vs
// TCP Failover, warm ARP caches.
//
// Paper result: median 294 µs / max 603 µs (standard TCP) versus
//               median 505 µs / max 1193 µs (TCP Failover).
#include "bench_util.hpp"

namespace tfo::bench {
namespace {

struct Result {
  Sampler us;
};

Result measure(bool failover, int samples) {
  // Declared before the accepted-connection holder: the LAN (and its
  // simulator) must outlive the connections at scope exit.
  std::unique_ptr<test::Replicated> t;
  std::vector<std::shared_ptr<tcp::Connection>> held;
  t = test::make_replicated(paper_lan_params(), {}, [&held](apps::Host& h) {
    h.tcp().listen(kPort, [&held](std::shared_ptr<tcp::Connection> c) {
      held.push_back(std::move(c));
    });
  }, failover);
  // Let fault detectors settle.
  t->sim().run_for(milliseconds(100));

  Result r;
  for (int i = 0; i < samples; ++i) {
    const SimTime start = t->sim().now();
    auto conn = t->client().tcp().connect(t->primary().address(), kPort);
    bool established = false;
    conn->on_established = [&] { established = true; };
    if (!test::run_until(t->sim(), [&] { return established; }, seconds(10))) {
      std::fprintf(stderr, "connection %d failed to establish\n", i);
      continue;
    }
    r.us.add(to_microseconds(static_cast<SimDuration>(t->sim().now() - start)));
    conn->abort();  // RST: no TIME_WAIT pile-up between samples
    t->sim().run_for(milliseconds(5));
  }
  return r;
}

}  // namespace
}  // namespace tfo::bench

int main() {
  using namespace tfo;
  using namespace tfo::bench;
  print_header("T1: connection setup time (client -> replicated server)",
               "paper §9 text: std 294/603 us, failover 505/1193 us (median/max)");

  constexpr int kSamples = 300;
  const Result std_tcp = measure(false, kSamples);
  const Result fo = measure(true, kSamples);

  TextTable table({"configuration", "median [us]", "max [us]", "p90 [us]", "samples",
                   "paper median [us]", "paper max [us]"});
  table.add_row({"standard TCP", TextTable::num(std_tcp.us.median(), 1),
                 TextTable::num(std_tcp.us.max(), 1), TextTable::num(std_tcp.us.percentile(90), 1),
                 std::to_string(std_tcp.us.count()), "294", "603"});
  table.add_row({"TCP Failover", TextTable::num(fo.us.median(), 1),
                 TextTable::num(fo.us.max(), 1), TextTable::num(fo.us.percentile(90), 1),
                 std::to_string(fo.us.count()), "505", "1193"});
  std::printf("%s", table.render().c_str());
  std::printf("overhead ratio (median): %.2fx   (paper: %.2fx)\n",
              fo.us.median() / std_tcp.us.median(), 505.0 / 294.0);
  return 0;
}
