// Storm bench: N connections are live when the primary dies and all of
// them take over at once. This is the scale experiment behind the
// timing-wheel scheduler and the flat connection tables: the paper's §9
// measurements stop at a handful of connections, so this bench probes the
// regime the failover design claims to support — a server's entire
// connection population failing over simultaneously.
//
// Reported per population size N:
//   * whole-system memory per connection (client + both replicas +
//     bridges), from the process allocator, and where it goes: the
//     tcp::Connection and core::BridgeConn objects, live packet-buffer
//     blocks, and the connections' send/receive buffer capacity;
//   * per-connection takeover latency: each client connection sends a
//     probe the instant the primary dies and the stall until its echo
//     returns is one sample — p50/p99 over all N;
//   * scheduler counters (wheel inserts, cascades, exact-heap traffic).
//
// A scheduler phase also counts heap allocations over warmed
// armed-then-cancelled timer cycles (the dominant timer pattern: every ACK
// re-arms the retransmit timer) and FAILS the run unless there are none.
//
// Artifact: BENCH_storm.json ("storm" section schema validated by
// scripts/check_bench_json.py).
#include <malloc.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <new>

#include "bench_util.hpp"
#include "core/bridge_conn.hpp"
#include "sim/timer.hpp"
#include "wire/packet_buffer.hpp"

// ----------------------------------------------------------------------
// Global allocation accounting. Counts every operator new/delete in the
// process; live_bytes uses the allocator's real block size so the
// bytes-per-connection figure reflects actual footprint, not requested
// sizes.
namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<std::uint64_t> g_live_bytes{0};

void* counted_alloc(std::size_t n) {
  void* p = std::malloc(n ? n : 1);
  if (p) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    g_live_bytes.fetch_add(malloc_usable_size(p), std::memory_order_relaxed);
  }
  return p;
}

void* counted_aligned_alloc(std::size_t n, std::size_t align) {
  void* p = nullptr;
  if (posix_memalign(&p, align < sizeof(void*) ? sizeof(void*) : align,
                     n ? n : 1) != 0) {
    return nullptr;
  }
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_live_bytes.fetch_add(malloc_usable_size(p), std::memory_order_relaxed);
  return p;
}

void counted_free(void* p) noexcept {
  if (!p) return;
  g_live_bytes.fetch_sub(malloc_usable_size(p), std::memory_order_relaxed);
  std::free(p);
}
}  // namespace

void* operator new(std::size_t n) {
  void* p = counted_alloc(n);
  if (!p) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new(std::size_t n, std::align_val_t a) {
  void* p = counted_aligned_alloc(n, static_cast<std::size_t>(a));
  if (!p) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return ::operator new(n, a);
}
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}

namespace tfo::bench {
namespace {

// ------------------------------------------------------ scheduler allocs

/// Heap allocations for `cycles` armed-then-cancelled timer cycles (pool
/// pre-warmed so steady state is measured, not growth).
std::uint64_t timer_cycle_allocs(int cycles) {
  sim::Simulator sim;
  sim::Timer timer(sim);
  for (int i = 0; i < 1024; ++i) {
    timer.start(milliseconds(1), [] {});
    timer.stop();
  }
  const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (int i = 0; i < cycles; ++i) {
    timer.start(milliseconds(1), [] {});
    timer.stop();
  }
  return g_alloc_count.load(std::memory_order_relaxed) - before;
}

// ------------------------------------------------------------ the storm

/// Where the loaded population's bytes go, each per storm connection.
/// Struct sizes count every live object (client, primary and secondary
/// each hold a tcp::Connection per storm connection).
struct MemBreakdown {
  std::uint64_t tcp_conn = 0;       // sizeof(tcp::Connection) x live connections
  std::uint64_t bridge_conn = 0;    // sizeof(core::BridgeConn) x bridged connections
  std::uint64_t packet_buffers = 0; // live PacketBuffer block capacity (loaded - baseline)
  std::uint64_t conn_buffers = 0;   // Connection::buffer_capacity() summed
};

struct StormResult {
  std::size_t conns = 0;
  std::uint64_t bytes_per_conn = 0;
  MemBreakdown mem;
  double p50_ns = -1;
  double p99_ns = -1;
  double wall_s = 0;
  sim::Simulator::Stats sched;
  bool ok = false;
};

constexpr std::size_t kProbeBytes = 16;
constexpr std::size_t kConnsPerClientHost = 15'000;  // < 16384 ephemerals

/// One client-side storm connection: completes an echo round-trip before
/// the crash, then probes at the crash instant and records its stall.
struct StormConn {
  std::shared_ptr<tcp::Connection> conn;
  std::size_t rx_bytes = 0;
  bool ready = false;     // pre-crash echo completed
  SimTime replied_at = 0;  // probe echo completed (0 = still waiting)
};

apps::TopologyParams storm_lan_params() {
  apps::TopologyParams lp = paper_lan_params();
  // Scale knobs: the storm measures scheduler/table behaviour, not the
  // paper's 100 Mb/s testbed, so the wire is gigabit and per-frame host
  // processing light — otherwise N=100k is bandwidth-bound and every
  // latency collapses into the serialization queue.
  lp.medium.bandwidth_bps = 1'000'000'000;
  lp.nic.rx_processing = microseconds(2);
  lp.nic.rx_jitter = 0;
  return lp;
}

StormResult run_storm(std::size_t n_conns, BenchJson* json) {
  const auto wall_start = std::chrono::steady_clock::now();

  const apps::TopologyParams lp = storm_lan_params();

  std::unique_ptr<test::Replicated> t;
  std::unique_ptr<apps::EchoServer> e1, e2;
  t = test::make_replicated(lp, {}, [&](apps::Host& h) {
    auto e = std::make_unique<apps::EchoServer>(h.tcp(), kPort);
    (e1 ? e2 : e1) = std::move(e);
  });

  // Extra client hosts: one ephemeral-port space holds ~16k connections,
  // so the population is spread over ceil(N / 15k) hosts on the segment.
  std::vector<std::unique_ptr<apps::Host>> clients;
  clients.reserve(1 + n_conns / kConnsPerClientHost);
  {
    apps::HostParams hp;
    hp.nic = lp.nic;
    hp.arp = lp.arp;
    hp.tcp = lp.tcp;
    for (std::size_t i = 0; kConnsPerClientHost * (i + 1) < n_conns; ++i) {
      hp.name = "client" + std::to_string(i + 1);
      hp.addr = ip::Ipv4::parse(("10.0.0." + std::to_string(100 + i)).c_str());
      hp.seed = 1000 + i;
      clients.push_back(
          std::make_unique<apps::Host>(t->sim(), hp, *t->topo->wire));
      clients.back()->arp().add_static(t->primary().address(),
                                       t->primary().nic().mac());
      clients.back()->arp().add_static(t->secondary().address(),
                                       t->secondary().nic().mac());
    }
  }
  t->sim().run_for(milliseconds(100));  // detectors and ARP settle

  const std::uint64_t bytes_baseline = g_live_bytes.load(std::memory_order_relaxed);
  const std::uint64_t buffers_baseline = wire::buffer_stats().live_bytes;

  std::vector<StormConn> conns(n_conns);
  std::size_t ready = 0;

  // Ramp the population up: one open per 2 µs keeps the handshake burst
  // from overflowing queues while still exercising bulk insertion.
  apps::Host* client0 = t->topo->client.get();
  for (std::size_t i = 0; i < n_conns; ++i) {
    apps::Host* ch = (i / kConnsPerClientHost) == 0
                         ? client0
                         : clients[i / kConnsPerClientHost - 1].get();
    t->sim().schedule_after(static_cast<SimDuration>(i) * 2'000, [&, i, ch] {
      StormConn& sc = conns[i];
      sc.conn = ch->tcp().connect(t->primary().address(), kPort, {.nodelay = true});
      tcp::Connection* raw = sc.conn.get();
      raw->on_established = [raw] {
        raw->send(apps::deterministic_payload(kProbeBytes, 1));
      };
      raw->on_readable = [&, i, raw] {
        Bytes data;
        raw->recv(data);
        StormConn& c = conns[i];
        c.rx_bytes += data.size();
        if (!c.ready && c.rx_bytes >= kProbeBytes) {
          c.ready = true;
          ++ready;
        }
      };
    });
  }
  if (!test::run_until(t->sim(), [&] { return ready == n_conns; }, seconds(1200))) {
    std::fprintf(stderr, "storm N=%zu: only %zu/%zu connections ready\n",
                 n_conns, ready, n_conns);
    return {};
  }

  const std::uint64_t bytes_loaded = g_live_bytes.load(std::memory_order_relaxed);
  MemBreakdown mem;
  {
    const std::uint64_t buffers_loaded = wire::buffer_stats().live_bytes;
    std::uint64_t tcp_conns = 0, conn_buffers = 0;
    std::vector<apps::Host*> hosts = {t->topo->client.get(), t->topo->primary.get(),
                                      t->topo->secondary.get()};
    for (const auto& c : clients) hosts.push_back(c.get());
    for (apps::Host* h : hosts) {
      h->tcp().for_each_connection([&](const tcp::Connection& c) {
        ++tcp_conns;
        conn_buffers += c.buffer_capacity();
      });
    }
    const std::uint64_t bridged = t->group->primary_bridge().connection_count();
    mem.tcp_conn = tcp_conns * sizeof(tcp::Connection) / n_conns;
    mem.bridge_conn = bridged * sizeof(core::BridgeConn) / n_conns;
    mem.packet_buffers = buffers_loaded > buffers_baseline
                             ? (buffers_loaded - buffers_baseline) / n_conns
                             : 0;
    mem.conn_buffers = conn_buffers / n_conns;
  }

  // The crash. Every connection fires a probe at the same instant: the
  // secondary snoops it and answers, but the answer dies on the dark
  // primary; the detector declares the primary dead, the secondary takes
  // over the service address and its takeover kick resends each answer.
  const SimTime crash_at = t->sim().now();
  std::size_t replied = 0;
  for (std::size_t i = 0; i < n_conns; ++i) {
    t->sim().schedule_after(0, [&, i] {
      StormConn& sc = conns[i];
      tcp::Connection* raw = sc.conn.get();
      raw->on_readable = [&, i, raw] {
        Bytes data;
        raw->recv(data);
        StormConn& c = conns[i];
        c.rx_bytes += data.size();
        if (c.replied_at == 0 && c.rx_bytes >= 2 * kProbeBytes) {
          c.replied_at = t->sim().now();
          ++replied;
        }
      };
      raw->send(apps::deterministic_payload(kProbeBytes, 2));
    });
  }
  t->group->crash_primary();
  if (!test::run_until(t->sim(), [&] { return replied == n_conns; }, seconds(1200))) {
    std::fprintf(stderr, "storm N=%zu: only %zu/%zu probes answered\n",
                 n_conns, replied, n_conns);
    return {};
  }

  Sampler latency;
  for (const StormConn& sc : conns) {
    latency.add(static_cast<double>(sc.replied_at - crash_at));
  }

  StormResult r;
  r.conns = n_conns;
  r.bytes_per_conn = bytes_loaded > bytes_baseline
                         ? (bytes_loaded - bytes_baseline) / n_conns
                         : 0;
  r.mem = mem;
  r.p50_ns = latency.percentile(50);
  r.p99_ns = latency.percentile(99);
  r.sched = t->sim().stats();
  r.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           wall_start)
                 .count();
  r.ok = true;
  if (json) {
    json->capture_host(t->secondary());
    json->capture_host(t->client());
  }
  // Teardown hygiene: drop the connections before the testbed leaves
  // scope (their destructors cancel timers on the simulator).
  conns.clear();
  return r;
}

}  // namespace
}  // namespace tfo::bench

int main(int argc, char** argv) {
  using namespace tfo;
  using namespace tfo::bench;
  const bool quick = argc > 1 && std::string(argv[1]) == "--quick";
  print_header("E8: failover storm at scale",
               "extension of paper §9 (the paper measures single connections; "
               "this sweeps the whole population)");

  // --- scheduler: allocations over warmed arm-then-cancel timer cycles.
  const int cycles = quick ? 20'000 : 200'000;
  const std::uint64_t wheel_allocs = timer_cycle_allocs(cycles);
  std::printf("\ntiming wheel over %d warmed arm-then-cancel timer cycles: "
              "%llu heap allocs\n",
              cycles, static_cast<unsigned long long>(wheel_allocs));
  if (wheel_allocs != 0) {
    std::fprintf(stderr,
                 "FAIL: timing wheel allocated %llu times over warmed timer "
                 "cycles (gate: 0)\n",
                 static_cast<unsigned long long>(wheel_allocs));
    return 1;
  }

  // --- the storm sweep.
  std::vector<std::size_t> sizes =
      quick ? std::vector<std::size_t>{1'000, 20'000}
            : std::vector<std::size_t>{1'000, 10'000, 100'000};

  BenchJson json("storm");
  TextTable table({"conns", "mem/conn", "takeover p50 [ms]",
                   "takeover p99 [ms]", "wheel inserts", "cascades", "wall [s]"});
  TextTable mem_table({"conns", "mem/conn", "tcp::Connection", "BridgeConn",
                       "packet buffers", "conn buffers"});
  std::vector<StormResult> results;
  for (std::size_t n : sizes) {
    std::printf("\nrunning storm N=%zu ...\n", n);
    std::fflush(stdout);
    // Capture host snapshots from the smallest run (bounded timelines).
    StormResult r = run_storm(n, results.empty() ? &json : nullptr);
    if (!r.ok) {
      std::fprintf(stderr, "FAIL: storm N=%zu did not complete\n", n);
      return 1;
    }
    table.add_row({std::to_string(r.conns), size_label(r.bytes_per_conn),
                   TextTable::num(r.p50_ns / 1e6, 2),
                   TextTable::num(r.p99_ns / 1e6, 2),
                   std::to_string(r.sched.wheel_inserts),
                   std::to_string(r.sched.cascades), TextTable::num(r.wall_s, 1)});
    mem_table.add_row({std::to_string(r.conns), size_label(r.bytes_per_conn),
                       size_label(r.mem.tcp_conn), size_label(r.mem.bridge_conn),
                       size_label(r.mem.packet_buffers),
                       size_label(r.mem.conn_buffers)});
    results.push_back(r);
  }
  std::printf("%s", table.render().c_str());
  std::printf("expected shape: p50 ~ detector timeout (the takeover kick resends\n"
              "every echo at once); p99 adds the takeover burst's queueing. It\n"
              "stays below min_rto while the secondary reads the whole storm\n"
              "within min_rto (conns x rx_processing; check_bench_json.py gate)\n"
              "and is receive-bound beyond; mem/conn flat in N.\n");
  json.add_table("failover storm: population size vs takeover latency", table);
  std::printf("\nbytes per connection by table (sizeof x live objects, "
              "live block bytes):\n%s",
              mem_table.render().c_str());
  json.add_table("failover storm: bytes per connection by table", mem_table);

  // Machine-readable storm section (validated by check_bench_json.py).
  {
    obs::JsonWriter w;
    w.begin_object();
    w.key("points").begin_array();
    for (const StormResult& r : results) {
      w.begin_object();
      w.key("conns").value(static_cast<std::uint64_t>(r.conns));
      w.key("bytes_per_conn").value(r.bytes_per_conn);
      w.key("bytes_per_conn_by_table").begin_object();
      w.key("tcp_connection").value(r.mem.tcp_conn);
      w.key("bridge_conn").value(r.mem.bridge_conn);
      w.key("packet_buffers").value(r.mem.packet_buffers);
      w.key("conn_buffers").value(r.mem.conn_buffers);
      w.end_object();
      w.key("takeover_p50_ns").value(r.p50_ns);
      w.key("takeover_p99_ns").value(r.p99_ns);
      w.end_object();
    }
    w.end_array();
    w.key("alloc").begin_object();
    w.key("cycles").value(static_cast<std::uint64_t>(cycles));
    w.key("wheel_allocs").value(wheel_allocs);
    w.end_object();
    const apps::TopologyParams lp = storm_lan_params();
    w.key("min_rto_ns").value(static_cast<std::uint64_t>(lp.tcp.min_rto));
    w.key("rx_processing_ns").value(static_cast<std::uint64_t>(lp.nic.rx_processing));
    w.end_object();
    json.add_section("storm", w.str());
  }
  if (!json.write()) return 1;
  return 0;
}
