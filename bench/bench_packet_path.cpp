// Experiment E9: the cost of the packet path itself — heap allocations and
// copies per forwarded segment on the secondary→primary diversion path
// (paper §3.1: snoop, rewrite the destination address, fix the checksum
// incrementally, re-emit).
//
// The diversion path is: frame share → IP slice parse → in-place patch
// (one CoW for the snooped share) → TCP slice parse → headers prepended
// into the same storage's headroom. The run FAILS above 1.00 heap
// allocation per segment: the CoW is the path's only allocation.
//
// A macro phase runs a real replicated echo transfer and reports the live
// per-diverted-segment allocation rate plus the net.alloc.* counters now
// mirrored into each host's observability snapshot.
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <new>

#include "bench_util.hpp"
#include "failover_fixture.hpp"  // test::EchoDriver (shared with the tests)
#include "ip/datagram.hpp"
#include "tcp/segment.hpp"
#include "wire/packet_buffer.hpp"

// ---------------------------------------------------------------------------
// Global allocation counters: every operator new in this binary is counted,
// so the per-segment numbers include vector bookkeeping, not just the
// PacketBuffer-level accounting.
namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};
std::atomic<std::uint64_t> g_heap_bytes{0};

void* counted_alloc(std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  g_heap_bytes.fetch_add(n, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace tfo::bench {
namespace {

const ip::Ipv4 kClient = ip::Ipv4::parse("10.0.0.100");
const ip::Ipv4 kPrimary = ip::Ipv4::parse("10.0.0.1");
const ip::Ipv4 kSecondary = ip::Ipv4::parse("10.0.0.2");

/// The client→primary frame payload the secondary snoops promiscuously:
/// a TCP segment wrapped in an IP datagram.
wire::PacketBuffer make_snooped_wire(std::size_t payload_len) {
  tcp::TcpSegment s;
  s.src_port = 4242;
  s.dst_port = kPort;
  s.seq = 1000;
  s.ack = 2000;
  s.flags = tcp::Flags::kAck | tcp::Flags::kPsh;
  s.window = 8192;
  Bytes payload(payload_len);
  for (std::size_t i = 0; i < payload_len; ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 7 + 1);
  }
  s.payload = payload;
  ip::IpDatagram d;
  d.src = kClient;
  d.dst = kPrimary;
  d.id = 99;
  d.payload = s.take_wire(kClient, kPrimary);
  return wire::PacketBuffer::copy_of(d.to_wire().view());
}

/// The diversion path: shared-storage slices all the way, one
/// copy-on-write when the snooped share is patched, headers prepended into
/// the same storage's headroom.
std::size_t zerocopy_divert(const wire::PacketBuffer& wire) {
  wire::PacketBuffer frame_payload = wire;  // share, no bytes copied
  auto d = ip::IpDatagram::parse(frame_payload);
  if (!d) return 0;
  // §3.1 rewrite in place; the snooped frame's storage is shared, so this
  // is the path's one copy (the CoW that protects the other receivers).
  tcp::patch_checksum_for_address_change(d->payload, kPrimary, kSecondary);
  auto seg = tcp::TcpSegment::parse(d->payload, kClient, kSecondary);
  if (!seg) return 0;
  d.reset();  // the datagram's handle released: the segment owns the bytes
  seg->orig_dst = kClient;
  ip::IpDatagram out;
  out.src = kSecondary;
  out.dst = kPrimary;
  out.id = 100;
  out.payload = seg->take_wire(kSecondary, kPrimary);
  return out.to_wire().size();
}

struct PathCost {
  double allocs_per_seg = 0;
  double heap_bytes_per_seg = 0;
  double copied_bytes_per_seg = 0;  // wire::BufferStats deep-copy bytes
  double ns_per_seg = 0;
  double segs_per_sec = 0;
};

template <typename Fn>
PathCost measure_path(std::size_t iters, const Fn& fn) {
  PathCost c;
  volatile std::size_t sink = 0;
  wire::reset_buffer_stats();
  const std::uint64_t a0 = g_heap_allocs.load(std::memory_order_relaxed);
  const std::uint64_t b0 = g_heap_bytes.load(std::memory_order_relaxed);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < iters; ++i) sink += fn();
  const auto t1 = std::chrono::steady_clock::now();
  const double n = static_cast<double>(iters);
  c.allocs_per_seg =
      static_cast<double>(g_heap_allocs.load(std::memory_order_relaxed) - a0) / n;
  c.heap_bytes_per_seg =
      static_cast<double>(g_heap_bytes.load(std::memory_order_relaxed) - b0) / n;
  c.copied_bytes_per_seg =
      static_cast<double>(wire::buffer_stats().copied_bytes) / n;
  const double ns =
      static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              t1 - t0).count());
  c.ns_per_seg = ns / n;
  c.segs_per_sec = ns > 0 ? n / (ns * 1e-9) : 0;
  return c;
}

}  // namespace
}  // namespace tfo::bench

int main(int argc, char** argv) {
  using namespace tfo;
  using namespace tfo::bench;
  // --quick: fewer iterations and a short transfer — used by the CTest step
  // that validates the BENCH_packet_path.json artifact schema.
  const bool quick = argc > 1 && std::string(argv[1]) == "--quick";
  print_header("E9: packet-path allocations and copies per forwarded segment",
               "cost model behind paper §3.1's rewrite-in-place bridge; "
               "no table in the paper");

  const std::size_t iters = quick ? 5'000 : 200'000;
  const std::size_t payload_len = 512;
  const wire::PacketBuffer snooped = make_snooped_wire(payload_len);

  // Warm up (page in code, fault the allocator) before counting.
  for (int i = 0; i < 100; ++i) zerocopy_divert(snooped);

  const PathCost zc = measure_path(iters, [&] { return zerocopy_divert(snooped); });
  constexpr double kMaxAllocsPerSeg = 1.00;

  BenchJson json("packet_path");
  TextTable table({"path", "allocs/seg", "heap B/seg", "copied B/seg",
                   "ns/seg", "segs/s"});
  const auto row = [&](const char* name, const PathCost& c) {
    table.add_row({name, TextTable::num(c.allocs_per_seg, 2),
                   TextTable::num(c.heap_bytes_per_seg, 0),
                   TextTable::num(c.copied_bytes_per_seg, 0),
                   TextTable::num(c.ns_per_seg, 0),
                   TextTable::num(c.segs_per_sec, 0)});
  };
  row("zero-copy", zc);
  std::printf("%s", table.render().c_str());
  std::printf("per-segment heap allocations: %.2f (gate: <= %.2f)\n",
              zc.allocs_per_seg, kMaxAllocsPerSeg);
  json.add_table("diversion path: per-forwarded-segment cost "
                 "(payload " + std::to_string(payload_len) + "B)", table);

  // Macro phase: a real replicated echo transfer — every secondary reply
  // crosses the diversion path — measured live, with the net.alloc.*
  // mirror landing in the captured host snapshots.
  std::unique_ptr<test::Replicated> t;
  std::unique_ptr<apps::EchoServer> e1, e2;
  t = test::make_replicated(paper_lan_params(), {}, [&](apps::Host& h) {
    auto e = std::make_unique<apps::EchoServer>(h.tcp(), kPort);
    (e1 ? e2 : e1) = std::move(e);
  });
  t->sim().run_for(milliseconds(100));

  const std::size_t total = quick ? 64 * 1024 : 512 * 1024;
  const std::uint64_t a0 = g_heap_allocs.load(std::memory_order_relaxed);
  const auto w0 = std::chrono::steady_clock::now();
  test::EchoDriver d(t->client(), t->primary().address(), kPort, total, 4096);
  const bool done = test::run_until(t->sim(), [&] { return d.done(); }, seconds(600));
  const auto w1 = std::chrono::steady_clock::now();
  const std::uint64_t allocs = g_heap_allocs.load(std::memory_order_relaxed) - a0;
  const double wall_ms =
      std::chrono::duration_cast<std::chrono::microseconds>(w1 - w0).count() / 1e3;
  const std::uint64_t diverted = t->group->secondary_bridge().segments_diverted();

  TextTable macro({"transfer", "diverted segs", "heap allocs", "allocs/div seg",
                   "wall [ms]", "verified"});
  macro.add_row({size_label(total), std::to_string(diverted),
                 std::to_string(allocs),
                 diverted ? TextTable::num(static_cast<double>(allocs) /
                                           static_cast<double>(diverted), 1)
                          : "-",
                 TextTable::num(wall_ms, 1),
                 done && d.verify() ? "yes" : "NO"});
  std::printf("%s", macro.render().c_str());
  json.add_table("live replicated echo transfer (whole-simulation heap "
                 "allocations per diverted segment)", macro);

  json.capture_host(t->primary());
  json.capture_host(t->secondary());
  json.capture_host(t->client());
  if (!json.write()) return 1;

  const bool green = done && d.verify() && zc.allocs_per_seg <= kMaxAllocsPerSeg;
  if (!green) {
    std::printf("RED: %.2f allocs/seg above the %.2f gate or transfer failed\n",
                zc.allocs_per_seg, kMaxAllocsPerSeg);
  }
  return green ? 0 : 1;
}
