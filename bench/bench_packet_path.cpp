// Experiment E9: the cost of the packet path itself — heap allocations and
// copies per frame, on two paths:
//
//   * the frame path: host A's IP layer sends a datagram to host B across
//     a SharedMedium (ARP cache warm, impairment off), and B's NIC hands
//     it up to B's IP layer after its protocol-processing delay. That is
//     the ARP-hit send, the medium's in-flight slot, the NIC's rx ring and
//     a pooled packet header and block;
//   * the secondary→primary diversion path (paper §3.1: snoop, rewrite the
//     destination address, fix the checksum incrementally, re-emit):
//     frame share → IP slice parse → in-place patch (one CoW for the
//     snooped share, served from the buffer pool) → TCP slice parse →
//     headers prepended into the same storage's headroom.
//
// Once the pools are warm neither path allocates: the run FAILS above
// 0.00 heap allocations per frame on either one.
//
// A macro phase runs a real replicated echo transfer and reports the live
// per-diverted-segment allocation rate plus the net.alloc.* counters
// mirrored into each host's observability snapshot.
//
// Heap figures count every operator new in the process (the counting
// allocator in bench_e2e/counting_alloc.cpp), vector bookkeeping included;
// bytes are the allocator's block sizes, not the requested sizes.
#include <chrono>

#include "apps/host.hpp"
#include "bench_util.hpp"
#include "counting_alloc.hpp"
#include "failover_fixture.hpp"  // test::EchoDriver (shared with the tests)
#include "ip/datagram.hpp"
#include "tcp/segment.hpp"
#include "wire/packet_buffer.hpp"

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

/// Two hosts on one SharedMedium with a warm ARP cache, impairment off.
/// Each frame carries a datagram of an experimental protocol number (RFC
/// 3692) that B's IP layer hands to a counting handler.
class FramePath {
 public:
  FramePath()
      : a_(sim_, host("a", "10.0.0.1", 1), wire_),
        b_(sim_, host("b", "10.0.0.2", 2), wire_) {
    a_.arp().add_static(b_.ip().address(), b_.nic().mac());
    b_.ip().register_protocol(kProto, [this](const ip::IpDatagram& d,
                                             const ip::RxMeta&) {
      delivered_ += d.payload.size();
    });
  }

  /// Sends one frame and runs the simulation until it is delivered.
  /// Returns the payload bytes B has received so far.
  std::size_t one_frame(std::size_t payload_len) {
    a_.ip().send(kProto, ip::Ipv4::any(), b_.ip().address(),
                 wire::PacketBuffer::alloc(payload_len));
    sim_.run();
    return delivered_;
  }

 private:
  static constexpr auto kProto = static_cast<ip::Proto>(253);

  static apps::HostParams host(const char* name, const char* addr,
                               std::uint64_t seed) {
    apps::HostParams hp;
    hp.name = name;
    hp.addr = ip::Ipv4::parse(addr);
    hp.seed = seed;
    return hp;
  }

  sim::Simulator sim_;
  net::SharedMedium wire_{sim_};
  apps::Host a_;
  apps::Host b_;
  std::size_t delivered_ = 0;
};

struct PathCost {
  double allocs_per_frame = 0;
  double heap_bytes_per_frame = 0;
  double copied_bytes_per_frame = 0;  // wire::BufferStats deep-copy bytes
  double ns_per_frame = 0;
  double frames_per_sec = 0;
};

template <typename Fn>
PathCost measure_path(std::size_t iters, const Fn& fn) {
  PathCost c;
  volatile std::size_t sink = 0;
  wire::reset_buffer_stats();
  const HeapStats h0 = heap_stats();
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < iters; ++i) sink = sink + fn();
  const auto t1 = std::chrono::steady_clock::now();
  const HeapStats h1 = heap_stats();
  const double n = static_cast<double>(iters);
  c.allocs_per_frame = static_cast<double>(h1.allocs - h0.allocs) / n;
  c.heap_bytes_per_frame = static_cast<double>(h1.alloc_bytes - h0.alloc_bytes) / n;
  c.copied_bytes_per_frame =
      static_cast<double>(wire::buffer_stats().copied_bytes) / n;
  const double ns =
      static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              t1 - t0).count());
  c.ns_per_frame = ns / n;
  c.frames_per_sec = ns > 0 ? n / (ns * 1e-9) : 0;
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
  print_header("E9: packet-path allocations and copies per frame",
               "cost model behind paper §3.1's rewrite-in-place bridge; "
               "no table in the paper");

  const std::size_t iters = quick ? 5'000 : 200'000;
  const std::size_t payload_len = 512;
  const wire::PacketBuffer snooped = make_snooped_wire(payload_len);
  FramePath frames;

  // Warm up (page in code, fill the pools, grow the in-flight tables)
  // before counting.
  for (int i = 0; i < 100; ++i) {
    zerocopy_divert(snooped);
    frames.one_frame(payload_len);
  }

  const PathCost fp = measure_path(iters, [&] { return frames.one_frame(payload_len); });
  const PathCost zc = measure_path(iters, [&] { return zerocopy_divert(snooped); });
  constexpr double kMaxAllocs = 0.00;

  BenchJson json("packet_path");
  TextTable table({"path", "allocs/frame", "heap B/frame", "copied B/frame",
                   "ns/frame", "frames/s"});
  const auto row = [&](const char* name, const PathCost& c) {
    table.add_row({name, TextTable::num(c.allocs_per_frame, 2),
                   TextTable::num(c.heap_bytes_per_frame, 0),
                   TextTable::num(c.copied_bytes_per_frame, 0),
                   TextTable::num(c.ns_per_frame, 0),
                   TextTable::num(c.frames_per_sec, 0)});
  };
  row("frame (host to host)", fp);
  row("diversion (zero-copy)", zc);
  std::printf("%s", table.render().c_str());
  std::printf("heap allocations per frame: frame path %.2f, diversion %.2f "
              "(gate: <= %.2f each)\n",
              fp.allocs_per_frame, zc.allocs_per_frame, kMaxAllocs);
  json.add_table("per-frame cost (payload " + std::to_string(payload_len) +
                 "B): host-to-host frame path and diversion path", table);
  char section[128];
  std::snprintf(section, sizeof(section),
                "{\"frame_allocs_per_frame\": %.6f, \"diversion_allocs_per_seg\": %.6f}",
                fp.allocs_per_frame, zc.allocs_per_frame);
  json.add_section("packet_path", section);

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
  const std::uint64_t a0 = heap_stats().allocs;
  const auto w0 = std::chrono::steady_clock::now();
  test::EchoDriver d(t->client(), t->primary().address(), kPort, total, 4096);
  const bool done = test::run_until(t->sim(), [&] { return d.done(); }, seconds(600));
  const auto w1 = std::chrono::steady_clock::now();
  const std::uint64_t allocs = heap_stats().allocs - a0;
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

  const bool green = done && d.verify() && fp.allocs_per_frame <= kMaxAllocs &&
                     zc.allocs_per_frame <= kMaxAllocs;
  if (!green) {
    std::printf("RED: frame %.2f or diversion %.2f allocs/frame above the "
                "%.2f gate, or transfer failed\n",
                fp.allocs_per_frame, zc.allocs_per_frame, kMaxAllocs);
  }
  return green ? 0 : 1;
}
