// Experiment E9: the cost of the packet path itself — heap allocations and
// copies per frame, on three paths:
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
//     headers prepended into the same storage's headroom;
//   * the §3.2 merge path: one primary-bridge connection past its
//     handshake takes P's and S's copies of each reply segment into its
//     two output queues and emits the merged segment to the client.
//
// Once the pools are warm no path allocates: the run FAILS above 0.00
// heap allocations per frame on any of them.
//
// Two report-only rows time the checksum fix-up the diversion path relies
// on: the §3.1 incremental update of one 32-bit pseudo-header address
// against a full Internet checksum over a 1,460-B segment.
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
#include "common/checksum.hpp"
#include "core/bridge_conn.hpp"
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

/// One BridgeConn past its handshake, fed P's and S's copies of the same
/// segments with P one segment ahead (on the LAN, P's own segment reaches
/// its bridge before S's diverted copy), and drained through a sink that
/// counts the merged payload bytes. Its observability is attached, so a
/// per-segment timeline record would show up as allocations.
class MergePath final : public core::BridgeConnSink {
 public:
  explicit MergePath(std::size_t payload_len)
      : conn_(*this, tcp::ConnKey{kPrimary, kPort, kClient, kClientPort}),
        payload_(wire::PacketBuffer::alloc(payload_len)) {
    auto& reg = hub_.registry;
    obs_ = {&hub_,
            &sim_,
            &reg.counter("bridge.retransmissions_forwarded"),
            &reg.counter("bridge.empty_acks_emitted"),
            &reg.histogram("bridge.merged_payload_bytes"),
            &reg.gauge("bridge.pqueue_bytes"),
            &reg.gauge("bridge.pqueue_depth"),
            &reg.gauge("bridge.squeue_bytes"),
            &reg.gauge("bridge.squeue_depth")};
    conn_.attach_obs(&obs_);
    std::uint8_t* p = payload_.mutable_data();
    for (std::size_t i = 0; i < payload_len; ++i) {
      p[i] = static_cast<std::uint8_t>(i * 13 + 5);
    }
    tcp::TcpSegment syn;
    syn.src_port = kClientPort;
    syn.dst_port = kPort;
    syn.seq = kClientIsn;
    syn.flags = tcp::Flags::kSyn;
    syn.window = 65535;
    conn_.on_remote_segment(syn);
    conn_.on_primary_segment(syn_ack(kIssP));
    conn_.on_secondary_segment(syn_ack(kIssS));
    conn_.on_primary_segment(data(kIssP, 0));  // P one segment ahead
  }

  /// Feeds P's next segment and S's copy of the one P sent before it.
  /// Returns the payload bytes merged so far.
  std::size_t one_segment() {
    conn_.on_primary_segment(data(kIssP, sent_ + 1));
    conn_.on_secondary_segment(data(kIssS, sent_));
    ++sent_;
    return merged_bytes_;
  }

  /// Every segment fed by both replicas went out whole, with no divergence.
  bool intact() const {
    return !diverged_ && merged_bytes_ == sent_ * payload_.size();
  }

  void emit(const tcp::TcpSegment& seg, ip::Ipv4, ip::Ipv4) override {
    merged_bytes_ += seg.payload.size();
  }
  void divergence(const tcp::ConnKey&) override { diverged_ = true; }
  void fully_closed(const tcp::ConnKey&) override {}

 private:
  static constexpr std::uint16_t kClientPort = 4242;
  static constexpr Seq32 kClientIsn = 1000;
  static constexpr Seq32 kIssP = 50'000;
  static constexpr Seq32 kIssS = 4'000'000'000u;  // wraps in a full run

  tcp::TcpSegment syn_ack(Seq32 iss) const {
    tcp::TcpSegment s;
    s.src_port = kPort;
    s.dst_port = kClientPort;
    s.seq = iss;
    s.ack = kClientIsn + 1;
    s.flags = tcp::Flags::kSyn | tcp::Flags::kAck;
    s.window = 65535;
    s.mss = 1460;
    return s;
  }
  /// The i-th reply segment in the sequence space starting at `iss`.
  tcp::TcpSegment data(Seq32 iss, std::uint64_t i) const {
    tcp::TcpSegment s;
    s.src_port = kPort;
    s.dst_port = kClientPort;
    s.seq = seq_add(iss, static_cast<std::int64_t>(1 + i * payload_.size()));
    s.ack = kClientIsn + 1;
    s.flags = tcp::Flags::kAck | tcp::Flags::kPsh;
    s.window = 65535;
    s.payload = payload_;
    return s;
  }

  sim::Simulator sim_;
  obs::Hub hub_;
  core::BridgeConnObs obs_;
  core::BridgeConn conn_;
  wire::PacketBuffer payload_;
  std::uint64_t sent_ = 0;
  std::size_t merged_bytes_ = 0;
  bool diverged_ = false;
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
  MergePath merge(payload_len);

  // Warm up (page in code, fill the pools, grow the in-flight tables and
  // the queues' run storage) before counting.
  for (int i = 0; i < 100; ++i) {
    zerocopy_divert(snooped);
    frames.one_frame(payload_len);
    merge.one_segment();
  }

  const PathCost fp = measure_path(iters, [&] { return frames.one_frame(payload_len); });
  const PathCost zc = measure_path(iters, [&] { return zerocopy_divert(snooped); });
  const PathCost mp = measure_path(iters, [&] { return merge.one_segment(); });
  const Bytes segment(1460, 0x5a);
  const PathCost full = measure_path(iters, [&] { return inet_checksum(segment); });
  std::uint16_t ck = 0x1234;
  std::uint32_t old_addr = kPrimary.v, new_addr = kSecondary.v;
  const PathCost incremental = measure_path(iters, [&] {
    ck = checksum_update32(ck, old_addr, new_addr);
    std::swap(old_addr, new_addr);
    return ck;
  });
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
  row("merge (per merged segment)", mp);
  row("checksum, full (1460 B)", full);
  row("checksum, incremental update", incremental);
  std::printf("%s", table.render().c_str());
  std::printf("heap allocations per frame: frame path %.2f, diversion %.2f, "
              "merge %.2f (gate: <= %.2f each)\n",
              fp.allocs_per_frame, zc.allocs_per_frame, mp.allocs_per_frame,
              kMaxAllocs);
  json.add_table("per-frame cost (payload " + std::to_string(payload_len) +
                 "B): host-to-host frame path, diversion path and merge path; "
                 "checksum fix-up, report-only",
                 table);
  char section[192];
  std::snprintf(section, sizeof(section),
                "{\"frame_allocs_per_frame\": %.6f, \"diversion_allocs_per_seg\": %.6f, "
                "\"merge_allocs_per_seg\": %.6f}",
                fp.allocs_per_frame, zc.allocs_per_frame, mp.allocs_per_frame);
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

  const bool green = done && d.verify() && merge.intact() &&
                     fp.allocs_per_frame <= kMaxAllocs &&
                     zc.allocs_per_frame <= kMaxAllocs &&
                     mp.allocs_per_frame <= kMaxAllocs;
  if (!green) {
    std::printf("RED: frame %.2f, diversion %.2f or merge %.2f allocs/frame "
                "above the %.2f gate, or a transfer or merge failed\n",
                fp.allocs_per_frame, zc.allocs_per_frame, mp.allocs_per_frame,
                kMaxAllocs);
  }
  return green ? 0 : 1;
}
