// Shard bench: the batched rx path's headline number.
//
// GRO/batching gate, measured on the path GRO actually optimizes: frame delivery up the receive stack into a live endpoint. A
// bulk echo transfer is captured once off the wire (the echo connection's
// client-to-server frames, handshake included), then the identical frame
// stream is replayed twice — legacy per-frame path vs batched rx with GRO
// coalescing — into a standalone server rig built from the real NIC, IP
// layer, TCP layer and echo application (the rig's ISN is pinned to the
// captured handshake so the replayed stream is acceptable; every rig
// transmission is dropped before the route lookup, so nothing but the
// replay drives it). The rig pays the true per-segment receive costs —
// demux, reassembly, ack generation, app delivery — which is exactly the
// fixed work GRO amortizes. Headline metric is wall-clock data segments/s
// through the rig; the run FAILS unless batching+GRO alone is >= 1.3x or
// the echoed byte count differs between the two paths (stream
// conservation across the batched path).
//
// Artifact: BENCH_shard.json ("shard" section schema validated by
// scripts/check_bench_json.py).
#include <chrono>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "failover_fixture.hpp"
#include "ip/arp.hpp"
#include "ip/ip_layer.hpp"
#include "net/frame.hpp"
#include "net/nic.hpp"
#include "sim/simulator.hpp"
#include "tcp/tcp_layer.hpp"

namespace tfo::bench {
namespace {

/// Sanitizer instrumentation reshapes the cost model (interceptors tax
/// per-byte work far more than per-event work), so wall-clock perf gates
/// are demoted to report-only under TFO_SANITIZE builds; every
/// correctness gate (stream conservation, coalescing) still fails the run.
#if defined(__SANITIZE_ADDRESS__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

/// Storm-style scale knobs: gigabit wire, light per-frame host cost. The
/// bench measures data-path execution cost, not the paper's 100 Mb/s
/// testbed, and must not be bandwidth-bound.
apps::TopologyParams shard_lan_params(bool batching) {
  apps::TopologyParams lp = paper_lan_params();
  lp.medium.bandwidth_bps = 1'000'000'000;
  lp.nic.rx_processing = microseconds(2);
  lp.nic.rx_jitter = 0;
  if (batching) {
    lp.nic.rx_batch_max = 32;
    lp.nic.rx_batch_window = microseconds(400);
    lp.nic.tx_batch_max = 32;
    lp.nic.gro.max_merged = 32;
  }
  return lp;
}

struct XferResult {
  double wall_s = 0;
  double segments_per_s = 0;
  std::uint64_t frames_batched = 0;
  std::uint64_t gro_coalesced = 0;
  bool ok = false;
};

/// One captured wire stream: the echo connection's client-to-server TCP
/// frames in arrival order, as the secondary's promiscuous NIC saw them,
/// plus the handshake facts the replay rig needs to accept the stream.
struct WireCapture {
  std::vector<net::EthernetFrame> frames;  ///< client->server direction only
  ip::Ipv4 server_ip{};
  net::MacAddress server_mac{};
  std::uint32_t server_isn = 0;  ///< seq of the wire SYN-ACK toward the client
  bool have_isn = false;
  std::uint64_t stream_bytes = 0;   ///< unique in-order client payload bytes
  std::uint64_t data_segments = 0;  ///< stored frames carrying TCP payload
  std::uint64_t payload_bytes = 0;  ///< total TCP payload across them
};

/// Decoded header facts of one echo-connection frame.
struct EchoFrameInfo {
  ip::Ipv4 src{}, dst{};
  std::size_t payload_len = 0;
  std::uint32_t seq = 0;
  bool syn = false;
};

/// True when `f` is a TCP frame of the echo connection (either port is
/// kPort); fills `*info` from the headers. Filtering matters: the capture
/// must exclude replica heartbeats and bridge control traffic so the
/// replay is a pure TCP data stream.
bool echo_tcp_frame(const net::EthernetFrame& f, EchoFrameInfo* info) {
  if (f.type != net::EtherType::kIpv4 || f.payload.size() < 20) return false;
  const std::uint8_t* p = f.payload.data();
  if ((p[0] >> 4) != 4 || p[9] != 6) return false;  // IPv4 + TCP
  const std::size_t ihl = std::size_t{static_cast<std::uint8_t>(p[0] & 0x0f)} * 4;
  const std::size_t total = (std::size_t{p[2]} << 8) | p[3];
  if (ihl < 20 || total < ihl + 20 || f.payload.size() < ihl + 20) return false;
  const std::uint8_t* tcp = p + ihl;
  const auto sport = static_cast<std::uint16_t>((tcp[0] << 8) | tcp[1]);
  const auto dport = static_cast<std::uint16_t>((tcp[2] << 8) | tcp[3]);
  if (sport != kPort && dport != kPort) return false;
  const std::size_t doff = std::size_t{static_cast<std::uint8_t>(tcp[12] >> 4)} * 4;
  info->src = ip::Ipv4{(std::uint32_t{p[12]} << 24) | (std::uint32_t{p[13]} << 16) |
                       (std::uint32_t{p[14]} << 8) | p[15]};
  info->dst = ip::Ipv4{(std::uint32_t{p[16]} << 24) | (std::uint32_t{p[17]} << 16) |
                       (std::uint32_t{p[18]} << 8) | p[19]};
  info->payload_len = total > ihl + doff ? total - ihl - doff : 0;
  info->seq = (std::uint32_t{tcp[4]} << 24) | (std::uint32_t{tcp[5]} << 16) |
              (std::uint32_t{tcp[6]} << 8) | tcp[7];
  info->syn = (tcp[13] & 0x02) != 0;
  return true;
}

/// Runs a bulk echo transfer on the legacy path and records the echo
/// connection's frame stream off the secondary's NIC. Frame copies share
/// the wire buffers (CoW), so the capture costs refcounts, not byte
/// copies. With `json`, the run's primary and client land in the artifact.
WireCapture capture_echo_stream(std::size_t bytes, BenchJson* json) {
  const apps::TopologyParams lp = shard_lan_params(false);
  std::unique_ptr<test::Replicated> t;
  std::unique_ptr<apps::EchoServer> e1, e2;
  t = test::make_replicated(lp, {}, [&](apps::Host& h) {
    auto e = std::make_unique<apps::EchoServer>(h.tcp(), kPort);
    (e1 ? e2 : e1) = std::move(e);
  });
  t->sim().run_for(milliseconds(100));

  WireCapture cap;
  cap.stream_bytes = bytes;
  cap.server_ip = t->primary().address();
  t->secondary().nic().add_observer(
      [&cap](const net::EthernetFrame& f, bool /*to_us*/) {
        EchoFrameInfo fi;
        if (!echo_tcp_frame(f, &fi)) return;
        if (fi.src == cap.server_ip) {
          // Server->client frames are not replayed, but the wire SYN-ACK
          // carries the ISN the client's acks are built against — the
          // replay rig must issue the same one.
          if (fi.syn && !cap.have_isn) {
            cap.server_isn = fi.seq;
            cap.have_isn = true;
          }
          return;
        }
        if (fi.dst != cap.server_ip) return;
        if (cap.frames.empty()) cap.server_mac = f.dst;
        cap.frames.push_back(f);
        if (fi.payload_len > 0) ++cap.data_segments;
        cap.payload_bytes += fi.payload_len;
      });
  test::EchoDriver d(t->client(), t->primary().address(), kPort, bytes, 32768);
  if (!test::run_until(t->sim(), [&] { return d.done(); }, seconds(3600)) || !d.verify() ||
      !cap.have_isn) {
    std::fprintf(stderr, "capture transfer did not complete\n");
    cap.frames.clear();
  }
  if (json != nullptr) {
    json->capture_host(t->primary());
    json->capture_host(t->client());
  }
  return cap;
}

/// Replays the captured client stream into a standalone server endpoint:
/// the real NIC (per-frame or batched+GRO), IP layer, TCP layer and echo
/// application, wearing the captured server's MAC/IP/ISN so the replayed
/// handshake and acks are acceptable as-is. An outbound hook drops every
/// rig transmission before the route lookup — no medium, no ARP, nothing
/// but the replay drives the rig — so the wall clock covers the receive
/// path plus the per-segment endpoint work (demux, reassembly, ack
/// generation, app delivery) that frame batching exists to amortize.
/// `echoed_bytes` returns what the echo app consumed and re-sent; stream
/// conservation requires it to equal the capture's unique payload exactly.
XferResult replay_rx_path(const WireCapture& cap, bool batching,
                          std::uint64_t* echoed_bytes) {
  const apps::TopologyParams lp = shard_lan_params(batching);
  sim::Simulator sim;
  net::Nic nic(sim, "rx-rig", cap.server_mac, lp.nic);
  ip::IpLayer ip(sim);
  ip::ArpEntity arp(sim, nic,
                    [&cap] { return std::vector<ip::Ipv4>{cap.server_ip}; });
  ip.add_interface({&nic, &arp, cap.server_ip, 24});
  ip.add_outbound_hook([](ip::IpDatagram&) { return ip::HookVerdict::kDrop; });
  tcp::TcpLayer tcp(sim, ip, lp.tcp, /*seed=*/1);
  tcp.set_next_isn(cap.server_isn);
  apps::EchoServer echo(tcp, kPort);
  nic.set_rx_handler(
      [&ip](const net::EthernetFrame& f, bool to_us) { ip.handle_frame(f, to_us); });

  const auto wall_start = std::chrono::steady_clock::now();
  std::size_t delivered = 0;
  for (const net::EthernetFrame& f : cap.frames) {
    nic.deliver(f);
    // Drain in 64-frame groups: enough sim headroom for the batch window
    // (400 us) plus processing floors, deterministic for both configs,
    // and close to the capture's own pacing so the rig's retransmission
    // clocks stay quiet.
    if ((++delivered & 63u) == 0) sim.run_for(microseconds(900));
  }
  sim.run_for(milliseconds(5));  // tail: let the ack/echo machinery settle

  XferResult r;
  r.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           wall_start)
                 .count();
  r.segments_per_s = static_cast<double>(cap.data_segments) /
                     (r.wall_s > 0 ? r.wall_s : 1e-9);
  r.frames_batched = nic.batch_stats().frames_batched;
  r.gro_coalesced = nic.gro_stats().coalesced;
  *echoed_bytes = echo.bytes_echoed();
  r.ok = echo.bytes_echoed() == cap.stream_bytes;
  if (!r.ok) {
    std::fprintf(stderr,
                 "replay batching=%d: rig echoed %llu bytes of a %llu byte "
                 "stream — data lost or duplicated crossing the rx path\n",
                 batching, static_cast<unsigned long long>(echo.bytes_echoed()),
                 static_cast<unsigned long long>(cap.stream_bytes));
  }
  return r;
}

}  // namespace
}  // namespace tfo::bench

int main(int argc, char** argv) {
  using namespace tfo;
  using namespace tfo::bench;
  const bool quick = argc > 1 && std::string(argv[1]) == "--quick";
  print_header("E11: batched rx path — frame batching and GRO",
               "extension (no table in the paper): receive-path cost of the "
               "failover data path");

  BenchJson json("shard");

  const std::size_t capture_bytes = quick ? 16u * 1024 * 1024 : 48u * 1024 * 1024;
  std::printf("\ncapture %zu MB echo stream, replay the client "
              "frames into a standalone server endpoint, legacy vs "
              "batched+GRO\n",
              capture_bytes >> 20);
  std::fflush(stdout);
  const WireCapture cap = capture_echo_stream(capture_bytes, &json);
  if (cap.frames.empty() || cap.data_segments < 1000) {
    std::fprintf(stderr, "FAIL: capture produced %zu frames / %llu data segments\n",
                 cap.frames.size(),
                 static_cast<unsigned long long>(cap.data_segments));
    return 1;
  }
  std::printf("captured %zu frames (%llu data segments, %llu payload bytes)\n",
              cap.frames.size(),
              static_cast<unsigned long long>(cap.data_segments),
              static_cast<unsigned long long>(cap.payload_bytes));
  std::fflush(stdout);
  // Interleaved repeats, best-of-N per leg: a single replay lasts tens of
  // milliseconds, where allocator warm-up and scheduling noise can swamp
  // the true ratio. The fastest run is the cleanest observation of each
  // path's cost.
  const int reps = quick ? 5 : 7;
  XferResult base, gro;
  std::uint64_t base_bytes = 0, gro_bytes = 0;
  for (int rep = 0; rep < reps; ++rep) {
    const XferResult b = replay_rx_path(cap, false, &base_bytes);
    const XferResult g = replay_rx_path(cap, true, &gro_bytes);
    if (!b.ok || !g.ok) return 1;
    if (!base.ok || b.wall_s < base.wall_s) base = b;
    if (!gro.ok || g.wall_s < gro.wall_s) gro = g;
  }
  const double speedup =
      gro.segments_per_s / (base.segments_per_s > 0 ? base.segments_per_s : 1e-9);
  {
    TextTable table({"rx path", "data segments/s", "wall [s]",
                     "frames batched", "gro coalesced"});
    table.add_row({"per-frame (legacy)", TextTable::num(base.segments_per_s, 0),
                   TextTable::num(base.wall_s, 2), "0", "0"});
    table.add_row({"batched + GRO", TextTable::num(gro.segments_per_s, 0),
                   TextTable::num(gro.wall_s, 2),
                   std::to_string(gro.frames_batched),
                   std::to_string(gro.gro_coalesced)});
    std::printf("%s", table.render().c_str());
    std::printf("speedup: %.2fx (gate: >= 1.3x)\n", speedup);
    json.add_table("GRO/batching gate on the server rx path", table);
  }
  if (speedup < 1.3) {
    if (kSanitized) {
      std::printf("note: %.2fx below the 1.3x gate, waived under sanitizer "
                  "instrumentation (wall-clock gates are native-build only)\n",
                  speedup);
    } else {
      std::fprintf(stderr,
                   "FAIL: batched+GRO rx path is only %.2fx the legacy path "
                   "(gate: >= 1.3x)\n",
                   speedup);
      return 1;
    }
  }
  if (gro.gro_coalesced == 0) {
    std::fprintf(stderr, "FAIL: the batched run never coalesced a frame\n");
    return 1;
  }

  // Machine-readable shard section (validated by check_bench_json.py).
  {
    obs::JsonWriter w;
    w.begin_object();
    w.key("gro").begin_object();
    w.key("mss").value(static_cast<std::uint64_t>(1460));
    w.key("base_segments_per_s").value(base.segments_per_s);
    w.key("gro_segments_per_s").value(gro.segments_per_s);
    w.key("speedup").value(speedup);
    w.key("sanitized").value(kSanitized);
    w.key("frames_batched").value(gro.frames_batched);
    w.key("gro_coalesced").value(gro.gro_coalesced);
    w.end_object();
    w.end_object();
    json.add_section("shard", w.str());
  }
  if (!json.write()) return 1;
  return 0;
}
