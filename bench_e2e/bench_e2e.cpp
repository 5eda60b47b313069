// bench_e2e: the repository benchmark. One program runs one of four
// fixed-size workloads on the replicated testbed, checks the outputs, and
// prints the end-to-end metrics: what a client sees, in simulated time,
// and what the simulation costs, in wall-clock time. With --trace 1 it
// repeats the run with spans recorded around every call it makes into the
// library and prints per-layer metrics. README.md explains the workloads,
// the metrics and how to read a trace; BENCHMARK.json at the repository
// root lists them.
//
//   bench_e2e --workload <stream_up|stream_down|churn|storm> --seed <n>
//             --seconds <s> --trace <0|1>
//
// --seed drives only the generated inputs (arrival and crash schedule,
// request mix, write sizes, payload bytes). --seconds scales the fixed
// amount of work; the sizes at 10 were calibrated so that the commit that
// introduced the benchmark spends 8-15 s in the measured phase on a
// 4-core x86-64 host. The last line of standard output is one JSON object
// with the keys correct, attempted, failed and metrics; the exit code is
// 0 only when every check passed.

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "apps/echo.hpp"
#include "apps/http.hpp"
#include "apps/topology.hpp"
#include "common/rng.hpp"
#include "core/replica_group.hpp"
#include "counting_alloc.hpp"
#include "span_trace.hpp"
#include "wire/packet_buffer.hpp"

namespace tfo::bench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr std::uint16_t kStreamPort = 7777;
constexpr std::uint16_t kHttpPort = 80;
constexpr std::uint64_t kOpBytes = 1460;  // one stream op: a full-MSS payload
constexpr std::uint8_t kPrimaryId = 0;  // tracer host ids
constexpr std::uint8_t kSecondaryId = 1;
constexpr std::uint8_t kClientId = 2;  // further client hosts follow it
constexpr std::size_t kConnsPerClientHost = 15'000;  // < 16384 ephemeral ports
constexpr SimTime kSimLimit = static_cast<SimTime>(seconds(3600));

// Work at --seconds 10 (each scales linearly with --seconds).
constexpr double kStreamUpBytes = 3e9;
constexpr double kStreamDownBytes = 2e9;
constexpr double kStandardLegShare = 0.1;  // standard-TCP leg of goodput_ratio
constexpr double kChurnArrivalSeconds = 5.0;
constexpr double kChurnConnsPerSecond = 10'000;
constexpr double kStormConns = 32'000;
// Set-ups repeat for this long in all, half before the measured phase and
// half after it. One set-up takes tens of µs, and a shared host can run
// ~1.5x slower for seconds at a time, so a median of the set-ups would
// read either the fast or the slow speed; their trimmed mean follows the
// share of time spent slow, as wall_s does.
constexpr double kSetupWindowSeconds = 2.0;
constexpr std::size_t kMaxSetups = 1 << 16;  // set-up times a run keeps, half per side

// The process gives up on a run past this instant, so a pathological
// commit still fails within three minutes instead of running on.
Clock::time_point g_deadline;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// num ÷ den, or 0 when there is nothing to divide by.
double per(double num, double den) { return den > 0 ? num / den : 0; }

// ------------------------------------------------------------- options

const std::vector<std::string> kWorkloads = {"stream_up", "stream_down", "churn",
                                             "storm"};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

[[noreturn]] void usage(const std::string& problem) {
  std::fprintf(stderr,
               "bench_e2e: %s\n"
               "usage: bench_e2e --workload <stream_up|stream_down|churn|storm> "
               "--seed <n> --seconds <s> --trace <0|1>\n",
               problem.c_str());
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  static const char* const kFlags[] = {"--workload", "--seed", "--seconds", "--trace"};
  Options o;
  bool have[4] = {};
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    const auto f = std::find(std::begin(kFlags), std::end(kFlags), flag) - std::begin(kFlags);
    if (f == 4) usage("unknown flag " + flag);
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[i + 1];
    char* end = nullptr;
    if (f == 0) {
      o.workload = v;
    } else if (f == 1) {
      o.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || !std::isdigit(static_cast<unsigned char>(v[0])) || *end != '\0') {
        usage("--seed wants a whole number, got " + v);
      }
    } else if (f == 2) {
      o.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(o.seconds > 0) || o.seconds > 60) {
        usage("--seconds wants a number in (0, 60], got " + v);
      }
    } else {
      if (v != "0" && v != "1") usage("--trace wants 0 or 1, got " + v);
      o.trace = v == "1";
    }
    have[f] = true;
  }
  if (!(have[0] && have[1] && have[2] && have[3])) usage("all four flags are required");
  if (std::find(kWorkloads.begin(), kWorkloads.end(), o.workload) == kWorkloads.end()) {
    usage("unknown workload " + o.workload);
  }
  return o;
}

// -------------------------------------------------------------- inputs

/// A stream workload's bytes: seeded chunks, each a prefix of one of a
/// few deterministic_payload variants, written by one send() apiece.
class StreamPlan {
 public:
  struct Chunk {
    std::uint64_t offset;
    std::uint32_t len;
    std::uint32_t variant;
    std::uint64_t end() const { return offset + len; }
  };
  static constexpr std::uint32_t kMinChunk = 96 * 1024;  // > the 64 KiB send buffer
  static constexpr std::uint32_t kMaxChunk = 256 * 1024;
  static constexpr std::uint32_t kVariants = 8;

  StreamPlan(std::uint64_t bytes, std::uint64_t seed) : bytes_(bytes) {
    Rng rng(seed * 0x9E3779B97F4A7C15ull + 0x53);
    for (std::uint32_t v = 0; v < kVariants; ++v) {
      variants_.push_back(apps::deterministic_payload(kMaxChunk, rng.next_u32()));
    }
    for (std::uint64_t off = 0; off < bytes;) {
      const auto len = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(rng.uniform(kMinChunk, kMaxChunk), bytes - off));
      chunks_.push_back({off, len, static_cast<std::uint32_t>(rng.uniform(0, kVariants - 1))});
      off += len;
    }
  }
  std::uint64_t bytes() const { return bytes_; }
  std::uint64_t ops() const { return (bytes_ + kOpBytes - 1) / kOpBytes; }
  std::size_t chunk_count() const { return chunks_.size(); }
  const Chunk& chunk(std::size_t i) const { return chunks_[i]; }
  const std::uint8_t* data(const Chunk& c) const { return variants_[c.variant].data(); }

 private:
  std::uint64_t bytes_;
  std::vector<Bytes> variants_;
  std::vector<Chunk> chunks_;
};

/// Everything a workload's seed generates, made once per process so that
/// neither the set-ups nor the measured phase pay for it.
struct Inputs {
  Options opt;
  double scale = 1;  // --seconds / 10
  // stream_up, stream_down, and their standard-TCP leg.
  std::unique_ptr<StreamPlan> stream;
  std::unique_ptr<StreamPlan> standard_stream;
  // churn: the documents, each connection's arrival and requests, the crash.
  std::vector<std::string> doc_paths;
  std::vector<Bytes> docs;
  std::vector<std::uint64_t> arrivals_ns;  // from the start of the phase
  std::vector<std::uint8_t> requests;      // document index, kChurnRequests per conn
  std::uint64_t crash_ns = 0;              // from the start of the phase
  // storm: the ramp, and each connection's probe after the crash.
  std::vector<std::uint32_t> open_offsets_ns;
  std::vector<std::uint32_t> probe_offsets_ns;  // from the crash
  Bytes probe_echo;                             // probe 1 + probe 2

  bool is_stream() const { return opt.workload.rfind("stream_", 0) == 0; }
};

constexpr int kChurnRequests = 2;  // keep-alive depth, as in bench_churn

Inputs make_inputs(const Options& o) {
  Inputs in;
  in.opt = o;
  in.scale = o.seconds / 10.0;
  Rng rng(o.seed * 0x9E3779B97F4A7C15ull + 0x5eed);
  if (in.is_stream()) {
    const double bytes =
        (o.workload == "stream_up" ? kStreamUpBytes : kStreamDownBytes) * in.scale;
    in.stream = std::make_unique<StreamPlan>(static_cast<std::uint64_t>(bytes), o.seed);
    in.standard_stream = std::make_unique<StreamPlan>(
        static_cast<std::uint64_t>(bytes * kStandardLegShare), o.seed);
  } else if (o.workload == "churn") {
    // bench_churn's documents and 6:3:1 mix. Each size gains a seeded
    // 0-7 bytes, so that response times, too, depend on the seed.
    in.doc_paths = {"/", "/small", "/big"};
    for (const std::size_t base : {512, 128, 4096}) {
      in.docs.push_back(apps::deterministic_payload(base + rng.uniform(0, 7), rng.next_u32()));
    }
    const double window_ns = kChurnArrivalSeconds * in.scale * 1e9;
    // Halfway through the window, at a seeded phase of the 10 ms heartbeat.
    in.crash_ns = static_cast<std::uint64_t>(window_ns / 2) + rng.uniform(0, 9'999'999);
    for (double t = 0; t <= window_ns;
         t += std::max(1.0, rng.exponential(1e9 / kChurnConnsPerSecond))) {
      in.arrivals_ns.push_back(static_cast<std::uint64_t>(t));
      for (int r = 0; r < kChurnRequests; ++r) {
        const std::uint64_t pick = rng.uniform(0, 9);
        in.requests.push_back(pick < 6 ? 0 : pick < 9 ? 1 : 2);
      }
    }
  } else {
    // One connection opens in each 2 µs slot of the ramp, at a seeded
    // point inside its slot; after the crash each probes at a seeded
    // instant within the first millisecond.
    const auto n = static_cast<std::size_t>(kStormConns * in.scale);
    for (std::size_t i = 0; i < n; ++i) {
      in.open_offsets_ns.push_back(static_cast<std::uint32_t>(i * 2000 + rng.uniform(0, 1999)));
      in.probe_offsets_ns.push_back(static_cast<std::uint32_t>(rng.uniform(0, 999'999)));
    }
    in.probe_echo = apps::deterministic_payload(32, rng.next_u32());
  }
  return in;
}

/// Client hosts beyond the LAN's own that `conns` connections need: one
/// host's ephemeral ports hold kConnsPerClientHost of them.
std::size_t extra_client_hosts(std::size_t conns) {
  return conns == 0 ? 0 : (conns - 1) / kConnsPerClientHost;
}

// -------------------------------------------------------------- testbed

/// The paper's LAN (bench/bench_util.hpp's paper_lan_params): standard-TCP
/// connection setup near the paper's 294 µs median on 100 Mb/s Ethernet.
apps::LanParams paper_lan() {
  apps::LanParams lp;
  lp.medium.bandwidth_bps = 100'000'000;
  lp.medium.propagation = microseconds(1);
  lp.nic.rx_processing = microseconds(120);
  lp.nic.rx_jitter = microseconds(45);
  lp.tcp.send_copy_ns_per_byte = 8;
  lp.tcp.delayed_ack = milliseconds(40);
  lp.tcp.nagle = false;
  return lp;
}

/// bench_churn's and bench_storm's LAN: gigabit wire, light per-frame
/// processing, so tables and timers rather than the wire set the pace.
apps::LanParams scale_lan() {
  apps::LanParams lp = paper_lan();
  lp.medium.bandwidth_bps = 1'000'000'000;
  lp.nic.rx_processing = microseconds(2);
  lp.nic.rx_jitter = 0;
  return lp;
}

/// Runs `f` inside a span when tracing; just runs it otherwise.
struct Traced {
  Tracer* tr = nullptr;
  std::uint8_t host = Tracer::kNoHost;

  template <class F>
  void operator()(SpanKind kind, std::uint64_t conn, F&& f) const {
    if (tr == nullptr) {
      f();
      return;
    }
    tr->begin(kind, host, conn);
    f();
    tr->end(kind, host);
  }
};

/// One run's hosts and replica group. With a tracer, every host's NIC rx
/// handler is replaced by a traced copy of apps::Host's demux, and
/// pass-through IP hooks and TCP taps are registered on the replicas
/// before and after the group, so they bracket the bridges' own hooks.
class Bed {
 public:
  Bed(const apps::LanParams& lp, std::size_t extra_clients, Tracer* tr)
      : tr_(tr), started_(Clock::now()), lan_(apps::make_lan(lp)) {
    for (std::size_t i = 0; i < extra_clients; ++i) {
      apps::HostParams hp;
      hp.nic = lp.nic;
      hp.arp = lp.arp;
      hp.tcp = lp.tcp;
      hp.name = "client" + std::to_string(i + 1);
      hp.addr = ip::Ipv4::parse(("10.0.0." + std::to_string(100 + i)).c_str());
      hp.seed = 1000 + i;
      extra_.push_back(std::make_unique<apps::Host>(lan_->sim, hp, *lan_->wire));
      extra_.back()->arp().add_static(primary().address(), primary().nic().mac());
      extra_.back()->arp().add_static(secondary().address(), secondary().nic().mac());
    }
    hosts_ = {lan_->primary.get(), lan_->secondary.get(), lan_->client.get()};
    for (auto& h : extra_) hosts_.push_back(h.get());
    for (apps::Host* c : clients()) {
      c->nic().add_observer([this](const net::EthernetFrame& f, bool to_us) {
        if (to_us && carries_tcp_rst(f)) ++client_rsts_;
      });
    }
    // Before the takeover the client never addresses the secondary's MAC,
    // so the first such frame is the client resuming after the takeover.
    secondary().nic().add_observer([this](const net::EthernetFrame& f, bool) {
      if (resumed_at_ == 0 && f.dst == secondary().nic().mac() && is_client_mac(f.src)) {
        resumed_at_ = sim().now();
      }
    });
    if (tr_ != nullptr) trace_before_group();
  }
  Bed(const Bed&) = delete;
  Bed& operator=(const Bed&) = delete;

  /// Replicates `port` across primary and secondary, installs the server
  /// application on both, and settles.
  void replicate(std::uint16_t port, const std::function<void(apps::Host&)>& install) {
    core::FailoverConfig cfg;
    cfg.ports = {port};
    group_ = std::make_unique<core::ReplicaGroup>(primary(), secondary(), cfg);
    install(primary());
    install(secondary());
    group_->start();
    if (tr_ != nullptr) trace_after_group();
    settle();
  }

  /// Standard TCP: the server application runs on the primary alone.
  void standalone(const std::function<void(apps::Host&)>& install) {
    install(primary());
    settle();
  }

  sim::Simulator& sim() { return lan_->sim; }
  apps::Host& primary() { return *lan_->primary; }
  apps::Host& secondary() { return *lan_->secondary; }
  apps::Host& client() { return *lan_->client; }
  core::ReplicaGroup* group() { return group_.get(); }
  const std::vector<apps::Host*>& hosts() const { return hosts_; }
  std::span<apps::Host* const> clients() const {
    return std::span<apps::Host* const>(hosts_).subspan(2);
  }
  std::uint8_t id_of(const apps::Host& h) const {
    return static_cast<std::uint8_t>(
        std::find(hosts_.begin(), hosts_.end(), &h) - hosts_.begin());
  }
  Traced traced(std::uint8_t host) const { return {tr_, host}; }
  std::uint64_t client_rsts() const { return client_rsts_; }
  SimTime resumed_at() const { return resumed_at_; }
  /// Wall time from construction to the end of settling; the
  /// workloads' own bookkeeping is allocated outside it.
  double setup_s() const { return setup_s_; }

 private:
  static bool carries_tcp_rst(const net::EthernetFrame& f) {
    if (f.type != net::EtherType::kIpv4) return false;
    const wire::PacketBuffer& p = f.payload;
    if (p.size() < 20 || p[9] != 6) return false;  // IPv4 protocol 6 = TCP
    const std::size_t ihl = static_cast<std::size_t>(p[0] & 0x0f) * 4;
    return p.size() >= ihl + 14 && (p[ihl + 13] & tcp::Flags::kRst) != 0;
  }
  bool is_client_mac(const net::MacAddress& mac) const {
    for (apps::Host* c : clients()) {
      if (c->nic().mac() == mac) return true;
    }
    return false;
  }

  void settle() {
    sim().run_for(milliseconds(100));  // detectors and ARP settle
    setup_s_ = seconds_since(started_);
  }

  void trace_before_group() {
    Tracer& tr = *tr_;
    std::vector<std::string> names;
    for (apps::Host* h : hosts_) names.push_back(h->name());
    tr.name_hosts(std::move(names));
    for (std::size_t i = 0; i < hosts_.size(); ++i) {
      apps::Host& h = *hosts_[i];
      const auto id = static_cast<std::uint8_t>(i);
      h.nic().set_rx_handler([&tr, &h, id](const net::EthernetFrame& f, bool to_us) {
        switch (f.type) {
          case net::EtherType::kArp:
            tr.begin(SpanKind::kArpRx, id);
            h.arp().handle_frame(f);
            tr.end(SpanKind::kArpRx, id);
            break;
          case net::EtherType::kIpv4:
            tr.begin(SpanKind::kIpRx, id);
            h.ip().handle_frame(f, to_us);
            tr.end(SpanKind::kIpRx, id);
            break;
        }
      });
    }
    // The primary bridge takes inbound segments at a TCP tap, the
    // secondary at an IP hook (the §3.1 rewrite); both take outbound
    // segments at a TCP tap.
    primary().tcp().add_inbound_tap(
        [&tr](tcp::TcpSegment&, ip::Ipv4&, ip::Ipv4&, const ip::RxMeta&) {
          tr.begin_bridge(SpanKind::kBridgeIn, kPrimaryId);
          return tcp::TapVerdict::kContinue;
        });
    secondary().ip().add_inbound_hook([&tr](ip::IpDatagram&, const ip::RxMeta&) {
      tr.begin_bridge(SpanKind::kBridgeIn, kSecondaryId);
      return ip::HookVerdict::kContinue;
    });
    for (const std::uint8_t id : {kPrimaryId, kSecondaryId}) {
      hosts_[id]->tcp().add_outbound_tap([&tr, id](tcp::TcpSegment&, ip::Ipv4&, ip::Ipv4&) {
        tr.begin_bridge(SpanKind::kBridgeOut, id);
        return tcp::TapVerdict::kContinue;
      });
    }
  }

  void trace_after_group() {
    Tracer& tr = *tr_;
    secondary().ip().add_inbound_hook([&tr](ip::IpDatagram&, const ip::RxMeta&) {
      tr.end(SpanKind::kBridgeIn, kSecondaryId);
      return ip::HookVerdict::kContinue;
    });
    for (std::size_t i = 0; i < hosts_.size(); ++i) {
      const auto id = static_cast<std::uint8_t>(i);
      hosts_[i]->tcp().add_inbound_tap(
          [&tr, id](tcp::TcpSegment&, ip::Ipv4&, ip::Ipv4&, const ip::RxMeta&) {
            tr.end(SpanKind::kBridgeIn, id);
            tr.begin(SpanKind::kTcpRx, id);  // ends with the enclosing ip.rx
            return tcp::TapVerdict::kContinue;
          });
    }
    for (const std::uint8_t id : {kPrimaryId, kSecondaryId}) {
      hosts_[id]->tcp().add_outbound_tap([&tr, id](tcp::TcpSegment&, ip::Ipv4&, ip::Ipv4&) {
        tr.end(SpanKind::kBridgeOut, id);
        return tcp::TapVerdict::kContinue;
      });
    }
  }

  Tracer* tr_;
  Clock::time_point started_;
  double setup_s_ = 0;
  std::unique_ptr<apps::Lan> lan_;
  std::vector<std::unique_ptr<apps::Host>> extra_;
  std::unique_ptr<core::ReplicaGroup> group_;
  std::vector<apps::Host*> hosts_;  // tracer host ids: primary, secondary, clients
  std::uint64_t client_rsts_ = 0;
  SimTime resumed_at_ = 0;
};

/// The benchmark's step loop: the only place simulated time advances during
/// the measured phase. Traced, it wraps each step in a sim.step span.
class Loop {
 public:
  Loop(Bed& bed, Tracer* tr)
      : sim_(bed.sim()),
        tr_(tr),
        sb_(bed.group() ? &bed.group()->secondary_bridge() : nullptr) {}

  /// Steps until `done()`. False when the queue drained first or a
  /// simulated- or wall-time guard fired.
  template <class Done>
  bool run_until(Done&& done) {
    for (std::uint64_t n = 1; !done(); ++n) {
      if ((n & 0xfff) == 0 && (Clock::now() > g_deadline || sim_.now() > kSimLimit)) {
        guard_fired_ = true;
        return false;
      }
      if (tr_ == nullptr) {
        if (!sim_.step()) return done();
        continue;
      }
      const bool before = sb_ != nullptr && sb_->taken_over();
      tr_->begin(SpanKind::kStep, Tracer::kNoHost);
      const bool stepped = sim_.step();
      tr_->end(SpanKind::kStep, Tracer::kNoHost);
      if (!before && sb_ != nullptr && sb_->taken_over()) takeover_step_ns_ = tr_->last_top_ns();
      if (!stepped) return done();
    }
    return true;
  }

  /// Steps through `d` of simulated time (ended by an event of its own).
  bool run_for(SimDuration d) {
    bool over = false;
    sim_.schedule_after(d, [&over] { over = true; });
    return run_until([&over] { return over; });
  }

  bool guard_fired() const { return guard_fired_; }
  /// Wall time of the step that ran the secondary's takeover (traced only).
  std::int64_t takeover_step_ns() const { return takeover_step_ns_; }

 private:
  sim::Simulator& sim_;
  Tracer* tr_;
  core::SecondaryBridge* sb_;
  bool guard_fired_ = false;
  std::int64_t takeover_step_ns_ = 0;
};

// ------------------------------------------------------------ workloads

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;  // sample count and percentile, for percentiles
};

/// What a run delivered to its clients, in simulated time.
struct Outcome {
  std::uint64_t ops = 0;  // attempted
  std::uint64_t failed = 0;
  std::vector<double> op_latency_ns;
  SimTime first_start = 0;  // first op started
  SimTime last_done = 0;    // last op completed
  SimTime crash_at = 0;     // 0: no crash
  std::uint64_t responses_bad = 0;     // replies that failed the content check
  std::uint64_t connect_failures = 0;  // connect() refused locally
  std::vector<std::string> errors;
  std::vector<Metric> client;  // the workload's own client-visible metrics
};

/// Nearest-rank percentile of `v` (reordered).
double percentile(std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  const auto k = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size()))) - 1;
  const auto idx = std::min(k, v.size() - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx), v.end());
  return v[idx];
}

/// The tail percentile a sample supports: 99.9, or lower when fewer than
/// ten samples would lie beyond it.
double tail_q(std::size_t n) {
  return std::max(0.5, std::min(0.999, 1.0 - 10.0 / static_cast<double>(n)));
}

void add_percentiles(std::vector<Metric>& out, const std::string& prefix,
                     std::vector<double> samples_ns) {
  const std::size_t n = samples_ns.size();
  const double q = tail_q(n);
  const std::string count = "n=" + std::to_string(n);
  out.push_back({prefix + "_p50_ms", percentile(samples_ns, 0.5) / 1e6, "ms", count});
  char note[64];
  std::snprintf(note, sizeof(note), "%s q=%.4g", count.c_str(), q);
  out.push_back({prefix + "_p999_ms", percentile(samples_ns, q) / 1e6, "ms", note});
}

class Workload {
 public:
  virtual ~Workload() = default;
  virtual Bed& bed() = 0;
  /// Sizes the workload's own bookkeeping, once, on the set-up that goes
  /// on to the measured phase. The repeated set-ups skip it, so that no
  /// large allocation runs between two timed ones.
  virtual void prepare() {}
  /// The measured phase.
  virtual void measure(Loop& loop) = 0;
  /// Client-visible results and the workload's own output checks.
  virtual Outcome outcome() = 0;
};

/// Sends a plan's chunks over one connection, each next chunk once the
/// previous one is in the send buffer (closed loop, window-limited).
class StreamSender {
 public:
  StreamSender(const StreamPlan& plan, std::shared_ptr<tcp::Connection> conn, Traced t,
               sim::Simulator& sim, std::vector<SimTime>* write_times)
      : plan_(plan), conn_(std::move(conn)), t_(t), sim_(sim), write_times_(write_times) {}

  void feed() {
    if (next_ == plan_.chunk_count()) return;
    const StreamPlan::Chunk& c = plan_.chunk(next_++);
    if (write_times_ != nullptr) write_times_->push_back(sim_.now());
    Bytes data(plan_.data(c), plan_.data(c) + c.len);
    t_(SpanKind::kTcpSend, conn_->id(),
       [&] { conn_->send(std::move(data), [this] { feed(); }); });
  }

 private:
  const StreamPlan& plan_;
  std::shared_ptr<tcp::Connection> conn_;
  Traced t_;
  sim::Simulator& sim_;
  std::vector<SimTime>* write_times_;  // the reference sender's, else null
  std::size_t next_ = 0;
};

/// Reads a plan's bytes from one connection and verifies them. With
/// `latencies`, it also records each op's latency: from the write() of the
/// chunk holding the op's last byte to the read that completes the op.
class StreamReceiver {
 public:
  StreamReceiver(const StreamPlan& plan, std::shared_ptr<tcp::Connection> conn, Traced t,
                 sim::Simulator& sim, const std::vector<SimTime>* write_times,
                 std::vector<double>* latencies)
      : plan_(plan),
        conn_(std::move(conn)),
        t_(t),
        sim_(sim),
        write_times_(write_times),
        latencies_(latencies),
        next_op_end_(std::min(kOpBytes, plan.bytes())) {
    conn_->on_readable = [this] { t_(SpanKind::kAppsRx, conn_->id(), [this] { read(); }); };
    if (conn_->rx_available() > 0) conn_->on_readable();  // data raced the accept
  }

  bool complete() const { return !corrupt_ && pos_ == plan_.bytes(); }
  bool corrupt() const { return corrupt_; }
  std::uint64_t good_ops() const { return good_bytes_ / kOpBytes; }
  SimTime done_at() const { return done_at_; }

 private:
  void read() {
    buf_.clear();
    conn_->recv(buf_);
    if (!corrupt_) verify();
    pos_ += buf_.size();
    if (!corrupt_) good_bytes_ = pos_;
    if (latencies_ != nullptr && !corrupt_) record_latencies();
    if (pos_ == plan_.bytes() && done_at_ == 0) done_at_ = sim_.now();
  }

  void verify() {
    for (std::size_t i = 0; i < buf_.size();) {
      if (chunk_ == plan_.chunk_count()) {
        corrupt_ = true;  // bytes beyond the end of the stream
        return;
      }
      const StreamPlan::Chunk& c = plan_.chunk(chunk_);
      const std::size_t n = std::min<std::size_t>(buf_.size() - i, c.len - in_chunk_);
      if (std::memcmp(buf_.data() + i, plan_.data(c) + in_chunk_, n) != 0) {
        corrupt_ = true;
        return;
      }
      i += n;
      in_chunk_ += n;
      if (in_chunk_ == c.len) {
        ++chunk_;
        in_chunk_ = 0;
      }
    }
  }

  void record_latencies() {
    const SimTime now = sim_.now();
    while (next_op_end_ != 0 && next_op_end_ <= pos_) {
      while (plan_.chunk(lat_chunk_).end() < next_op_end_) ++lat_chunk_;
      if (lat_chunk_ >= write_times_->size()) {
        corrupt_ = true;  // delivered before it was written
        return;
      }
      latencies_->push_back(static_cast<double>(now - (*write_times_)[lat_chunk_]));
      next_op_end_ = next_op_end_ == plan_.bytes()
                         ? 0
                         : std::min(next_op_end_ + kOpBytes, plan_.bytes());
    }
  }

  const StreamPlan& plan_;
  std::shared_ptr<tcp::Connection> conn_;
  Traced t_;
  sim::Simulator& sim_;
  const std::vector<SimTime>* write_times_;
  std::vector<double>* latencies_;
  Bytes buf_;
  std::uint64_t pos_ = 0;
  std::uint64_t good_bytes_ = 0;
  std::size_t chunk_ = 0;      // verification cursor
  std::size_t in_chunk_ = 0;
  std::size_t lat_chunk_ = 0;  // latency cursor
  std::uint64_t next_op_end_;  // 0 once every op is recorded
  bool corrupt_ = false;
  SimTime done_at_ = 0;
};

/// stream_up / stream_down: one connection streams the plan client→server
/// (into both replicas' applications) or server→client (both replicas
/// write it, the bridge merges it). Without failover it is the
/// standard-TCP leg: the primary alone, same LAN.
class StreamWorkload : public Workload {
 public:
  StreamWorkload(const StreamPlan& plan, bool upload, bool failover, Tracer* tr)
      : bed_(paper_lan(), 0, tr), plan_(plan), upload_(upload), failover_(failover) {
    const auto install = [this](apps::Host& h) {
      h.tcp().listen(kStreamPort, [this, &h](std::shared_ptr<tcp::Connection> c) {
        const std::uint8_t id = bed_.id_of(h);
        if (upload_) {
          rx_[id] = std::make_unique<StreamReceiver>(
              plan_, std::move(c), bed_.traced(id), bed_.sim(), &write_times_,
              id == kPrimaryId ? &latencies_ : nullptr);
        } else {
          // The primary's writes are the reference for op latency.
          tx_[id] = std::make_unique<StreamSender>(
              plan_, std::move(c), bed_.traced(id), bed_.sim(),
              id == kPrimaryId ? &write_times_ : nullptr);
          tx_[id]->feed();
        }
      });
    };
    if (failover) {
      bed_.replicate(kStreamPort, install);
    } else {
      bed_.standalone(install);
    }
  }

  Bed& bed() override { return bed_; }

  void prepare() override {
    write_times_.reserve(plan_.chunk_count());
    latencies_.reserve(plan_.ops());
  }

  void measure(Loop& loop) override {
    const Traced t = bed_.traced(kClientId);
    std::shared_ptr<tcp::Connection> conn;
    t(SpanKind::kTcpSend, 0, [&] {
      conn = bed_.client().tcp().connect(bed_.primary().address(), kStreamPort,
                                         {.nodelay = true});
    });
    if (!conn) {
      connect_failed_ = true;
      return;
    }
    if (upload_) {
      tx_[kClientId] = std::make_unique<StreamSender>(plan_, conn, t, bed_.sim(), &write_times_);
      conn->on_established = [this] { tx_[kClientId]->feed(); };
    } else {
      rx_[kClientId] = std::make_unique<StreamReceiver>(plan_, conn, t, bed_.sim(),
                                                        &write_times_, &latencies_);
    }
    loop.run_until([this] { return receivers_done(); });
  }

  Outcome outcome() override {
    Outcome o;
    o.ops = plan_.ops();
    const StreamReceiver* ref = rx_[upload_ ? kPrimaryId : kClientId].get();
    o.failed = ref != nullptr && ref->complete() ? 0 : o.ops - (ref ? ref->good_ops() : 0);
    o.connect_failures = connect_failed_ ? 1 : 0;
    if (connect_failed_) o.errors.push_back("connect() failed");
    for (const auto& r : rx_) {
      if (r && r->corrupt()) {
        ++o.responses_bad;
        o.errors.push_back("stream bytes differ from the payload plan");
      }
    }
    if (!receivers_done()) o.errors.push_back("stream incomplete");
    o.first_start = write_times_.empty() ? 0 : write_times_.front();
    o.last_done = ref != nullptr ? ref->done_at() : 0;
    o.op_latency_ns = std::move(latencies_);
    const double secs = static_cast<double>(o.last_done - o.first_start) / 1e9;
    o.client.push_back(
        {"goodput_mbps", per(static_cast<double>(plan_.bytes()) * 8 / 1e6, secs), "Mb/s", ""});
    return o;
  }

 private:
  /// Every receiving application has the whole stream: both replicas' on
  /// upload (the primary's defines delivery), the client's on download.
  bool receivers_done() const {
    const auto done = [this](std::uint8_t id) { return rx_[id] && rx_[id]->complete(); };
    if (!upload_) return done(kClientId);
    return done(kPrimaryId) && (!failover_ || done(kSecondaryId));
  }

  Bed bed_;
  const StreamPlan& plan_;
  bool upload_;
  bool failover_;
  std::vector<SimTime> write_times_;  // reference sender's write() instants
  std::vector<double> latencies_;
  std::unique_ptr<StreamSender> tx_[3];  // by tracer host id
  std::unique_ptr<StreamReceiver> rx_[3];
  bool connect_failed_ = false;
};

/// churn: bench_churn's configuration at 10k conn/s against the replicated
/// HttpServer, driven by this file's own client in apps::LoadGen's shape:
/// open-loop Poisson arrivals, two HTTP/1.1 keep-alive requests per
/// connection with a 200 µs think time, the last asking to close. The
/// primary crashes halfway through the arrival window (within 10 ms); a
/// drain past 2·MSL follows so TIME_WAIT and the bridge's tables empty
/// out. The client verifies every response body, and times each
/// connection from its scheduled arrival, so a stall also counts against
/// the arrivals it delays.
class ChurnWorkload : public Workload {
 public:
  ChurnWorkload(const Inputs& in, Tracer* tr)
      : bed_(churn_lan(), 0, tr), in_(in) {
    bed_.replicate(kHttpPort, [this](apps::Host& h) {
      auto w = std::make_unique<apps::HttpServer>(h.tcp(), kHttpPort);
      for (std::size_t d = 0; d < in_.docs.size(); ++d) {
        w->add_document(in_.doc_paths[d], in_.docs[d]);
      }
      (w1_ ? w2_ : w1_) = std::move(w);
    });
  }

  Bed& bed() override { return bed_; }

  void prepare() override {
    sessions_.resize(in_.arrivals_ns.size());
    first_response_ns_.reserve(sessions_.size());
    connect_ns_.reserve(sessions_.size());
    request_ns_.reserve(sessions_.size() * kChurnRequests);
  }

  void measure(Loop& loop) override {
    sim::Simulator& sim = bed_.sim();
    start_ = sim.now();
    sim.schedule_at(start_ + in_.arrivals_ns.front(), [this] { launch(0); });
    sim.schedule_at(start_ + in_.crash_ns, [this] {
      crash_at_ = bed_.sim().now();
      bed_.group()->crash_primary();
    });
    if (!loop.run_until([this] { return finished_ == sessions_.size(); })) return;
    done_at_ = sim.now();
    drained_ = loop.run_for(2 * churn_lan().tcp.msl + milliseconds(600));
  }

  Outcome outcome() override {
    Outcome o;
    o.ops = sessions_.size();
    o.failed = o.ops - completed_;
    o.responses_bad = responses_bad_;
    o.connect_failures = connect_failures_;
    if (done_at_ == 0) o.errors.push_back("connections still open at the end of the run");
    if (!drained_) o.errors.push_back("drain did not finish");
    if (o.failed != 0) o.errors.push_back(std::to_string(o.failed) + " connections failed");
    if (responses_bad_ != 0) {
      o.errors.push_back(std::to_string(responses_bad_) + " responses failed the content check");
    }
    o.first_start = start_ + in_.arrivals_ns.front();
    o.last_done = done_at_;
    o.crash_at = crash_at_;
    o.op_latency_ns = first_response_ns_;
    add_percentiles(o.client, "connect", connect_ns_);
    add_percentiles(o.client, "request", request_ns_);
    const double secs = static_cast<double>(done_at_ - o.first_start) / 1e9;
    o.client.push_back({"served_rps", per(static_cast<double>(responses_ok_), secs), "1/s", ""});
    return o;
  }

 private:
  struct Session {
    std::shared_ptr<tcp::Connection> conn;
    std::string rx;       // response bytes not yet parsed
    SimTime sent_at = 0;  // the request in flight
    int sent = 0;         // requests sent
    int answered = 0;     // responses received
    bool bad = false;
  };

  /// bench_churn's LAN, with MSL raised to 1 s so that at 10k conn/s the
  /// client's 16384 ephemeral ports wrap inside 2·MSL and port reuse goes
  /// through TIME_WAIT recycling.
  static apps::LanParams churn_lan() {
    apps::LanParams lp = scale_lan();
    lp.tcp.msl = seconds(1);
    return lp;
  }

  SimTime arrival(std::size_t i) const { return start_ + in_.arrivals_ns[i]; }

  void launch(std::size_t i) {
    if (i + 1 < sessions_.size()) {
      bed_.sim().schedule_at(arrival(i + 1), [this, i] { launch(i + 1); });
    }
    const Traced t = bed_.traced(kClientId);
    Session& s = sessions_[i];
    t(SpanKind::kTcpSend, 0, [&] {
      s.conn = bed_.client().tcp().connect(bed_.primary().address(), kHttpPort,
                                           {.nodelay = true});
    });
    if (!s.conn) {
      ++connect_failures_;
      ++finished_;
      return;
    }
    tcp::Connection* raw = s.conn.get();
    raw->on_established = [this, i] {
      connect_ns_.push_back(static_cast<double>(bed_.sim().now() - arrival(i)));
      send_request(i);
    };
    raw->on_readable = [this, i, raw, t] {
      t(SpanKind::kAppsRx, raw->id(), [&] { read(i); });
    };
    raw->on_peer_fin = [this, i, raw] {
      if (raw->rx_available() > 0) read(i);
      raw->close();
    };
    raw->on_closed = [this, i](tcp::CloseReason why) {
      Session& s = sessions_[i];
      if (why == tcp::CloseReason::kGraceful && s.answered == kChurnRequests && !s.bad) {
        ++completed_;
      }
      ++finished_;
      s.conn.reset();  // the TCP layer keeps the connection alive until its deferred erase
    };
  }

  void send_request(std::size_t i) {
    Session& s = sessions_[i];
    const std::size_t doc = in_.requests[i * kChurnRequests + s.sent];
    const bool last = ++s.sent == kChurnRequests;
    const std::string req = "GET " + in_.doc_paths[doc] +
                            " HTTP/1.1\r\nHost: bench\r\nConnection: " +
                            (last ? "close" : "keep-alive") + "\r\n\r\n";
    s.sent_at = bed_.sim().now();
    tcp::Connection* raw = s.conn.get();
    bed_.traced(kClientId)(SpanKind::kTcpSend, raw->id(), [&] { raw->send(to_bytes(req)); });
  }

  void read(std::size_t i) {
    Session& s = sessions_[i];
    buf_.clear();
    s.conn->recv(buf_);
    s.rx.append(buf_.begin(), buf_.end());
    while (s.answered < s.sent) {
      const std::size_t head_end = s.rx.find("\r\n\r\n");
      if (head_end == std::string::npos) return;
      const std::size_t cl = s.rx.find("Content-Length: ");
      const std::size_t len =
          cl < head_end ? std::strtoull(s.rx.c_str() + cl + 16, nullptr, 10) : 0;
      const std::size_t total = head_end + 4 + len;
      if (s.rx.size() < total) return;
      const Bytes& doc = in_.docs[in_.requests[i * kChurnRequests + s.answered]];
      if (s.rx.compare(0, 12, "HTTP/1.1 200") != 0 || len != doc.size() ||
          std::memcmp(s.rx.data() + head_end + 4, doc.data(), len) != 0) {
        s.bad = true;
        ++responses_bad_;
      } else {
        ++responses_ok_;
      }
      const SimTime now = bed_.sim().now();
      request_ns_.push_back(static_cast<double>(now - s.sent_at));
      if (s.answered == 0) first_response_ns_.push_back(static_cast<double>(now - arrival(i)));
      s.rx.erase(0, total);
      if (++s.answered < kChurnRequests) {
        bed_.sim().schedule_after(microseconds(200), [this, i] {
          if (sessions_[i].conn) send_request(i);
        });
      }
    }
  }

  Bed bed_;
  const Inputs& in_;
  std::unique_ptr<apps::HttpServer> w1_, w2_;
  std::vector<Session> sessions_;
  Bytes buf_;
  std::vector<double> first_response_ns_, connect_ns_, request_ns_;
  std::size_t finished_ = 0, completed_ = 0;
  std::uint64_t responses_ok_ = 0, responses_bad_ = 0, connect_failures_ = 0;
  SimTime start_ = 0, done_at_ = 0, crash_at_ = 0;
  bool drained_ = false;
};

/// storm: bench_storm's configuration — N connections ramp up against the
/// replicated EchoServer (one per 2 µs slot) and complete one echo; then
/// the primary crashes and every connection sends a probe within the next
/// millisecond. Each probe's echo, timed from the crash, is one takeover
/// sample.
class StormWorkload : public Workload {
 public:
  StormWorkload(const Inputs& in, Tracer* tr)
      : bed_(scale_lan(), extra_client_hosts(in.open_offsets_ns.size()), tr), in_(in) {
    bed_.replicate(kStreamPort, [this](apps::Host& h) {
      auto e = std::make_unique<apps::EchoServer>(h.tcp(), kStreamPort);
      (e1_ ? e2_ : e1_) = std::move(e);
    });
  }

  Bed& bed() override { return bed_; }

  void prepare() override { conns_.resize(in_.open_offsets_ns.size()); }

  void measure(Loop& loop) override {
    sim::Simulator& sim = bed_.sim();
    const SimTime t0 = sim.now();
    first_open_ = t0 + in_.open_offsets_ns.front();
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      sim.schedule_at(t0 + in_.open_offsets_ns[i], [this, i] { open(i); });
    }
    if (!loop.run_until([this] { return ready_ + connect_failures_ == conns_.size(); })) return;
    crash_at_ = sim.now();
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      if (!conns_[i].conn) continue;
      sim.schedule_at(crash_at_ + in_.probe_offsets_ns[i],
                      [this, i] { send_probe(i, kProbeBytes); });
    }
    bed_.group()->crash_primary();
    loop.run_until([this] { return replied_ + connect_failures_ == conns_.size(); });
  }

  Outcome outcome() override {
    Outcome o;
    o.ops = conns_.size();
    o.first_start = first_open_;
    o.crash_at = crash_at_;
    o.op_latency_ns.reserve(conns_.size());
    for (const Conn& c : conns_) {
      if (c.corrupt) ++o.responses_bad;
      if (c.replied_at == 0 || c.corrupt) {
        ++o.failed;
        continue;
      }
      o.op_latency_ns.push_back(static_cast<double>(c.replied_at - crash_at_));
      o.last_done = std::max(o.last_done, c.replied_at);
    }
    o.connect_failures = connect_failures_;
    if (o.failed != 0) {
      o.errors.push_back(std::to_string(o.failed) + " probes not echoed intact");
    }
    add_percentiles(o.client, "takeover", o.op_latency_ns);
    return o;
  }

 private:
  static constexpr std::size_t kProbeBytes = 16;
  struct Conn {
    std::shared_ptr<tcp::Connection> conn;
    std::uint32_t rx = 0;  // echoed bytes received
    bool corrupt = false;
    SimTime replied_at = 0;
  };

  void open(std::size_t i) {
    apps::Host& ch = *bed_.clients()[i / kConnsPerClientHost];
    const std::uint8_t id = bed_.id_of(ch);
    const Traced t = bed_.traced(id);
    Conn& c = conns_[i];
    t(SpanKind::kTcpSend, 0, [&] {
      c.conn = ch.tcp().connect(bed_.primary().address(), kStreamPort, {.nodelay = true});
    });
    if (!c.conn) {
      ++connect_failures_;
      return;
    }
    tcp::Connection* raw = c.conn.get();
    raw->on_established = [this, i] { send_probe(i, 0); };
    raw->on_readable = [this, i, raw, t] {
      t(SpanKind::kAppsRx, raw->id(), [&] { read(i); });
    };
  }

  /// Sends the probe that starts at `offset` of the expected echo.
  void send_probe(std::size_t i, std::size_t offset) {
    tcp::Connection* raw = conns_[i].conn.get();
    const Traced t = bed_.traced(bed_.id_of(*bed_.clients()[i / kConnsPerClientHost]));
    const std::uint8_t* p = in_.probe_echo.data() + offset;
    t(SpanKind::kTcpSend, raw->id(), [&] { raw->send(Bytes(p, p + kProbeBytes)); });
  }

  void read(std::size_t i) {
    Conn& c = conns_[i];
    buf_.clear();
    c.conn->recv(buf_);
    if (c.rx + buf_.size() > in_.probe_echo.size() ||
        std::memcmp(buf_.data(), in_.probe_echo.data() + c.rx, buf_.size()) != 0) {
      c.corrupt = true;
    }
    const std::uint32_t before = c.rx;
    c.rx += static_cast<std::uint32_t>(buf_.size());
    if (before < kProbeBytes && c.rx >= kProbeBytes) ++ready_;
    if (before < 2 * kProbeBytes && c.rx >= 2 * kProbeBytes) {
      c.replied_at = bed_.sim().now();
      ++replied_;
    }
  }

  Bed bed_;
  const Inputs& in_;
  std::unique_ptr<apps::EchoServer> e1_, e2_;
  std::vector<Conn> conns_;
  Bytes buf_;
  std::size_t ready_ = 0, replied_ = 0, connect_failures_ = 0;
  SimTime first_open_ = 0, crash_at_ = 0;
};

std::unique_ptr<Workload> make_workload(const Inputs& in, Tracer* tr) {
  const std::string& w = in.opt.workload;
  if (w == "stream_up") return std::make_unique<StreamWorkload>(*in.stream, true, true, tr);
  if (w == "stream_down") return std::make_unique<StreamWorkload>(*in.stream, false, true, tr);
  if (w == "churn") return std::make_unique<ChurnWorkload>(in, tr);
  return std::make_unique<StormWorkload>(in, tr);
}

// ----------------------------------------------------------------- runs

/// Library counters summed over hosts, read at the start and end of the
/// measured phase.
struct Counts {
  sim::Simulator::Stats sim;
  wire::BufferStats wire;
  HeapStats heap;
  std::uint64_t nic_rx_frames = 0, ip_frames = 0, ip_parse_failed = 0;
  std::uint64_t tcp_segments = 0, listen_overflows = 0, tw_recycled = 0, rst_sent = 0;
  std::uint64_t conns_opened = 0;  // active opens: the clients' connections
  std::uint64_t merged = 0, empty_acks = 0, embryonic_reaped = 0, divergences = 0;
  std::uint64_t spoof_dropped = 0, timeline_records = 0;
};

Counts read_counts(Bed& bed) {
  Counts c;
  c.sim = bed.sim().stats();
  c.wire = wire::buffer_stats();
  c.heap = heap_stats();
  for (apps::Host* h : bed.hosts()) {
    const obs::Registry& reg = h->obs().registry;
    c.nic_rx_frames += h->nic().rx_frames();
    c.ip_frames += h->ip().datagrams_delivered() + h->ip().datagrams_dropped();
    c.ip_parse_failed += h->ip().datagrams_parse_failed();
    c.tcp_segments += reg.counter_value("tcp.segments_sent");
    c.listen_overflows += reg.counter_value("tcp.listen_overflows");
    c.tw_recycled += reg.counter_value("tcp.time_wait_recycled");
    c.rst_sent += reg.counter_value("tcp.rst_sent");
    c.conns_opened += reg.counter_value("tcp.connections_opened");
    c.merged += reg.counter_value("bridge.merged_segments");
    c.empty_acks += reg.counter_value("bridge.empty_acks_emitted");
    c.embryonic_reaped += reg.counter_value("bridge.embryonic_reaped");
    c.divergences += reg.counter_value("bridge.divergences");
    c.spoof_dropped += reg.counter_value("bridge.spoof_dropped");
    c.timeline_records += h->timeline().recorded_total();
  }
  return c;
}

/// The largest high-water mark of gauge `name` over `hosts`.
std::int64_t gauge_peak(std::span<apps::Host* const> hosts, const std::string& name) {
  std::int64_t v = 0;
  for (apps::Host* h : hosts) {
    for (const auto& [k, g] : h->obs().registry.snapshot().gauges) {
      if (k == name) v = std::max(v, g.max);
    }
  }
  return v;
}

/// Every counter, gauge and histogram of every host, the scheduler's
/// counters and the run's simulated-time results, as text. A traced run
/// must reproduce its untraced twin's fingerprint exactly.
using Fingerprint = std::vector<std::pair<std::string, std::string>>;

Fingerprint fingerprint(Bed& bed, const Outcome& o, const Counts& begin, const Counts& end) {
  Fingerprint fp;
  const auto add = [&fp](std::string key, auto v) {
    char buf[64];
    if constexpr (std::is_floating_point_v<decltype(v)>) {
      std::snprintf(buf, sizeof(buf), "%a", static_cast<double>(v));
    } else {
      std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    }
    fp.emplace_back(std::move(key), buf);
  };
  const sim::Simulator::Stats& s = bed.sim().stats();
  add("sim.now", bed.sim().now());
  add("sim.scheduled", s.scheduled);
  add("sim.cancelled", s.cancelled);
  add("sim.fired", s.fired);
  add("sim.cascades", s.cascades);
  add("sim.pool_events", s.pool_events);
  add("wire.allocations", end.wire.allocations - begin.wire.allocations);
  add("wire.deep_copies", end.wire.deep_copies - begin.wire.deep_copies);
  add("wire.copied_bytes", end.wire.copied_bytes - begin.wire.copied_bytes);
  add("wire.shares", end.wire.shares - begin.wire.shares);
  for (apps::Host* h : bed.hosts()) {
    const std::string p = h->name() + "/";
    const obs::Snapshot snap = h->metrics_snapshot();
    for (const auto& [k, v] : snap.counters) add(p + k, v);
    for (const auto& [k, v] : snap.gauges) {
      add(p + k, v.value);
      add(p + k + ".max", v.max);
    }
    for (const auto& [k, v] : snap.histograms) {
      add(p + k + ".count", v.count);
      add(p + k + ".sum", v.sum);
    }
    add(p + "nic.rx_frames", h->nic().rx_frames());
    add(p + "nic.tx_frames", h->nic().tx_frames());
    add(p + "ip.delivered", h->ip().datagrams_delivered());
    add(p + "timeline.recorded", h->timeline().recorded_total());
  }
  add("ops", o.ops);
  add("failed", o.failed);
  add("first_start", o.first_start);
  add("last_done", o.last_done);
  add("crash_at", o.crash_at);
  add("op_latency.count", o.op_latency_ns.size());
  double sum = 0;
  for (double v : o.op_latency_ns) sum += v;
  add("op_latency.sum", sum);
  for (const Metric& m : o.client) add(m.name, m.value);
  return fp;
}

struct Run {
  std::size_t setups = 0;
  double setup_s = 0;
  double wall_s = 0;
  Outcome outcome;
  Counts begin, end;
  double peak_heap_bytes = 0;
  double heap_bytes_per_conn = 0;
  Fingerprint fp;
  // Layer figures that need the live testbed.
  std::int64_t tcp_conns_peak = 0, bridge_conns_peak = 0, tombstones_peak = 0;
  std::int64_t pqueue_peak = 0, squeue_peak = 0;
  double detect_ms = 0, resume_wait_ms = 0, takeover_step_ms = 0;
};

/// Mean of `v` without its lowest and highest 5 %.
double trimmed_mean(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t cut = v.size() / 20;
  double sum = 0;
  for (std::size_t i = cut; i < v.size() - cut; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * cut);
}

using MakeWorkload = std::function<std::unique_ptr<Workload>()>;

/// Sets the workload up back to back for `window_s` of wall time, at least
/// once, adding each set-up's time to `times` until it holds `max_times`.
/// Returns the last set-up.
std::unique_ptr<Workload> set_up_for(double window_s, const MakeWorkload& make,
                                     std::vector<double>& times, std::size_t max_times) {
  std::unique_ptr<Workload> w;
  const auto start = Clock::now();
  do {
    w.reset();
    w = make();
    times.push_back(w->bed().setup_s());
  } while (seconds_since(start) < window_s && times.size() < max_times);
  return w;
}

/// Sets the workload up repeatedly for half of `setup_window_s`, runs and
/// measures the last set-up, and sets up for the other half once it is
/// gone. The two halves lie a measured phase apart, so setup_s samples the
/// host's speed over about the same span as wall_s.
Run run_once(Tracer* tr, double setup_window_s, const MakeWorkload& make) {
  Run r;
  // Sized once, so that the measured phase's peak heap does not depend on
  // how many set-ups the host's speed let fit in the window.
  std::vector<double> setup_times;
  setup_times.reserve(kMaxSetups);
  std::unique_ptr<Workload> w =
      set_up_for(setup_window_s / 2, make, setup_times, kMaxSetups / 2);
  w->prepare();
  Bed& bed = w->bed();
  Loop loop(bed, tr);

  if (tr != nullptr) tr->reset();
  r.begin = read_counts(bed);
  reset_heap_peak();
  const auto t0 = Clock::now();
  w->measure(loop);
  r.wall_s = seconds_since(t0);
  r.end = read_counts(bed);
  r.peak_heap_bytes = static_cast<double>(r.end.heap.peak_bytes);

  r.outcome = w->outcome();
  Outcome& o = r.outcome;
  if (loop.guard_fired()) o.errors.push_back("time guard fired before the run finished");
  if (bed.client_rsts() != 0) {
    o.errors.push_back(std::to_string(bed.client_rsts()) + " RST segments reached a client");
  }
  const std::uint64_t divergences = r.end.divergences - r.begin.divergences;
  if (divergences != 0) o.errors.push_back("bridge divergences: " + std::to_string(divergences));
  o.failed = std::min(o.ops, o.failed + bed.client_rsts() + divergences);

  r.tcp_conns_peak = gauge_peak(bed.hosts(), "tcp.connections");
  r.heap_bytes_per_conn =
      per(r.peak_heap_bytes - static_cast<double>(r.begin.heap.live_bytes),
          static_cast<double>(r.end.conns_opened - r.begin.conns_opened));
  const auto servers = std::span<apps::Host* const>(bed.hosts()).first(2);
  r.bridge_conns_peak = gauge_peak(servers, "bridge.connections");
  r.tombstones_peak = gauge_peak(servers, "bridge.tombstones");
  r.pqueue_peak = gauge_peak(servers, "bridge.pqueue_bytes");
  r.squeue_peak = gauge_peak(servers, "bridge.squeue_bytes");

  if (o.crash_at != 0 && bed.group() != nullptr) {
    // crash → the secondary's detector verdict, on which take_over runs
    // and completes (no takeover pause) → first client frame at the
    // secondary's NIC.
    const SimTime detected = bed.group()->secondary_bridge().takeover_time();
    if (detected == 0 || bed.resumed_at() < detected) {
      o.errors.push_back("takeover did not complete");
    } else {
      r.detect_ms = static_cast<double>(detected - o.crash_at) / 1e6;
      r.resume_wait_ms = static_cast<double>(bed.resumed_at() - detected) / 1e6;
    }
  }
  r.takeover_step_ms = static_cast<double>(loop.takeover_step_ns()) / 1e6;
  r.fp = fingerprint(bed, o, r.begin, r.end);

  if (setup_window_s > 0) {
    w.reset();
    set_up_for(setup_window_s / 2, make, setup_times, kMaxSetups);
  }
  r.setups = setup_times.size();
  r.setup_s = trimmed_mean(setup_times);
  return r;
}

// ------------------------------------------------------------- reports

std::vector<Metric> end_to_end(const Run& r) {
  const Outcome& o = r.outcome;
  std::vector<Metric> m;
  m.push_back({"setup_s", r.setup_s, "s",
               "5%-trimmed mean of " + std::to_string(r.setups) + " set-ups"});
  m.push_back({"wall_s", r.wall_s, "s", ""});
  m.push_back({"peak_heap_mb", r.peak_heap_bytes / 1e6, "MB", ""});
  m.push_back({"heap_bytes_per_conn", r.heap_bytes_per_conn, "B", ""});
  const double span_s = static_cast<double>(o.last_done - o.first_start) / 1e9;
  m.push_back({"ops_per_sim_s", per(static_cast<double>(o.ops), span_s), "1/s",
               "ops=" + std::to_string(o.ops)});
  add_percentiles(m, "op", o.op_latency_ns);
  return m;
}

void print_metrics(const std::vector<Metric>& ms) {
  for (const Metric& m : ms) {
    std::printf("%-28s %.10g %s%s%s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.note.empty() ? "" : "  ", m.note.c_str());
  }
}

/// The result line. Any failed check counts at least one failed op.
void print_json(const std::vector<std::string>& errors, const Outcome& o,
                const std::vector<Metric>& ms) {
  for (const std::string& e : errors) std::fprintf(stderr, "FAIL: %s\n", e.c_str());
  const std::uint64_t failed = errors.empty() ? o.failed : std::max<std::uint64_t>(o.failed, 1);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              errors.empty() ? "true" : "false", static_cast<unsigned long long>(o.ops),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < ms.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                ms[i].name.c_str(), ms[i].value, ms[i].unit.c_str());
  }
  std::printf("}}\n");
}

std::vector<Metric> per_layer(const Run& base, const Run& traced, const Tracer& tr,
                              double goodput_ratio) {
  const Counts& b = base.begin;
  const Counts& e = base.end;
  const double ops = static_cast<double>(base.outcome.ops);
  const double events = static_cast<double>(e.sim.fired - b.sim.fired);
  const auto self_per = [&tr](SpanKind k) {
    const Tracer::Totals& t = tr.totals(k);
    return per(static_cast<double>(t.self_ns), static_cast<double>(t.count));
  };
  const auto d = [](std::uint64_t end, std::uint64_t begin) {
    return static_cast<double>(end - begin);
  };
  return {
      {"sim.events_per_op", per(events, ops), "events/op", ""},
      {"sim.cascades_per_event", per(d(e.sim.cascades, b.sim.cascades), events),
       "cascades/event", ""},
      {"sim.pool_events_peak", static_cast<double>(e.sim.pool_events), "events", ""},
      {"sim.untraced_ns_per_event", self_per(SpanKind::kStep), "ns/event", ""},
      {"sim.step_p999_us", static_cast<double>(tr.step_quantile_ns(0.999)) / 1e3, "us", ""},
      {"sim.step_max_us", static_cast<double>(tr.step_max_ns()) / 1e3, "us", ""},
      {"net.frames_per_op", per(d(e.nic_rx_frames, b.nic_rx_frames), ops), "frames/op", ""},
      {"wire.buffer_allocs_per_op", per(d(e.wire.allocations, b.wire.allocations), ops),
       "allocs/op", ""},
      {"wire.deep_copies_per_op", per(d(e.wire.deep_copies, b.wire.deep_copies), ops),
       "copies/op", ""},
      {"wire.copied_bytes_per_op", per(d(e.wire.copied_bytes, b.wire.copied_bytes), ops),
       "B/op", ""},
      {"proc.allocs_per_op", per(d(e.heap.allocs, b.heap.allocs), ops), "allocs/op", ""},
      {"proc.alloc_bytes_per_op", per(d(e.heap.alloc_bytes, b.heap.alloc_bytes), ops), "B/op",
       ""},
      {"ip.rx_self_ns_per_frame", self_per(SpanKind::kIpRx), "ns/frame", ""},
      {"ip.frames_rx", d(e.ip_frames, b.ip_frames), "frames", ""},
      {"ip.parse_failed", d(e.ip_parse_failed, b.ip_parse_failed), "frames", ""},
      {"tcp.rx_ns_per_seg", self_per(SpanKind::kTcpRx), "ns/seg", ""},
      {"tcp.send_ns_per_call", self_per(SpanKind::kTcpSend), "ns/call", ""},
      {"tcp.segments_per_op", per(d(e.tcp_segments, b.tcp_segments), ops), "segs/op", ""},
      {"tcp.listen_overflows", d(e.listen_overflows, b.listen_overflows), "count", ""},
      {"tcp.time_wait_recycled", d(e.tw_recycled, b.tw_recycled), "count", ""},
      {"tcp.rst_sent", d(e.rst_sent, b.rst_sent), "count", ""},
      {"tcp.connections_peak", static_cast<double>(base.tcp_conns_peak), "conns", ""},
      {"core.bridge_in_ns_per_seg", self_per(SpanKind::kBridgeIn), "ns/seg", ""},
      {"core.bridge_out_ns_per_seg", self_per(SpanKind::kBridgeOut), "ns/seg", ""},
      {"core.merged_per_op", per(d(e.merged, b.merged), ops), "segs/op", ""},
      {"core.empty_acks_per_op", per(d(e.empty_acks, b.empty_acks), ops), "acks/op", ""},
      {"core.pqueue_bytes_peak", static_cast<double>(base.pqueue_peak), "B", ""},
      {"core.squeue_bytes_peak", static_cast<double>(base.squeue_peak), "B", ""},
      {"core.bridge_conns_peak", static_cast<double>(base.bridge_conns_peak), "conns", ""},
      {"core.tombstones_peak", static_cast<double>(base.tombstones_peak), "entries", ""},
      {"core.embryonic_reaped", d(e.embryonic_reaped, b.embryonic_reaped), "count", ""},
      {"core.divergences", d(e.divergences, b.divergences), "count", ""},
      {"core.spoof_dropped", d(e.spoof_dropped, b.spoof_dropped), "count", ""},
      {"core.detect_ms", base.detect_ms, "ms", ""},
      {"core.resume_wait_ms", base.resume_wait_ms, "ms", ""},
      {"core.takeover_step_ms", traced.takeover_step_ms, "ms", ""},
      {"core.goodput_ratio", goodput_ratio, "ratio", ""},
      {"apps.rx_ns_per_call", self_per(SpanKind::kAppsRx), "ns/call", ""},
      {"apps.responses_bad", static_cast<double>(base.outcome.responses_bad), "count", ""},
      {"apps.connect_failures", static_cast<double>(base.outcome.connect_failures), "count",
       ""},
      {"obs.timeline_records_per_op", per(d(e.timeline_records, b.timeline_records), ops),
       "records/op", ""},
      {"trace.overhead_frac", traced.wall_s / base.wall_s - 1, "frac", ""},
  };
}

/// Self time per span name, and what the spans do not cover: the step
/// loop between steps. Returns the sum of self times.
double print_self_times(const Tracer& tr, double wall_s) {
  std::printf("\nper-layer self time (traced wall_s %.4f s, %llu spans)\n", wall_s,
              static_cast<unsigned long long>(tr.spans_total()));
  std::printf("  %-16s %12s %10s %7s %10s\n", "span", "count", "self_s", "share", "ns/span");
  double sum = 0;
  for (int k = 0; k < kSpanKinds; ++k) {
    const Tracer::Totals& t = tr.totals(static_cast<SpanKind>(k));
    const double self_s = static_cast<double>(t.self_ns) / 1e9;
    sum += self_s;
    std::printf("  %-16s %12llu %10.4f %6.1f%% %10.1f\n", kSpanNames[k],
                static_cast<unsigned long long>(t.count), self_s, 100 * self_s / wall_s,
                per(static_cast<double>(t.self_ns), static_cast<double>(t.count)));
  }
  std::printf("  %-16s %12s %10.4f %6.1f%%\n", "(outside spans)", "", wall_s - sum,
              100 * (wall_s - sum) / wall_s);
  return sum;
}

int run_main(const Options& opt) {
  const Inputs in = make_inputs(opt);
  std::printf("bench_e2e workload=%s seed=%llu seconds=%g\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds);
  const auto make = [&in](Tracer* tr) {
    return [&in, tr] { return make_workload(in, tr); };
  };

  Run base = run_once(nullptr, kSetupWindowSeconds * in.scale, make(nullptr));
  std::vector<std::string> errors = base.outcome.errors;
  const std::vector<Metric> e2e = end_to_end(base);
  std::printf("\nend-to-end (untraced run)\n");
  print_metrics(e2e);
  print_metrics(base.outcome.client);

  if (!opt.trace) {
    print_json(errors, base.outcome, e2e);
    return errors.empty() ? 0 : 1;
  }

  Tracer tr;
  Run traced = run_once(&tr, 0, make(&tr));
  for (const std::string& e : traced.outcome.errors) errors.push_back("traced run: " + e);
  // Tracing must not change what the simulation does: every counter and
  // every simulated-time result must match the untraced run bit for bit.
  if (traced.fp.size() != base.fp.size()) {
    errors.push_back("traced run recorded a different set of counters");
  } else {
    for (std::size_t i = 0; i < base.fp.size(); ++i) {
      if (base.fp[i] != traced.fp[i]) {
        errors.push_back("traced run differs at " + base.fp[i].first + ": " +
                         base.fp[i].second + " vs " + traced.fp[i].first + ": " +
                         traced.fp[i].second);
        break;
      }
    }
  }
  const double self_sum = print_self_times(tr, traced.wall_s);
  const double coverage = self_sum / traced.wall_s;
  std::printf("  self times sum to %.1f%% of traced wall_s\n", 100 * coverage);
  if (std::abs(coverage - 1) > 0.10) {
    errors.push_back("per-layer self times are not within 10% of traced wall_s");
  }
  const std::string dump = "e2e_trace_" + opt.workload + ".json";
  if (tr.write_dump(dump, opt.workload)) {
    std::printf("  slowest steps' spans: %s\n", dump.c_str());
  }

  double goodput_ratio = 0;
  if (in.is_stream()) {
    // Standard TCP, same direction and LAN, outside every timed phase.
    Run standard = run_once(nullptr, 0, [&in] {
      return std::make_unique<StreamWorkload>(*in.standard_stream,
                                              in.opt.workload == "stream_up", false, nullptr);
    });
    for (const std::string& e : standard.outcome.errors) errors.push_back("standard leg: " + e);
    goodput_ratio = per(base.outcome.client.front().value, standard.outcome.client.front().value);
  }

  const std::vector<Metric> layers = per_layer(base, traced, tr, goodput_ratio);
  std::printf("\nper-layer\n");
  print_metrics(layers);
  print_json(errors, base.outcome, layers);
  return errors.empty() ? 0 : 1;
}

}  // namespace
}  // namespace tfo::bench

int main(int argc, char** argv) {
  using namespace tfo::bench;
  g_deadline = Clock::now() + std::chrono::seconds(160);
  // One process, one thread: the lane override would start worker threads.
  unsetenv("TFO_LANES");
  return run_main(parse_args(argc, argv));
}
