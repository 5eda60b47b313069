// Span tracer for bench_e2e's traced run.
//
// Spans are recorded from the benchmark's own code around calls into the
// library's public interfaces (simulator steps, NIC rx handlers, IP hooks,
// TCP taps, the benchmark's own socket calls and callbacks); nothing inside src/
// is instrumented. A span's self time is its duration minus the time its
// child spans cover, so the self times of all spans add up to the time
// spent inside top-level spans.
//
// Totals per span name are exact over every span. The raw spans are kept
// only for the kDumpGroups slowest top-level spans (steps, mostly),
// capped at kDumpCap spans in all, which is what a reader needs to see
// where a long step went.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace tfo::bench {

enum class SpanKind : std::uint8_t {
  kStep,       ///< one Simulator::step() of the benchmark's loop
  kIpRx,       ///< IpLayer::handle_frame, from the NIC rx handler
  kArpRx,      ///< ArpEntity::handle_frame, from the NIC rx handler
  kTcpRx,      ///< last inbound TCP tap to the end of ip.rx
  kBridgeIn,   ///< the bridge's inbound hook or tap, bracketed by ours
  kBridgeOut,  ///< the bridge's outbound tap, bracketed by ours
  kTcpSend,    ///< the benchmark's own connect()/send() calls
  kAppsRx,     ///< the benchmark's own on_readable callbacks
};
inline constexpr int kSpanKinds = 8;
inline constexpr std::array<const char*, kSpanKinds> kSpanNames = {
    "sim.step",       "ip.rx",           "arp.rx",   "tcp.rx",
    "core.bridge_in", "core.bridge_out", "tcp.send", "apps.rx"};

class Tracer {
 public:
  static constexpr std::size_t kDumpCap = std::size_t{1} << 16;  // spans kept
  static constexpr std::size_t kDumpGroups = 256;                // slowest groups kept
  static constexpr std::uint8_t kNoHost = 0xff;

  struct Totals {
    std::uint64_t count = 0;
    std::int64_t self_ns = 0;
  };

  Tracer() : step_hist_(kExactStepNs, 0) { cur_.reserve(1024); }

  /// Names the host ids spans carry, for the dump.
  void name_hosts(std::vector<std::string> names) { host_names_ = std::move(names); }

  /// Forgets everything recorded so far (the set-up's spans); call with
  /// no span open.
  void reset() {
    totals_ = {};
    spans_total_ = 0;
    last_top_ns_ = 0;
    std::fill(step_hist_.begin(), step_hist_.end(), 0);
    step_tail_.clear();
    step_max_ns_ = 0;
    slow_.clear();
    kept_ = 0;
  }

  static std::int64_t clock_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  void begin(SpanKind kind, std::uint8_t host, std::uint64_t conn = 0) {
    const std::int64_t now = clock_ns();
    if (depth_ == 0) cur_.clear();  // a new top-level group
    const auto parent = depth_ == 0 ? -1 : stack_[depth_ - 1].index;
    if (depth_ == stack_.size()) {
      std::fprintf(stderr, "trace: span nesting deeper than %zu\n", stack_.size());
      std::abort();
    }
    stack_[depth_++] = {kind, host, now, 0, static_cast<std::int32_t>(cur_.size())};
    cur_.push_back({now, 0, conn, parent, kind, host});
  }

  /// Opens a bridge span. A sibling of the same kind still open on this
  /// host belongs to a segment the bridge consumed — our closing tap never
  /// ran — so it ends here, where the next segment reaches the bridge.
  void begin_bridge(SpanKind kind, std::uint8_t host) {
    if (depth_ > 0 && stack_[depth_ - 1].kind == kind && stack_[depth_ - 1].host == host) {
      close_top(clock_ns());
    }
    begin(kind, host);
  }

  /// Closes the innermost open span of `kind` on `host` and every span
  /// opened inside it (spans whose closing boundary never ran end with
  /// their enclosing span). No-op when no such span is open.
  void end(SpanKind kind, std::uint8_t host) {
    std::size_t i = depth_;
    while (i > 0 && !(stack_[i - 1].kind == kind && stack_[i - 1].host == host)) --i;
    if (i == 0) return;
    const std::int64_t now = clock_ns();
    while (depth_ >= i) close_top(now);
  }

  const Totals& totals(SpanKind kind) const {
    return totals_[static_cast<std::size_t>(kind)];
  }
  std::uint64_t spans_total() const { return spans_total_; }
  /// Duration of the most recently closed top-level span.
  std::int64_t last_top_ns() const { return last_top_ns_; }

  /// Exact nearest-rank quantile of the top-level step durations.
  std::int64_t step_quantile_ns(double q) const {
    const std::uint64_t n = totals(SpanKind::kStep).count;
    if (n == 0) return 0;
    const auto rank = static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(n))) - 1;
    std::uint64_t seen = 0;
    for (std::size_t ns = 0; ns < step_hist_.size(); ++ns) {
      seen += step_hist_[ns];
      if (seen > rank) return static_cast<std::int64_t>(ns);
    }
    std::vector<std::int64_t> tail = step_tail_;
    std::sort(tail.begin(), tail.end());
    return tail[rank - seen];
  }
  std::int64_t step_max_ns() const { return step_max_ns_; }

  /// Writes the kept groups, slowest first, as JSON. Times are relative
  /// to the start of each group's top-level span.
  bool write_dump(const std::string& path, const std::string& workload) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    std::vector<const Group*> order;
    for (const Group& g : slow_) order.push_back(&g);
    std::sort(order.begin(), order.end(),
              [](const Group* a, const Group* b) { return a->wall_ns > b->wall_ns; });
    std::fprintf(f, "{\"workload\": \"%s\", \"spans_total\": %llu, \"spans_kept\": %zu,\n"
                    " \"groups\": [\n", workload.c_str(),
                 static_cast<unsigned long long>(spans_total_), kept_);
    for (std::size_t gi = 0; gi < order.size(); ++gi) {
      const Group& g = *order[gi];
      const std::int64_t t0 = g.spans.front().start_ns;
      std::fprintf(f, "  {\"wall_ns\": %lld, \"spans\": [", static_cast<long long>(g.wall_ns));
      for (std::size_t si = 0; si < g.spans.size(); ++si) {
        const Span& s = g.spans[si];
        std::fprintf(f, "%s\n    {\"name\": \"%s\", \"host\": \"%s\", \"start_ns\": %lld, "
                        "\"end_ns\": %lld, \"parent\": %d, \"conn\": %llu}",
                     si ? "," : "", kSpanNames[static_cast<std::size_t>(s.kind)],
                     s.host == kNoHost ? "-" : host_names_[s.host].c_str(),
                     static_cast<long long>(s.start_ns - t0),
                     static_cast<long long>(s.end_ns - t0), s.parent,
                     static_cast<unsigned long long>(s.conn));
      }
      std::fprintf(f, "]}%s\n", gi + 1 < order.size() ? "," : "");
    }
    std::fprintf(f, " ]}\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Open {
    SpanKind kind;
    std::uint8_t host;
    std::int64_t start;
    std::int64_t child_ns;
    std::int32_t index;  // position in cur_
  };
  struct Span {
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::uint64_t conn;     // Connection::id where the benchmark knows it, else 0
    std::int32_t parent;    // index of the parent within its group, -1 for the root
    SpanKind kind;
    std::uint8_t host;
  };
  struct Group {
    std::int64_t wall_ns;
    std::vector<Span> spans;
  };
  static constexpr std::size_t kExactStepNs = std::size_t{1} << 20;

  void close_top(std::int64_t now) {
    const Open o = stack_[--depth_];
    const std::int64_t dur = now - o.start;
    Totals& t = totals_[static_cast<std::size_t>(o.kind)];
    ++t.count;
    t.self_ns += dur - o.child_ns;
    ++spans_total_;
    cur_[static_cast<std::size_t>(o.index)].end_ns = now;
    if (depth_ > 0) {
      stack_[depth_ - 1].child_ns += dur;
      return;
    }
    last_top_ns_ = dur;
    if (o.kind == SpanKind::kStep) {
      if (static_cast<std::size_t>(dur) < step_hist_.size()) {
        ++step_hist_[static_cast<std::size_t>(dur)];
      } else {
        step_tail_.push_back(dur);
      }
      step_max_ns_ = std::max(step_max_ns_, dur);
    }
    keep_if_slow(dur);
  }

  // Min-heap on wall_ns over the kept groups; a group displaces the
  // fastest kept ones only when it is slower than each of them.
  void keep_if_slow(std::int64_t dur) {
    if (slow_.size() == kDumpGroups && dur <= slow_.front().wall_ns) return;
    const auto cmp = [](const Group& a, const Group& b) { return a.wall_ns > b.wall_ns; };
    const std::size_t n = std::min(cur_.size(), kDumpCap);
    while ((slow_.size() == kDumpGroups || kept_ + n > kDumpCap) && !slow_.empty() &&
           slow_.front().wall_ns < dur) {
      std::pop_heap(slow_.begin(), slow_.end(), cmp);
      kept_ -= slow_.back().spans.size();
      slow_.pop_back();
    }
    if (slow_.size() == kDumpGroups || kept_ + n > kDumpCap) return;
    slow_.push_back({dur, {cur_.begin(), cur_.begin() + static_cast<std::ptrdiff_t>(n)}});
    std::push_heap(slow_.begin(), slow_.end(), cmp);
    kept_ += n;
  }

  std::vector<std::string> host_names_;
  std::array<Open, 64> stack_{};
  std::size_t depth_ = 0;
  std::vector<Span> cur_;  // spans of the current top-level group
  std::array<Totals, kSpanKinds> totals_{};
  std::uint64_t spans_total_ = 0;
  std::int64_t last_top_ns_ = 0;
  std::vector<std::uint32_t> step_hist_;  // step count per duration in ns
  std::vector<std::int64_t> step_tail_;   // steps of kExactStepNs and longer
  std::int64_t step_max_ns_ = 0;
  std::vector<Group> slow_;
  std::size_t kept_ = 0;
};

}  // namespace tfo::bench
