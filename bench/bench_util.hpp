// Shared infrastructure for the measurement harnesses reproducing §9 of
// the paper. Every bench prints the paper's corresponding numbers next to
// the simulated ones so EXPERIMENTS.md can be regenerated by running the
// binaries.
#pragma once

#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.hpp"
#include "failover_fixture.hpp"
#include "obs/json.hpp"

namespace tfo::bench {

/// LAN parameters calibrated so that standard-TCP connection setup lands
/// near the paper's 294 µs median on 566 MHz/100 Mb/s hardware: the
/// dominant term is per-frame host protocol processing.
inline apps::TopologyParams paper_lan_params() {
  apps::TopologyParams lp;
  lp.medium.bandwidth_bps = 100'000'000;  // the paper's 100 Mb/s Ethernet
  lp.medium.propagation = microseconds(1);
  lp.nic.rx_processing = microseconds(120);
  lp.nic.rx_jitter = microseconds(45);  // interrupt/scheduling variance
  lp.tcp.send_copy_ns_per_byte = 8;     // user->kernel copy, ~125 MB/s
  lp.tcp.delayed_ack = milliseconds(40);
  // Bulk-measurement configuration, as benchmark tools set it: Nagle off
  // so a sub-MSS message tail is not held back behind unacked data.
  lp.tcp.nagle = false;
  return lp;
}

constexpr std::uint16_t kPort = 7777;

/// Formats a byte count the way the paper's x-axes do (64B ... 1MB).
inline std::string size_label(std::size_t bytes) {
  char buf[32];
  if (bytes >= 1024 * 1024 && bytes % (1024 * 1024) == 0) {
    std::snprintf(buf, sizeof(buf), "%zuMB", bytes / (1024 * 1024));
  } else if (bytes >= 1024 && bytes % 1024 == 0) {
    std::snprintf(buf, sizeof(buf), "%zuKB", bytes / 1024);
  } else {
    std::snprintf(buf, sizeof(buf), "%zuB", bytes);
  }
  return buf;
}

inline void print_header(const std::string& title, const std::string& paper_ref) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("Reproduces: %s\n", paper_ref.c_str());
  std::printf("================================================================\n");
}

/// Machine-readable bench artifact: the result tables plus per-host
/// registry metrics and failover-timeline events, written as
/// BENCH_<name>.json in the schema documented in OBSERVABILITY.md and
/// validated by scripts/check_bench_json.py.
class BenchJson {
 public:
  explicit BenchJson(std::string name) : name_(std::move(name)) {}

  /// Records a result table (typically the one also printed as text).
  void add_table(const std::string& title, const TextTable& table) {
    obs::JsonWriter w;
    w.begin_object();
    w.key("title").value(title);
    w.key("columns").begin_array();
    for (const auto& h : table.headers()) w.value(h);
    w.end_array();
    w.key("rows").begin_array();
    for (const auto& row : table.rows()) {
      w.begin_array();
      for (const auto& cell : row) w.value(cell);
      w.end_array();
    }
    w.end_array();
    w.end_object();
    tables_.push_back(w.str());
  }

  /// Captures a host's full observability snapshot (metrics + timeline).
  void capture_host(const apps::Host& host) {
    hosts_.push_back(host.snapshot_json());
  }

  /// Records one adversarial-profile run: the profile's name and seed, its
  /// parameter object (pre-rendered JSON) and the boolean oracle verdicts.
  /// Emitted as the optional top-level "profiles" array.
  void add_profile(const std::string& name, std::uint64_t seed,
                   const std::string& params_json,
                   const std::vector<std::pair<std::string, bool>>& oracles) {
    obs::JsonWriter w;
    w.begin_object();
    w.key("name").value(name);
    w.key("seed").value(seed);
    w.key("params").raw(params_json);
    w.key("oracles").begin_object();
    for (const auto& [k, v] : oracles) w.key(k).value(v);
    w.end_object();
    w.end_object();
    profiles_.push_back(w.str());
  }

  /// Adds an optional bench-specific top-level section (pre-rendered
  /// JSON), e.g. the storm bench's "storm" object. The key must not
  /// collide with the standard keys.
  void add_section(std::string key, std::string raw_json) {
    sections_.emplace_back(std::move(key), std::move(raw_json));
  }

  std::string render() const {
    obs::JsonWriter w;
    w.begin_object();
    w.key("bench").value(name_);
    w.key("schema_version").value(1);
    w.key("tables").begin_array();
    for (const auto& t : tables_) w.raw(t);
    w.end_array();
    w.key("hosts").begin_array();
    for (const auto& h : hosts_) w.raw(h);
    w.end_array();
    if (!profiles_.empty()) {
      w.key("profiles").begin_array();
      for (const auto& p : profiles_) w.raw(p);
      w.end_array();
    }
    for (const auto& [k, body] : sections_) w.key(k).raw(body);
    w.end_object();
    return w.str();
  }

  /// Writes BENCH_<name>.json into `dir`; returns success.
  bool write(const std::string& dir = ".") const {
    const std::string path = dir + "/BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return false;
    }
    const std::string body = render();
    std::fwrite(body.data(), 1, body.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("bench artifact: %s\n", path.c_str());
    return true;
  }

 private:
  std::string name_;
  std::vector<std::string> tables_;    // pre-rendered table objects
  std::vector<std::string> hosts_;     // pre-rendered host snapshots
  std::vector<std::string> profiles_;  // pre-rendered profile entries
  std::vector<std::pair<std::string, std::string>> sections_;  // extra keys
};

}  // namespace tfo::bench
