// A simulated host: NIC + ARP + IP + TCP wired together, with a fail-stop
// switch. Hosts are protocol-stack-complete but bridge-agnostic — the
// failover machinery in src/core attaches to a host via the IP hook and
// TCP tap interfaces, exactly as the paper inserts its bridge between the
// TCP and IP layers of the server kernels.
#pragma once

#include <memory>
#include <string>

#include "ip/arp.hpp"
#include "ip/ip_layer.hpp"
#include "net/medium.hpp"
#include "net/nic.hpp"
#include "obs/obs.hpp"
#include "sim/simulator.hpp"
#include "tcp/tcp_layer.hpp"
#include "wire/packet_buffer.hpp"

namespace tfo::apps {

struct HostParams {
  std::string name = "host";
  ip::Ipv4 addr;
  int prefix_len = 24;
  net::NicParams nic;
  ip::ArpParams arp;
  tcp::TcpParams tcp;
  /// Seed for this host's ISN generator and other local randomness.
  std::uint64_t seed = 7;
};

class Host {
 public:
  Host(sim::Simulator& sim, HostParams params, net::Medium& medium);
  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;

  sim::Simulator& simulator() { return sim_; }
  net::Nic& nic() { return *nic_; }
  ip::ArpEntity& arp() { return *arp_; }
  ip::IpLayer& ip() { return *ip_; }
  tcp::TcpLayer& tcp() { return *tcp_; }

  ip::Ipv4 address() const { return params_.addr; }
  const std::string& name() const { return params_.name; }

  void set_default_gateway(ip::Ipv4 gw) { ip_->set_default_gateway(gw); }

  /// Mid-connection mobility (PR 10): detaches the NIC from its medium,
  /// re-attaches it to `medium`, rebinds the primary interface to
  /// `new_addr`/`prefix_len` with default gateway `gw`, and puts every
  /// live connection into Mosh-style migration (tcp migrate-from option)
  /// so established streams survive the move.
  void move_to(net::Medium& medium, ip::Ipv4 new_addr, int prefix_len,
               ip::Ipv4 gw);

  /// Fail-stop: the host goes silent instantly and forever.
  void fail();
  bool failed() const { return failed_; }

  // --- observability (see OBSERVABILITY.md).

  /// The host-wide observability hub the attached layers and bridges
  /// publish into.
  obs::Hub& obs() { return obs_; }
  const obs::Hub& obs() const { return obs_; }
  obs::Registry& metrics() { return obs_.registry; }
  obs::EventLog& timeline() { return obs_.timeline; }

  /// Point-in-time copy of every metric this host's components publish.
  obs::Snapshot metrics_snapshot() const {
    refresh_wire_counters();
    refresh_sim_counters();
    return obs_.registry.snapshot();
  }

  /// The host's full observability state — metrics plus failover timeline
  /// — as one JSON object (schema in OBSERVABILITY.md).
  std::string snapshot_json() const;

 private:
  /// Mirrors the process-global wire::buffer_stats() into this host's
  /// registry as net.alloc.* / net.bytes_copied counters. The stats are
  /// global (the buffer layer has no host notion), so each host publishes
  /// the delta since its own construction; within one simulation that is
  /// the run's packet-buffer activity, and it is deterministic because
  /// identical runs construct their hosts at identical points in the
  /// global allocation sequence.
  void refresh_wire_counters() const;

  /// Mirrors the shared Simulator's scheduler instrumentation into this
  /// host's registry as sim.wheel.* counters. Like the wire counters, the
  /// stats belong to a shared object (every host in a topology runs on
  /// one Simulator), so each host publishes the delta since its own
  /// construction.
  void refresh_sim_counters() const;

  sim::Simulator& sim_;
  obs::Hub obs_;
  HostParams params_;
  std::unique_ptr<net::Nic> nic_;
  std::unique_ptr<ip::ArpEntity> arp_;
  std::unique_ptr<ip::IpLayer> ip_;
  std::unique_ptr<tcp::TcpLayer> tcp_;
  bool failed_ = false;

  // Wire-buffer accounting mirror (see refresh_wire_counters).
  wire::BufferStats wire_baseline_;
  mutable wire::BufferStats wire_published_;
  obs::Counter* ctr_alloc_buffers_ = nullptr;
  obs::Counter* ctr_alloc_bytes_ = nullptr;
  obs::Counter* ctr_alloc_copies_ = nullptr;
  obs::Counter* ctr_alloc_shares_ = nullptr;
  obs::Counter* ctr_bytes_copied_ = nullptr;

  // Scheduler instrumentation mirror (see refresh_sim_counters).
  sim::Simulator::Stats sim_baseline_;
  mutable sim::Simulator::Stats sim_published_;
  obs::Counter* ctr_sim_scheduled_ = nullptr;
  obs::Counter* ctr_sim_cancelled_ = nullptr;
  obs::Counter* ctr_sim_fired_ = nullptr;
  obs::Counter* ctr_sim_wheel_inserts_ = nullptr;
  obs::Counter* ctr_sim_heap_inserts_ = nullptr;
  obs::Counter* ctr_sim_cascades_ = nullptr;
  obs::Gauge* gau_sim_pool_events_ = nullptr;
};

}  // namespace tfo::apps
