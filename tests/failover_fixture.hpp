// Shared fixture for failover integration tests and benches: any
// apps::Topology (by default the paper's Figure 1 LAN with client C,
// primary P and secondary S), a ReplicaGroup wiring the bridges and fault
// detectors, and the server application installed on P and S.
#pragma once

#include <functional>
#include <memory>

#include "apps/echo.hpp"
#include "apps/topology.hpp"
#include "core/replica_group.hpp"
#include "tcp/segment.hpp"
#include "test_util.hpp"

namespace tfo::test {

constexpr std::uint16_t kEchoPort = 7777;

/// Lifetime rule: declare the fixture *before* any server apps or held
/// connections, so the simulator outlives them — a Connection destructor
/// cancels its timers on the simulator it was created on.
struct Replicated {
  std::unique_ptr<apps::Topology> topo;
  /// Additional hosts on the server LAN (recruits, extra clients).
  /// Declared after `topo` and before `group` so destruction order is:
  /// group/bridges first, then these hosts, then the network.
  std::vector<std::unique_ptr<apps::Host>> extra_hosts;
  std::unique_ptr<core::ReplicaGroup> group;  // null for standard TCP
  std::unique_ptr<apps::EchoServer> echo_p, echo_s;

  /// Adds a host on the server LAN with warm ARP to/from the three base
  /// hosts.
  apps::Host& add_host(const std::string& name, const char* addr,
                       std::uint64_t seed) {
    apps::HostParams hp;
    hp.name = name;
    hp.addr = ip::Ipv4::parse(addr);
    hp.seed = seed;
    auto host = std::make_unique<apps::Host>(topo->sim, hp, *topo->wire);
    for (apps::Host* h : {&client(), &primary(), &secondary()}) {
      h->arp().add_static(host->address(), host->nic().mac());
      host->arp().add_static(h->address(), h->nic().mac());
    }
    extra_hosts.push_back(std::move(host));
    return *extra_hosts.back();
  }

  sim::Simulator& sim() { return topo->sim; }
  apps::Host& client() { return *topo->client; }
  apps::Host& primary() { return *topo->primary; }
  apps::Host& secondary() { return *topo->secondary; }
};

/// Installs a server application on one server host.
using Install = std::function<void(apps::Host&)>;

/// Installs nothing: the test drives the server hosts itself.
inline void no_app(apps::Host&) {}

/// Builds `tp`'s topology with a ReplicaGroup over P and S configured by
/// `cfg` (its ports default to kEchoPort), or, with `replicate` false,
/// none: the standard-TCP baseline. `install` runs once per server host,
/// P then S (P alone without a group), before the group starts; by
/// default it installs the fixture's echo servers on kEchoPort.
inline std::unique_ptr<Replicated> make_replicated(apps::TopologyParams tp = {},
                                                   core::FailoverConfig cfg = {},
                                                   const Install& install = nullptr,
                                                   bool replicate = true) {
  auto r = std::make_unique<Replicated>();
  r->topo = apps::make_topology(tp);
  const Install echo = [&r](apps::Host& h) {
    (r->echo_p ? r->echo_s : r->echo_p) =
        std::make_unique<apps::EchoServer>(h.tcp(), kEchoPort);
  };
  const Install& app = install ? install : echo;
  if (!replicate) {
    app(r->primary());
    return r;
  }
  if (cfg.ports.empty()) cfg.ports = {kEchoPort};
  r->group = std::make_unique<core::ReplicaGroup>(r->primary(), r->secondary(), cfg);
  app(r->primary());
  app(r->secondary());
  r->group->start();
  return r;
}

/// Sends one bare client SYN (the client's TCP knows nothing of it, so it
/// is never retransmitted) and returns the server-side key for it.
inline tcp::ConnKey inject_client_syn(apps::Host& client, ip::Ipv4 server,
                                      std::uint16_t server_port,
                                      std::uint16_t client_port) {
  tcp::TcpSegment syn;
  syn.src_port = client_port;
  syn.dst_port = server_port;
  syn.seq = 424242;
  syn.flags = tcp::Flags::kSyn;
  syn.window = 65535;
  client.ip().send(ip::Proto::kTcp, client.address(), server,
                   syn.take_wire(client.address(), server));
  return tcp::ConnKey{server, server_port, client.address(), client_port};
}

/// A client that sends `total` bytes in `chunk`-sized pieces as echoes
/// come back, verifying the echoed stream matches what was sent.
class EchoDriver {
 public:
  EchoDriver(apps::Host& client_host, ip::Ipv4 server, std::uint16_t port,
             std::size_t total, std::size_t chunk = 1024)
      : total_(total), chunk_(chunk) {
    // Sized upfront: vector growth re-copies megabytes mid-transfer and
    // the noise lands inside benchmark timing windows.
    expected_.reserve(total_);
    received_.reserve(total_);
    conn_ = client_host.tcp().connect(server, port, {.nodelay = true});
    conn_->on_established = [this] { pump(); };
    conn_->on_readable = [this] {
      conn_->recv(received_);
      pump();
    };
    conn_->on_closed = [this](tcp::CloseReason r) { close_reason_ = r; };
  }

  void pump() {
    // Keep one chunk in flight at a time (request/response style).
    if (sent_ < total_ && received_.size() == sent_) {
      const std::size_t n = std::min(chunk_, total_ - sent_);
      Bytes data(pattern_bytes(n, static_cast<std::uint32_t>(sent_)));
      sent_ += n;
      append(expected_, data);
      conn_->send(std::move(data));
    }
  }

  ~EchoDriver() {
    // The connection may outlive the driver; silence its callbacks.
    conn_->on_established = nullptr;
    conn_->on_readable = nullptr;
    conn_->on_closed = nullptr;
  }

  bool done() const { return received_.size() >= total_; }
  bool verify() const { return received_ == expected_; }
  /// Prefix property: everything received so far matches what was sent.
  bool verify_prefix() const {
    return received_.size() <= expected_.size() &&
           std::equal(received_.begin(), received_.end(), expected_.begin());
  }
  const Bytes& received() const { return received_; }
  std::size_t bytes_sent() const { return sent_; }
  tcp::Connection& connection() { return *conn_; }
  std::optional<tcp::CloseReason> close_reason() const { return close_reason_; }

 private:
  std::size_t total_, chunk_;
  std::size_t sent_ = 0;
  Bytes expected_, received_;
  std::shared_ptr<tcp::Connection> conn_;
  std::optional<tcp::CloseReason> close_reason_;
};

}  // namespace tfo::test
