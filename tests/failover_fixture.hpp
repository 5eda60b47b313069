// Shared fixture for failover integration tests: a LAN with client C,
// primary P, secondary S (per the paper's Figure 1), a ReplicaGroup
// wiring the bridges and fault detectors, and replicated servers on P+S.
#pragma once

#include <memory>

#include "apps/echo.hpp"
#include "apps/topology.hpp"
#include "core/replica_group.hpp"
#include "tcp/segment.hpp"
#include "test_util.hpp"

namespace tfo::test {

constexpr std::uint16_t kEchoPort = 7777;

struct ReplicatedLan {
  std::unique_ptr<apps::Lan> lan;
  /// Additional hosts on the same wire (recruits, extra clients).
  /// Declared after `lan` and before `group` so destruction order is:
  /// group/bridges first, then these hosts, then the network.
  std::vector<std::unique_ptr<apps::Host>> extra_hosts;
  std::unique_ptr<core::ReplicaGroup> group;
  std::unique_ptr<apps::EchoServer> echo_p, echo_s;

  /// Adds a host on the LAN with warm ARP to/from the three base hosts.
  apps::Host& add_host(const std::string& name, const char* addr,
                       std::uint64_t seed) {
    apps::HostParams hp;
    hp.name = name;
    hp.addr = ip::Ipv4::parse(addr);
    hp.seed = seed;
    auto host = std::make_unique<apps::Host>(lan->sim, hp, *lan->wire);
    for (apps::Host* h : {lan->client.get(), lan->primary.get(),
                          lan->secondary.get()}) {
      h->arp().add_static(host->address(), host->nic().mac());
      host->arp().add_static(h->address(), h->nic().mac());
    }
    extra_hosts.push_back(std::move(host));
    return *extra_hosts.back();
  }

  sim::Simulator& sim() { return lan->sim; }
  apps::Host& client() { return *lan->client; }
  apps::Host& primary() { return *lan->primary; }
  apps::Host& secondary() { return *lan->secondary; }
};

inline std::unique_ptr<ReplicatedLan> make_replicated_lan(
    apps::LanParams lp = {}, core::FailoverConfig cfg = {}, bool with_echo = true) {
  auto r = std::make_unique<ReplicatedLan>();
  r->lan = apps::make_lan(lp);
  if (cfg.ports.empty()) cfg.ports = {kEchoPort};
  cfg.primary_addr = r->lan->primary->address();
  cfg.secondary_addr = r->lan->secondary->address();
  r->group = std::make_unique<core::ReplicaGroup>(*r->lan->primary, *r->lan->secondary,
                                                  cfg);
  if (with_echo) {
    r->echo_p = std::make_unique<apps::EchoServer>(r->lan->primary->tcp(), kEchoPort);
    r->echo_s = std::make_unique<apps::EchoServer>(r->lan->secondary->tcp(), kEchoPort);
  }
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
