// A multi-homed IP router joining network segments.
//
// The paper's WAN FTP experiment (Figure 6) places a router between the
// server LAN and a wide-area link; the router's ARP table is also the one
// whose update latency defines the §5 takeover interval T.
//
// PR 10: the router participates in the host-route advertisement protocol
// (ip/route_advert.hpp) — installing advertised routes into its LPM table,
// re-advertising them to configured neighbor routers with the metric
// bumped, and acknowledging the originator — and enforces TTL and egress
// MTU on the forwarding path (ICMP Time Exceeded / fragmentation-needed).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "ip/arp.hpp"
#include "ip/ip_layer.hpp"
#include "ip/route_advert.hpp"
#include "net/medium.hpp"
#include "net/nic.hpp"
#include "obs/obs.hpp"
#include "sim/simulator.hpp"

namespace tfo::ip {

class Router {
 public:
  Router(sim::Simulator& sim, std::string name);

  /// Attaches a port to `medium` with the given address/prefix and
  /// egress MTU. The port's MAC is derived from its address, as a host's
  /// is, so it does not depend on what else the process built. Returns
  /// the interface index.
  std::size_t add_port(net::Medium& medium, Ipv4 addr, int prefix_len,
                       net::NicParams nic_params = {}, ArpParams arp_params = {},
                       int mtu = 1500);

  /// Registers a neighbor router (its address on a shared segment) for
  /// route-advertisement propagation. Split horizon: an advert is never
  /// re-sent toward the neighbor it was learned from.
  void add_neighbor(Ipv4 addr) { neighbors_.push_back(addr); }

  IpLayer& ip() { return ip_; }
  net::Nic& nic(std::size_t port) { return *ports_.at(port)->nic; }
  ArpEntity& arp(std::size_t port) { return *ports_.at(port)->arp; }
  const std::string& name() const { return name_; }
  obs::Hub& obs() { return hub_; }

 private:
  struct Port {
    std::unique_ptr<net::Nic> nic;
    std::unique_ptr<ArpEntity> arp;
  };

  void handle_route_advert(const IpDatagram& dgram);

  sim::Simulator& sim_;
  std::string name_;
  obs::Hub hub_;
  IpLayer ip_;
  std::vector<std::unique_ptr<Port>> ports_;
  std::vector<Ipv4> neighbors_;
  obs::Counter* ctr_adverts_received_ = nullptr;
  obs::Counter* ctr_updates_applied_ = nullptr;
  obs::Counter* ctr_adverts_propagated_ = nullptr;
};

}  // namespace tfo::ip
