// The one testbed shape, covering both of the paper's testbeds and the
// routed extensions:
//
//   client --- R[hops-1] --- ... --- R[1] --- R[0] --- {P, S, T}
//
// The server LAN is one shared Ethernet segment with the primary server
// P, the secondary server S and an optional unreplicated back-end host T
// (for §7.2 server-initiated connections).
//
//   hops == 0 — the client shares the server LAN: the §9 measurement
//               setup.
//   hops == 1 — the server LAN behind a router, with the client across a
//               bandwidth/latency/loss-shaped point-to-point link: the
//               Figure 6 FTP environment.
//   hops >= 2 — a line of routers joined by transit links, for routed
//               takeover (RouteAnnouncer). S may sit on its own LAN
//               behind the server-side router.
//
// On a routed topology move_client() moves the client to a second access
// segment, exercising the Mosh-style migrate-from path (DESIGN.md §11).
#pragma once

#include <memory>
#include <vector>

#include "apps/host.hpp"
#include "ip/router.hpp"
#include "net/medium.hpp"
#include "sim/simulator.hpp"

namespace tfo::apps {

struct TopologyParams {
  /// The server LAN (and S's own LAN).
  net::SharedMediumParams medium{};
  /// Every point-to-point segment: the client access links and the
  /// router-to-router transit links.
  net::PointToPointParams wan_link{};
  net::NicParams nic{};
  tcp::TcpParams tcp{};
  ip::ArpParams arp{};
  /// The routers' ARP; its update latency stretches the paper's takeover
  /// interval T.
  ip::ArpParams router_arp{};
  std::uint64_t seed = 11;
  /// Pre-populate every ARP cache (the paper warmed caches before timing).
  bool warm_arp = true;
  bool with_backend = false;
  /// Routers between the client and the server LAN (>= 0).
  int hops = 0;
  /// Place S on its own LAN behind the server-side router (10.0.2.0/24).
  /// A gratuitous ARP cannot redirect anything there: takeover must use
  /// the RouteAnnouncer, and replication must use mirror_inbound.
  bool separate_secondary_lan = false;
};

/// Transit link i joins routers[i] (at 10.1.<i+1>.1) and routers[i+1]
/// (at 10.1.<i+1>.2). Static routes give every router a path to the
/// server subnets and the client subnets; the route-advertisement
/// protocol layers /32 host routes on top during takeover.
struct Topology {
  sim::Simulator sim;
  std::unique_ptr<net::SharedMedium> wire;            // server LAN
  std::unique_ptr<net::SharedMedium> secondary_wire;  // S's own LAN
  std::vector<std::unique_ptr<net::PointToPointLink>> transit;
  std::unique_ptr<net::PointToPointLink> client_wire;    // access segment A
  std::unique_ptr<net::PointToPointLink> client_wire_b;  // built by segment_b()
  std::vector<std::unique_ptr<ip::Router>> routers;  // [0] borders the server LAN
  std::unique_ptr<Host> client;
  std::unique_ptr<Host> primary;
  std::unique_ptr<Host> secondary;
  std::unique_ptr<Host> backend;  // optional unreplicated server T
  TopologyParams params;

  /// The server-side router (the one takeover adverts reach first).
  ip::Router& edge() { return *routers.front(); }
  /// The router the client hangs off.
  ip::Router& access() { return *routers.back(); }

  /// Access segment B (192.168.2.0/24, gateway kClientGwB) on the
  /// client's router, built on first use. Routed topologies only.
  net::PointToPointLink& segment_b();
  std::size_t port_b = 0;  // the access router's port on segment B

  /// Moves the client from access segment A (192.168.1.0/24) to segment
  /// B with a new address and gateway; live connections carry the
  /// migrate-from option until the server answers at the new address.
  void move_client();

  static constexpr const char* kRouterLanAddr = "10.0.0.254";
  static constexpr const char* kClientAddrB = "192.168.2.10";
  static constexpr const char* kClientGwB = "192.168.2.254";
};

/// Throws std::invalid_argument on a negative hop count, or on a separate
/// secondary LAN with no router to reach it through.
std::unique_ptr<Topology> make_topology(TopologyParams params = {});

// The LAN names predate the one topology; bench_e2e still spells them.
using Lan = Topology;
using LanParams = TopologyParams;
inline std::unique_ptr<Lan> make_lan(LanParams params = {}) {
  return make_topology(params);
}

}  // namespace tfo::apps
