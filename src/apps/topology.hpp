// Canned topologies matching the paper's testbeds.
//
//   Lan — one shared 100 Mb/s Ethernet segment with a client C, primary
//         server P, secondary server S, and an optional unreplicated
//         back-end host T (for §7.2 server-initiated connections).
//         This is the §9 measurement setup.
//
//   Wan — the same server LAN behind a router, with the client across a
//         bandwidth/latency/loss-shaped point-to-point link: the Figure 6
//         FTP environment.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "apps/host.hpp"
#include "ip/router.hpp"
#include "net/medium.hpp"
#include "sim/simulator.hpp"

namespace tfo::apps {

struct LanParams {
  net::SharedMediumParams medium;
  net::NicParams nic;
  tcp::TcpParams tcp;
  ip::ArpParams arp;
  bool with_backend = false;
  std::uint64_t seed = 11;
  /// Pre-populate every ARP cache (the paper warmed caches before timing).
  bool warm_arp = true;
};

struct Lan {
  sim::Simulator sim;
  std::unique_ptr<net::SharedMedium> wire;
  std::unique_ptr<Host> client;
  std::unique_ptr<Host> primary;
  std::unique_ptr<Host> secondary;
  std::unique_ptr<Host> backend;  // optional unreplicated server T

  static constexpr const char* kClientAddr = "10.0.0.10";
  static constexpr const char* kPrimaryAddr = "10.0.0.1";
  static constexpr const char* kSecondaryAddr = "10.0.0.2";
  static constexpr const char* kBackendAddr = "10.0.0.3";
};

std::unique_ptr<Lan> make_lan(LanParams params = {});

struct WanParams {
  net::SharedMediumParams lan_medium;
  net::PointToPointParams wan_link;
  net::NicParams nic;
  tcp::TcpParams tcp;
  ip::ArpParams arp;
  /// Extra latency before the router's ARP cache reflects an update
  /// (stretches the paper's takeover interval T).
  ip::ArpParams router_arp;
  std::uint64_t seed = 12;
  bool warm_arp = true;
};

struct Wan {
  sim::Simulator sim;
  std::unique_ptr<net::SharedMedium> lan_wire;
  std::unique_ptr<net::PointToPointLink> wan_wire;
  std::unique_ptr<ip::Router> router;
  std::unique_ptr<Host> client;  // across the WAN
  std::unique_ptr<Host> primary;
  std::unique_ptr<Host> secondary;

  static constexpr const char* kClientAddr = "192.168.1.10";
  static constexpr const char* kRouterWanAddr = "192.168.1.254";
  static constexpr const char* kRouterLanAddr = "10.0.0.254";
  static constexpr const char* kPrimaryAddr = "10.0.0.1";
  static constexpr const char* kSecondaryAddr = "10.0.0.2";
};

std::unique_ptr<Wan> make_wan(WanParams params = {});

// --- PR 10 topologies: routed takeover and client mobility.

struct Wan2Params {
  /// Number of routers between the client and the server LAN (>= 1).
  /// hops == 1 reduces to the Wan shape (client one router away).
  int hops = 2;
  /// Place the secondary on its own LAN behind the server-side router
  /// (10.0.2.0/24) instead of sharing the primary's segment. In this
  /// shape a gratuitous ARP cannot redirect anything — takeover must use
  /// the RouteAnnouncer, and replication must use mirror_inbound.
  bool separate_secondary_lan = false;
  net::SharedMediumParams lan_medium;
  /// Shape of every point-to-point segment: the client access link and
  /// the router-to-router transit links.
  net::PointToPointParams wan_link;
  net::NicParams nic;
  tcp::TcpParams tcp;
  ip::ArpParams arp;
  ip::ArpParams router_arp;
  std::uint64_t seed = 13;
  bool warm_arp = true;
};

/// A chain of routers between the client and the server LAN:
///
///   client --- R[hops-1] --- ... --- R[1] --- R[0] --- {P, S}
///
/// Transit link i joins routers[i] (at 10.1.<i+1>.1) and routers[i+1]
/// (at 10.1.<i+1>.2). Static routes give every router a path to the
/// server LAN and the client subnet; the route-advertisement protocol
/// layers /32 host routes on top during takeover.
struct Wan2 {
  sim::Simulator sim;
  std::unique_ptr<net::SharedMedium> lan_wire;        // server LAN
  std::unique_ptr<net::SharedMedium> secondary_wire;  // optional S LAN
  std::vector<std::unique_ptr<net::PointToPointLink>> transit;
  std::unique_ptr<net::PointToPointLink> client_wire;
  std::vector<std::unique_ptr<ip::Router>> routers;  // [0] borders server LAN
  std::unique_ptr<Host> client;
  std::unique_ptr<Host> primary;
  std::unique_ptr<Host> secondary;

  /// The server-side router (the one takeover adverts reach first).
  ip::Router& edge() { return *routers.front(); }

  static constexpr const char* kClientAddr = "192.168.1.10";
  static constexpr const char* kClientGw = "192.168.1.254";
  static constexpr const char* kPrimaryAddr = "10.0.0.1";
  static constexpr const char* kSecondaryAddr = "10.0.0.2";     // shared LAN
  static constexpr const char* kSecondaryLanAddr = "10.0.2.2";  // own LAN
  static constexpr const char* kSecondaryGw = "10.0.2.254";
  static constexpr const char* kRouterLanAddr = "10.0.0.254";
};

std::unique_ptr<Wan2> make_wan2(Wan2Params params = {});

struct MobileParams {
  net::SharedMediumParams lan_medium;
  net::PointToPointParams wan_link;
  net::NicParams nic;
  tcp::TcpParams tcp;
  ip::ArpParams arp;
  ip::ArpParams router_arp;
  std::uint64_t seed = 14;
  bool warm_arp = true;
};

/// Mobility testbed: one router with the server LAN on port 0 and two
/// client access segments A (192.168.1.0/24) and B (192.168.2.0/24) on
/// ports 1 and 2. The client starts on segment A; move_client() detaches
/// it mid-connection and re-attaches it on segment B with a new address,
/// exercising the Mosh-style migrate-from path (DESIGN.md §11).
struct Mobile {
  sim::Simulator sim;
  std::unique_ptr<net::SharedMedium> lan_wire;
  std::unique_ptr<net::PointToPointLink> wan_a;
  std::unique_ptr<net::PointToPointLink> wan_b;
  std::unique_ptr<ip::Router> router;
  std::unique_ptr<Host> client;  // starts on segment A
  std::unique_ptr<Host> primary;
  std::unique_ptr<Host> secondary;
  bool warm_arp = true;

  /// Moves the client from segment A to segment B (new address, new
  /// gateway); live connections carry the migrate-from option until the
  /// server answers at the new address.
  void move_client();

  static constexpr const char* kClientAddrA = "192.168.1.10";
  static constexpr const char* kClientAddrB = "192.168.2.10";
  static constexpr const char* kGwA = "192.168.1.254";
  static constexpr const char* kGwB = "192.168.2.254";
  static constexpr const char* kRouterLanAddr = "10.0.0.254";
  static constexpr const char* kPrimaryAddr = "10.0.0.1";
  static constexpr const char* kSecondaryAddr = "10.0.0.2";
};

std::unique_ptr<Mobile> make_mobile(MobileParams params = {});

}  // namespace tfo::apps
