#include "apps/topology.hpp"

#include <stdexcept>
#include <string>

namespace tfo::apps {

namespace {

constexpr const char* kLanClientAddr = "10.0.0.10";
constexpr const char* kClientAddr = "192.168.1.10";
constexpr const char* kClientGw = "192.168.1.254";
constexpr const char* kPrimaryAddr = "10.0.0.1";
constexpr const char* kSecondaryAddr = "10.0.0.2";     // shared LAN
constexpr const char* kSecondaryLanAddr = "10.0.2.2";  // own LAN
constexpr const char* kSecondaryGw = "10.0.2.254";
constexpr const char* kBackendAddr = "10.0.0.3";

HostParams host_params(const char* name, const char* addr, const TopologyParams& p,
                       std::uint64_t seed) {
  HostParams hp;
  hp.name = name;
  hp.addr = ip::Ipv4::parse(addr);
  hp.nic = p.nic;
  hp.arp = p.arp;
  hp.tcp = p.tcp;
  hp.seed = seed;
  return hp;
}

void warm_pair(Host& a, Host& b) {
  a.arp().add_static(b.address(), b.nic().mac());
  b.arp().add_static(a.address(), a.nic().mac());
}

/// Warms a host and the router port that is its gateway.
void warm_gateway(Host& h, ip::Router& r, std::size_t port) {
  h.arp().add_static(r.ip().interface(port).addr, r.nic(port).mac());
  r.arp(port).add_static(h.address(), h.nic().mac());
}

/// Warms the two router ports facing each other across a transit link.
void warm_ports(ip::Router& a, std::size_t pa, ip::Router& b, std::size_t pb) {
  a.arp(pa).add_static(b.ip().interface(pb).addr, b.nic(pb).mac());
  b.arp(pb).add_static(a.ip().interface(pa).addr, a.nic(pa).mac());
}

/// Address of a router on transit link `link` (0-based, joining routers
/// link and link+1): 10.1.<link+1>.<1|2>.
ip::Ipv4 transit_addr(std::size_t link, bool near_side) {
  return ip::Ipv4{(10u << 24) | (1u << 16) |
                  (static_cast<std::uint32_t>(link + 1) << 8) |
                  (near_side ? 1u : 2u)};
}

}  // namespace

std::unique_ptr<Topology> make_topology(TopologyParams params) {
  if (params.hops < 0) throw std::invalid_argument("make_topology: hops < 0");
  const int hops = params.hops;
  const bool routed = hops > 0;
  const bool own_lan = params.separate_secondary_lan;
  if (own_lan && !routed) {
    throw std::invalid_argument("make_topology: a separate secondary LAN needs a router");
  }
  auto t = std::make_unique<Topology>();
  t->params = params;
  t->wire = std::make_unique<net::SharedMedium>(t->sim, params.medium);
  if (own_lan) t->secondary_wire = std::make_unique<net::SharedMedium>(t->sim, params.medium);
  for (int i = 0; i + 1 < hops; ++i) {
    t->transit.push_back(std::make_unique<net::PointToPointLink>(t->sim, params.wan_link));
  }
  if (routed) t->client_wire = std::make_unique<net::PointToPointLink>(t->sim, params.wan_link);

  auto host = [&](const char* name, const char* addr, std::uint64_t seed_offset,
                  net::Medium& medium) {
    return std::make_unique<Host>(
        t->sim, host_params(name, addr, params, params.seed + seed_offset), medium);
  };
  if (!routed) t->client = host("client", kLanClientAddr, 1, *t->wire);
  t->primary = host("primary", kPrimaryAddr, 2, *t->wire);
  t->secondary = own_lan ? host("secondary", kSecondaryLanAddr, 3, *t->secondary_wire)
                         : host("secondary", kSecondaryAddr, 3, *t->wire);
  if (params.with_backend) t->backend = host("backend", kBackendAddr, 4, *t->wire);
  if (routed) t->client = host("client", kClientAddr, 1, *t->client_wire);

  // Each router's port toward the server LAN ("near") and toward the
  // client ("far").
  std::vector<std::size_t> near_port(hops, 0), far_port(hops, 0);
  for (int i = 0; i < hops; ++i) {
    auto r = std::make_unique<ip::Router>(t->sim, "router" + std::to_string(i));
    auto port = [&](net::Medium& medium, ip::Ipv4 addr) {
      return r->add_port(medium, addr, 24, params.nic, params.router_arp);
    };
    near_port[i] = i == 0 ? port(*t->wire, ip::Ipv4::parse(Topology::kRouterLanAddr))
                          : port(*t->transit[i - 1], transit_addr(i - 1, false));
    if (i == 0 && own_lan) port(*t->secondary_wire, ip::Ipv4::parse(kSecondaryGw));
    far_port[i] = i + 1 < hops ? port(*t->transit[i], transit_addr(i, true))
                               : port(*t->client_wire, ip::Ipv4::parse(kClientGw));
    t->routers.push_back(std::move(r));
  }

  // Static inter-subnet routes and neighbor lists. Router i reaches the
  // server-side subnets via router i-1 and the client subnet via router
  // i+1; the adjacent subnets are connected routes installed by add_port.
  for (int i = 0; i < hops; ++i) {
    auto& r = *t->routers[i];
    if (i > 0) {
      const auto prev = transit_addr(i - 1, true);
      r.ip().add_route({ip::Ipv4::parse("10.0.0.0"), 24, prev, near_port[i], 1, false});
      if (own_lan) {
        r.ip().add_route({ip::Ipv4::parse("10.0.2.0"), 24, prev, near_port[i], 1, false});
      }
      r.add_neighbor(prev);
    }
    if (i + 1 < hops) {
      const auto next = transit_addr(i, false);
      r.ip().add_route({ip::Ipv4::parse("192.168.1.0"), 24, next, far_port[i], 1, false});
      r.add_neighbor(next);
    }
  }

  // Hosts on the server LAN (with the client when there is no router).
  std::vector<Host*> lan = {t->primary.get()};
  if (!own_lan) lan.push_back(t->secondary.get());
  if (t->backend) lan.push_back(t->backend.get());
  if (!routed) lan.push_back(t->client.get());
  if (routed) {
    const auto gw_lan = ip::Ipv4::parse(Topology::kRouterLanAddr);
    for (Host* h : lan) h->set_default_gateway(gw_lan);
    if (own_lan) t->secondary->set_default_gateway(ip::Ipv4::parse(kSecondaryGw));
    t->client->set_default_gateway(ip::Ipv4::parse(kClientGw));
  }
  if (params.warm_arp) {
    for (std::size_t a = 0; a < lan.size(); ++a) {
      for (std::size_t b = a + 1; b < lan.size(); ++b) warm_pair(*lan[a], *lan[b]);
    }
    if (routed) {
      for (Host* h : lan) warm_gateway(*h, t->edge(), near_port[0]);
      if (own_lan) warm_gateway(*t->secondary, t->edge(), 1);  // the port after the LAN's
      warm_gateway(*t->client, t->access(), far_port[hops - 1]);
      for (int i = 0; i + 1 < hops; ++i) {
        warm_ports(*t->routers[i], far_port[i], *t->routers[i + 1], near_port[i + 1]);
      }
    }
  }
  return t;
}

net::PointToPointLink& Topology::segment_b() {
  if (routers.empty()) throw std::logic_error("segment_b: no router on the client side");
  if (client_wire_b) return *client_wire_b;
  client_wire_b = std::make_unique<net::PointToPointLink>(sim, params.wan_link);
  port_b = access().add_port(*client_wire_b, ip::Ipv4::parse(kClientGwB), 24, params.nic,
                             params.router_arp);
  // The upstream routers reach segment B the way they reach segment A.
  for (std::size_t i = 0; i + 1 < routers.size(); ++i) {
    ip::RouteEntry e = *routers[i]->ip().routes().find(ip::Ipv4::parse("192.168.1.0"), 24);
    e.prefix = ip::Ipv4::parse("192.168.2.0");
    routers[i]->ip().add_route(e);
  }
  return *client_wire_b;
}

void Topology::move_client() {
  client->move_to(segment_b(), ip::Ipv4::parse(kClientAddrB), 24,
                  ip::Ipv4::parse(kClientGwB));
  if (params.warm_arp) warm_gateway(*client, access(), port_b);
}

}  // namespace tfo::apps
