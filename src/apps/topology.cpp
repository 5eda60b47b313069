#include "apps/topology.hpp"

namespace tfo::apps {

namespace {

HostParams host_params(const char* name, const char* addr, const LanParams& p,
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

}  // namespace

std::unique_ptr<Lan> make_lan(LanParams params) {
  auto lan = std::make_unique<Lan>();
  lan->wire = std::make_unique<net::SharedMedium>(lan->sim, params.medium);
  lan->client = std::make_unique<Host>(
      lan->sim, host_params("client", Lan::kClientAddr, params, params.seed + 1),
      *lan->wire);
  lan->primary = std::make_unique<Host>(
      lan->sim, host_params("primary", Lan::kPrimaryAddr, params, params.seed + 2),
      *lan->wire);
  lan->secondary = std::make_unique<Host>(
      lan->sim, host_params("secondary", Lan::kSecondaryAddr, params, params.seed + 3),
      *lan->wire);
  if (params.with_backend) {
    lan->backend = std::make_unique<Host>(
        lan->sim, host_params("backend", Lan::kBackendAddr, params, params.seed + 4),
        *lan->wire);
  }
  if (params.warm_arp) {
    warm_pair(*lan->client, *lan->primary);
    warm_pair(*lan->client, *lan->secondary);
    warm_pair(*lan->primary, *lan->secondary);
    if (lan->backend) {
      warm_pair(*lan->backend, *lan->primary);
      warm_pair(*lan->backend, *lan->secondary);
      warm_pair(*lan->backend, *lan->client);
    }
  }
  return lan;
}

std::unique_ptr<Wan> make_wan(WanParams params) {
  auto wan = std::make_unique<Wan>();
  wan->lan_wire = std::make_unique<net::SharedMedium>(wan->sim, params.lan_medium);
  wan->wan_wire = std::make_unique<net::PointToPointLink>(wan->sim, params.wan_link);

  LanParams lp;
  lp.nic = params.nic;
  lp.arp = params.arp;
  lp.tcp = params.tcp;

  wan->primary = std::make_unique<Host>(
      wan->sim, host_params("primary", Wan::kPrimaryAddr, lp, params.seed + 2),
      *wan->lan_wire);
  wan->secondary = std::make_unique<Host>(
      wan->sim, host_params("secondary", Wan::kSecondaryAddr, lp, params.seed + 3),
      *wan->lan_wire);
  wan->client = std::make_unique<Host>(
      wan->sim, host_params("client", Wan::kClientAddr, lp, params.seed + 1),
      *wan->wan_wire);

  wan->router = std::make_unique<ip::Router>(wan->sim, "router");
  wan->router->add_port(*wan->lan_wire, ip::Ipv4::parse(Wan::kRouterLanAddr), 24,
                        params.nic, params.router_arp);
  wan->router->add_port(*wan->wan_wire, ip::Ipv4::parse(Wan::kRouterWanAddr), 24,
                        params.nic, params.router_arp);

  const auto gw_lan = ip::Ipv4::parse(Wan::kRouterLanAddr);
  const auto gw_wan = ip::Ipv4::parse(Wan::kRouterWanAddr);
  wan->primary->set_default_gateway(gw_lan);
  wan->secondary->set_default_gateway(gw_lan);
  wan->client->set_default_gateway(gw_wan);

  if (params.warm_arp) {
    wan->primary->arp().add_static(wan->secondary->address(),
                                   wan->secondary->nic().mac());
    wan->secondary->arp().add_static(wan->primary->address(),
                                     wan->primary->nic().mac());
    wan->primary->arp().add_static(gw_lan, wan->router->nic(0).mac());
    wan->secondary->arp().add_static(gw_lan, wan->router->nic(0).mac());
    wan->client->arp().add_static(gw_wan, wan->router->nic(1).mac());
    wan->router->arp(0).add_static(wan->primary->address(),
                                   wan->primary->nic().mac());
    wan->router->arp(0).add_static(wan->secondary->address(),
                                   wan->secondary->nic().mac());
    wan->router->arp(1).add_static(wan->client->address(),
                                   wan->client->nic().mac());
  }
  return wan;
}

namespace {

/// Address of router `r` (0-based) on transit link `link` (0-based,
/// joining routers link and link+1): 10.1.<link+1>.<1|2>.
ip::Ipv4 transit_addr(std::size_t link, bool near_side) {
  return ip::Ipv4{(10u << 24) | (1u << 16) |
                  (static_cast<std::uint32_t>(link + 1) << 8) |
                  (near_side ? 1u : 2u)};
}

}  // namespace

std::unique_ptr<Wan2> make_wan2(Wan2Params params) {
  const int hops = params.hops < 1 ? 1 : params.hops;
  auto wan = std::make_unique<Wan2>();
  wan->lan_wire = std::make_unique<net::SharedMedium>(wan->sim, params.lan_medium);
  if (params.separate_secondary_lan) {
    wan->secondary_wire =
        std::make_unique<net::SharedMedium>(wan->sim, params.lan_medium);
  }
  for (int i = 0; i + 1 < hops; ++i) {
    wan->transit.push_back(
        std::make_unique<net::PointToPointLink>(wan->sim, params.wan_link));
  }
  wan->client_wire =
      std::make_unique<net::PointToPointLink>(wan->sim, params.wan_link);

  LanParams lp;
  lp.nic = params.nic;
  lp.arp = params.arp;
  lp.tcp = params.tcp;

  wan->primary = std::make_unique<Host>(
      wan->sim, host_params("primary", Wan2::kPrimaryAddr, lp, params.seed + 2),
      *wan->lan_wire);
  const char* s_addr = params.separate_secondary_lan ? Wan2::kSecondaryLanAddr
                                                     : Wan2::kSecondaryAddr;
  wan->secondary = std::make_unique<Host>(
      wan->sim, host_params("secondary", s_addr, lp, params.seed + 3),
      params.separate_secondary_lan ? *wan->secondary_wire : *wan->lan_wire);
  wan->client = std::make_unique<Host>(
      wan->sim, host_params("client", Wan2::kClientAddr, lp, params.seed + 1),
      *wan->client_wire);

  const auto lan_subnet = ip::Ipv4::parse("10.0.0.0");
  const auto s_subnet = ip::Ipv4::parse("10.0.2.0");
  const auto client_subnet = ip::Ipv4::parse("192.168.1.0");

  // Per-router interface bookkeeping: the port index facing the server
  // LAN direction ("near") and the client direction ("far").
  std::vector<std::size_t> near_port(hops, 0), far_port(hops, 0);
  for (int i = 0; i < hops; ++i) {
    auto router = std::make_unique<ip::Router>(
        wan->sim, "router" + std::to_string(i));
    if (i == 0) {
      near_port[0] = router->add_port(*wan->lan_wire,
                                      ip::Ipv4::parse(Wan2::kRouterLanAddr), 24,
                                      params.nic, params.router_arp);
      if (params.separate_secondary_lan) {
        router->add_port(*wan->secondary_wire,
                         ip::Ipv4::parse(Wan2::kSecondaryGw), 24, params.nic,
                         params.router_arp);
      }
    } else {
      near_port[i] =
          router->add_port(*wan->transit[i - 1], transit_addr(i - 1, false), 24,
                           params.nic, params.router_arp);
    }
    if (i + 1 < hops) {
      far_port[i] = router->add_port(*wan->transit[i], transit_addr(i, true), 24,
                                     params.nic, params.router_arp);
    } else {
      far_port[i] = router->add_port(*wan->client_wire,
                                     ip::Ipv4::parse(Wan2::kClientGw), 24,
                                     params.nic, params.router_arp);
    }
    wan->routers.push_back(std::move(router));
  }

  // Static inter-subnet routes and neighbor lists. Router i reaches the
  // server-side subnets via router i-1 and the client subnet via router
  // i+1; the adjacent subnets are connected routes installed by add_port.
  for (int i = 0; i < hops; ++i) {
    auto& r = *wan->routers[i];
    if (i > 0) {
      const auto prev = transit_addr(i - 1, true);  // router i-1's side
      r.ip().add_route({lan_subnet, 24, prev, near_port[i], 1, false});
      if (params.separate_secondary_lan) {
        r.ip().add_route({s_subnet, 24, prev, near_port[i], 1, false});
      }
      r.add_neighbor(prev);
    }
    if (i + 1 < hops) {
      const auto next = transit_addr(i, false);  // router i+1's side
      r.ip().add_route({client_subnet, 24, next, far_port[i], 1, false});
      r.add_neighbor(next);
    }
  }

  const auto gw_lan = ip::Ipv4::parse(Wan2::kRouterLanAddr);
  wan->primary->set_default_gateway(gw_lan);
  wan->secondary->set_default_gateway(params.separate_secondary_lan
                                          ? ip::Ipv4::parse(Wan2::kSecondaryGw)
                                          : gw_lan);
  wan->client->set_default_gateway(ip::Ipv4::parse(Wan2::kClientGw));

  if (params.warm_arp) {
    auto& edge = *wan->routers.front();
    wan->primary->arp().add_static(gw_lan, edge.nic(near_port[0]).mac());
    edge.arp(near_port[0])
        .add_static(wan->primary->address(), wan->primary->nic().mac());
    if (params.separate_secondary_lan) {
      // Port 1 on the edge router is the secondary LAN (added right
      // after the server-LAN port above).
      wan->secondary->arp().add_static(ip::Ipv4::parse(Wan2::kSecondaryGw),
                                       edge.nic(1).mac());
      edge.arp(1).add_static(wan->secondary->address(),
                             wan->secondary->nic().mac());
    } else {
      wan->secondary->arp().add_static(gw_lan, edge.nic(near_port[0]).mac());
      edge.arp(near_port[0])
          .add_static(wan->secondary->address(), wan->secondary->nic().mac());
      wan->primary->arp().add_static(wan->secondary->address(),
                                     wan->secondary->nic().mac());
      wan->secondary->arp().add_static(wan->primary->address(),
                                       wan->primary->nic().mac());
    }
    auto& last = *wan->routers.back();
    wan->client->arp().add_static(ip::Ipv4::parse(Wan2::kClientGw),
                                  last.nic(far_port[hops - 1]).mac());
    last.arp(far_port[hops - 1])
        .add_static(wan->client->address(), wan->client->nic().mac());
    for (int i = 0; i + 1 < hops; ++i) {
      auto& a = *wan->routers[i];
      auto& b = *wan->routers[i + 1];
      a.arp(far_port[i]).add_static(transit_addr(i, false),
                                    b.nic(near_port[i + 1]).mac());
      b.arp(near_port[i + 1])
          .add_static(transit_addr(i, true), a.nic(far_port[i]).mac());
    }
  }
  return wan;
}

std::unique_ptr<Mobile> make_mobile(MobileParams params) {
  auto mob = std::make_unique<Mobile>();
  mob->warm_arp = params.warm_arp;
  mob->lan_wire = std::make_unique<net::SharedMedium>(mob->sim, params.lan_medium);
  mob->wan_a = std::make_unique<net::PointToPointLink>(mob->sim, params.wan_link);
  mob->wan_b = std::make_unique<net::PointToPointLink>(mob->sim, params.wan_link);

  LanParams lp;
  lp.nic = params.nic;
  lp.arp = params.arp;
  lp.tcp = params.tcp;

  mob->primary = std::make_unique<Host>(
      mob->sim, host_params("primary", Mobile::kPrimaryAddr, lp, params.seed + 2),
      *mob->lan_wire);
  mob->secondary = std::make_unique<Host>(
      mob->sim,
      host_params("secondary", Mobile::kSecondaryAddr, lp, params.seed + 3),
      *mob->lan_wire);
  mob->client = std::make_unique<Host>(
      mob->sim, host_params("client", Mobile::kClientAddrA, lp, params.seed + 1),
      *mob->wan_a);

  mob->router = std::make_unique<ip::Router>(mob->sim, "router");
  mob->router->add_port(*mob->lan_wire, ip::Ipv4::parse(Mobile::kRouterLanAddr),
                        24, params.nic, params.router_arp);
  mob->router->add_port(*mob->wan_a, ip::Ipv4::parse(Mobile::kGwA), 24,
                        params.nic, params.router_arp);
  mob->router->add_port(*mob->wan_b, ip::Ipv4::parse(Mobile::kGwB), 24,
                        params.nic, params.router_arp);

  const auto gw_lan = ip::Ipv4::parse(Mobile::kRouterLanAddr);
  mob->primary->set_default_gateway(gw_lan);
  mob->secondary->set_default_gateway(gw_lan);
  mob->client->set_default_gateway(ip::Ipv4::parse(Mobile::kGwA));

  if (params.warm_arp) {
    mob->primary->arp().add_static(mob->secondary->address(),
                                   mob->secondary->nic().mac());
    mob->secondary->arp().add_static(mob->primary->address(),
                                     mob->primary->nic().mac());
    mob->primary->arp().add_static(gw_lan, mob->router->nic(0).mac());
    mob->secondary->arp().add_static(gw_lan, mob->router->nic(0).mac());
    mob->client->arp().add_static(ip::Ipv4::parse(Mobile::kGwA),
                                  mob->router->nic(1).mac());
    mob->router->arp(0).add_static(mob->primary->address(),
                                   mob->primary->nic().mac());
    mob->router->arp(0).add_static(mob->secondary->address(),
                                   mob->secondary->nic().mac());
    mob->router->arp(1).add_static(mob->client->address(),
                                   mob->client->nic().mac());
  }
  return mob;
}

void Mobile::move_client() {
  client->move_to(*wan_b, ip::Ipv4::parse(kClientAddrB), 24,
                  ip::Ipv4::parse(kGwB));
  if (warm_arp) {
    client->arp().add_static(ip::Ipv4::parse(kGwB), router->nic(2).mac());
    router->arp(2).add_static(client->address(), client->nic().mac());
  }
}

}  // namespace tfo::apps
