#include "core/takeover_announcer.hpp"

#include "apps/host.hpp"
#include "common/logging.hpp"
#include "core/failover_config.hpp"
#include "ip/route_advert.hpp"

namespace tfo::core {

void GarpAnnouncer::announce(apps::Host& host, ip::Ipv4 addr,
                             const FailoverConfig& cfg) {
  // Announce now, then repeat: any single gratuitous ARP may be lost.
  // The schedule is identical to the pre-refactor inline loop — the
  // single-segment determinism contract depends on that.
  host.arp().announce(addr);
  for (int i = 1; i <= cfg.announce_repeats; ++i) {
    host.simulator().schedule_after(
        i * cfg.announce_interval,
        [&host, addr, w = std::weak_ptr<bool>(alive_)] {
          if (!w.expired()) host.arp().announce(addr);
        });
  }
}

void RouteAnnouncer::announce(apps::Host& host, ip::Ipv4 addr,
                              const FailoverConfig& cfg) {
  started_ = host.simulator().now();
  converged_ = false;
  convergence_delay_ = 0;

  // Catch router acks. The handler slot for kRouteAdvert is ours: plain
  // hosts have no other use for the protocol.
  host.ip().register_protocol(
      ip::Proto::kRouteAdvert,
      [this, &host, w = std::weak_ptr<bool>(alive_)](
          const ip::IpDatagram& d, const ip::RxMeta&) {
        if (w.expired()) return;
        const auto msg = ip::RouteAdvertMessage::parse(d.payload);
        if (!msg || msg->kind != ip::RouteAdvertMessage::kAck) return;
        host.obs().registry.counter("route.acks_received").inc();
        if (converged_) return;
        converged_ = true;
        convergence_delay_ = host.simulator().now() - started_;
        host.obs().timeline.record(
            host.simulator().now(), obs::EventKind::kRouteConverged, {},
            "addr=" + msg->prefix.str() + " from=" + d.src.str() +
                " seq=" + std::to_string(msg->seq));
      });

  send_advert(host, addr, 0);
  for (int i = 1; i <= cfg.announce_repeats; ++i) {
    host.simulator().schedule_after(
        i * cfg.announce_interval,
        [this, &host, addr, seq = static_cast<std::uint32_t>(i),
         w = std::weak_ptr<bool>(alive_)] {
          if (!w.expired()) send_advert(host, addr, seq);
        });
  }
}

void RouteAnnouncer::send_advert(apps::Host& host, ip::Ipv4 addr,
                                 std::uint32_t seq) {
  std::vector<ip::Ipv4> targets = targets_;
  if (targets.empty()) {
    if (const ip::RouteEntry* gw = host.ip().routes().find(ip::Ipv4::any(), 0)) {
      targets.push_back(gw->next_hop);
    }
  }
  if (targets.empty()) {
    TFO_LOG(kWarn, "route") << host.name()
                            << ": route announcer has no gateway to advertise to";
    return;
  }
  ip::RouteAdvertMessage msg;
  msg.kind = ip::RouteAdvertMessage::kAdvert;
  msg.prefix = addr;
  msg.prefix_len = 32;
  msg.metric = 0;
  msg.next_hop = host.address();
  msg.origin = host.address();
  msg.seq = seq;
  for (ip::Ipv4 t : targets) {
    host.ip().send(ip::Proto::kRouteAdvert, ip::Ipv4::any(), t,
                   wire::PacketBuffer::copy_of(msg.serialize()));
    host.obs().registry.counter("route.adverts_sent").inc();
  }
  host.obs().timeline.record(host.simulator().now(),
                             obs::EventKind::kRouteAdvertSent, {},
                             "addr=" + addr.str() + " seq=" + std::to_string(seq));
}

}  // namespace tfo::core
