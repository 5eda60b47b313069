#include "ip/router.hpp"

#include "common/logging.hpp"

namespace tfo::ip {

Router::Router(sim::Simulator& sim, std::string name)
    : sim_(sim), name_(std::move(name)), ip_(sim) {
  ip_.set_forwarding(true);
  ip_.set_observability(&hub_);
  ctr_adverts_received_ = &hub_.registry.counter("route.adverts_received");
  ctr_updates_applied_ = &hub_.registry.counter("route.updates_applied");
  ctr_adverts_propagated_ = &hub_.registry.counter("route.adverts_propagated");
  ip_.register_protocol(Proto::kRouteAdvert,
                        [this](const IpDatagram& d, const RxMeta&) {
                          handle_route_advert(d);
                        });
}

std::size_t Router::add_port(net::Medium& medium, Ipv4 addr, int prefix_len,
                             net::NicParams nic_params, ArpParams arp_params,
                             int mtu) {
  auto port = std::make_unique<Port>();
  port->nic = std::make_unique<net::Nic>(
      sim_, name_ + ".eth" + std::to_string(ports_.size()),
      net::MacAddress::from_id(addr.v), nic_params);
  port->arp = std::make_unique<ArpEntity>(
      sim_, *port->nic, [this] { return ip_.local_addresses(); }, arp_params);

  net::Nic* nic = port->nic.get();
  ArpEntity* arp = port->arp.get();
  nic->set_rx_handler([this, arp](const net::EthernetFrame& frame, bool to_us) {
    switch (frame.type) {
      case net::EtherType::kArp:
        arp->handle_frame(frame);
        break;
      case net::EtherType::kIpv4:
        ip_.handle_frame(frame, to_us);
        break;
    }
  });
  nic->attach(medium);

  const std::size_t idx =
      ip_.add_interface({nic, arp, addr, prefix_len, mtu});
  ports_.push_back(std::move(port));
  return idx;
}

void Router::handle_route_advert(const IpDatagram& dgram) {
  const auto msg = RouteAdvertMessage::parse(dgram.payload);
  if (!msg || msg->kind != RouteAdvertMessage::kAdvert) return;
  ctr_adverts_received_->inc();

  // The advertised destination is reachable via whoever sent us the
  // advert — one hop further than it was for them.
  const RouteEntry* back = ip_.routes().lookup(dgram.src);
  if (!back) return;  // can't even route to the advertiser; ignore
  const bool changed =
      ip_.add_route({msg->prefix, msg->prefix_len, dgram.src, back->iface_idx,
                     msg->metric + 1, true});
  if (changed) {
    ctr_updates_applied_->inc();
    TFO_LOG(kInfo, "route") << name_ << ": installed " << msg->prefix.str()
                            << "/" << int(msg->prefix_len) << " via "
                            << dgram.src.str() << " metric "
                            << msg->metric + 1;
    RouteAdvertMessage fwd = *msg;
    fwd.metric = msg->metric + 1;
    fwd.next_hop = dgram.src;
    for (Ipv4 n : neighbors_) {
      if (n == dgram.src) continue;  // split horizon
      ip_.send(Proto::kRouteAdvert, Ipv4::any(), n,
               wire::PacketBuffer::copy_of(fwd.serialize()));
      ctr_adverts_propagated_->inc();
    }
  }

  // Always acknowledge: the originator's announcer repeats each advert
  // on a fixed schedule whether or not an ack came back, so duplicate
  // acks are the loss-tolerant case, not an error.
  if (!msg->origin.is_any()) {
    RouteAdvertMessage ack = *msg;
    ack.kind = RouteAdvertMessage::kAck;
    ip_.send(Proto::kRouteAdvert, Ipv4::any(), msg->origin,
             wire::PacketBuffer::copy_of(ack.serialize()));
  }
}

}  // namespace tfo::ip
