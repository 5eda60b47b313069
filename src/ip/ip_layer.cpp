#include "ip/ip_layer.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "ip/icmp.hpp"

namespace tfo::ip {

std::size_t IpLayer::add_interface(Interface iface) {
  TFO_ASSERT(iface.nic != nullptr && iface.arp != nullptr,
             "interface requires a NIC and an ARP entity");
  interfaces_.push_back(iface);
  const std::size_t idx = interfaces_.size() - 1;
  routes_.install({iface.addr, iface.prefix_len, Ipv4::any(), idx, 0, false});
  return idx;
}

void IpLayer::set_default_gateway(Ipv4 gateway, std::size_t iface_idx) {
  routes_.install({Ipv4::any(), 0, gateway, iface_idx, 0, false});
}

void IpLayer::reconfigure_interface(std::size_t idx, Ipv4 addr, int prefix_len) {
  Interface& iface = interfaces_.at(idx);
  routes_.remove(iface.addr, iface.prefix_len);
  iface.addr = addr;
  iface.prefix_len = prefix_len;
  routes_.install({addr, prefix_len, Ipv4::any(), idx, 0, false});
}

void IpLayer::set_observability(obs::Hub* hub) {
  if (!hub) {
    ctr_parse_failed_ = nullptr;
    ctr_ttl_expired_ = nullptr;
    ctr_frag_needed_ = nullptr;
    return;
  }
  ctr_parse_failed_ = &hub->registry.counter("ip.datagrams_parse_failed");
  ctr_parse_failed_->inc(rx_parse_failed_);
  ctr_ttl_expired_ = &hub->registry.counter("router.ttl_expired");
  ctr_ttl_expired_->inc(ttl_expired_);
  ctr_frag_needed_ = &hub->registry.counter("router.frag_needed_sent");
  ctr_frag_needed_->inc(frag_needed_sent_);
}

std::vector<Ipv4> IpLayer::local_addresses() const {
  std::vector<Ipv4> out;
  out.reserve(interfaces_.size() + aliases_.size());
  for (const auto& iface : interfaces_) out.push_back(iface.addr);
  out.insert(out.end(), aliases_.begin(), aliases_.end());
  return out;
}

bool IpLayer::is_local(Ipv4 addr) const {
  for (const auto& iface : interfaces_) {
    if (iface.addr == addr) return true;
  }
  return std::find(aliases_.begin(), aliases_.end(), addr) != aliases_.end();
}

std::optional<IpLayer::Route> IpLayer::route_for(Ipv4 dst) const {
  const RouteEntry* e = routes_.lookup(dst);
  if (!e) return std::nullopt;
  return Route{e->next_hop, e->iface_idx};
}

void IpLayer::send(Proto proto, Ipv4 src, Ipv4 dst,
                   wire::PacketBuffer payload) {
  IpDatagram d;
  d.proto = proto;
  d.src = src;
  d.dst = dst;
  d.id = next_ip_id_++;
  d.payload = std::move(payload);
  send_datagram(std::move(d));
}

void IpLayer::send_datagram(IpDatagram dgram) {
  for (auto& [id, hook] : outbound_hooks_) {
    switch (hook(dgram)) {
      case HookVerdict::kContinue: break;
      case HookVerdict::kConsume: return;
      case HookVerdict::kDrop: return;
    }
  }
  const auto route = route_for(dgram.dst);
  if (!route) {
    TFO_LOG(kWarn, "ip") << "no route to " << dgram.dst.str();
    return;
  }
  if (dgram.src.is_any()) dgram.src = interfaces_[route->iface_idx].addr;
  const Ipv4 next_hop = route->next_hop.is_any() ? dgram.dst : route->next_hop;
  transmit_on(route->iface_idx, next_hop, std::move(dgram));
}

void IpLayer::transmit_on(std::size_t iface_idx, Ipv4 next_hop, IpDatagram dgram) {
  Interface& iface = interfaces_[iface_idx];
  ++tx_count_;
  // Zero-copy: the IP header goes into the payload buffer's headroom and
  // the buffer moves into the frame (a share at worst — never a byte
  // copy). A cache hit sends at once, exactly as resolve() would call its
  // continuation; only a miss pays for the continuation's closure.
  net::EthernetFrame frame;
  frame.type = net::EtherType::kIpv4;
  frame.payload = dgram.to_wire();
  if (iface.arp->lookup(next_hop, &frame.dst)) {
    iface.nic->send(std::move(frame));
    return;
  }
  iface.arp->resolve(next_hop, [nic = iface.nic, frame = std::move(frame)](
                                   net::MacAddress mac) mutable {
    frame.dst = mac;
    nic->send(std::move(frame));
  });
}

void IpLayer::handle_frame(const net::EthernetFrame& frame, bool to_our_mac) {
  auto parsed = IpDatagram::parse(frame.payload);
  if (!parsed) {
    ++rx_dropped_;
    ++rx_parse_failed_;
    if (ctr_parse_failed_) ctr_parse_failed_->inc();
    return;
  }
  IpDatagram dgram = std::move(*parsed);
  RxMeta meta{to_our_mac, frame.src};

  for (auto& [id, hook] : inbound_hooks_) {
    switch (hook(dgram, meta)) {
      case HookVerdict::kContinue: break;
      case HookVerdict::kConsume: return;
      case HookVerdict::kDrop:
        ++rx_dropped_;
        return;
    }
  }

  if (is_local(dgram.dst)) {
    auto it = protocols_.find(static_cast<std::uint8_t>(dgram.proto));
    if (it == protocols_.end()) {
      ++rx_dropped_;
      return;
    }
    ++rx_delivered_;
    it->second(dgram, meta);
    return;
  }

  // Not addressed to a frame we own at L2 either: only routers proceed.
  if (forwarding_ && to_our_mac) {
    forward(std::move(dgram));
    return;
  }
  ++rx_dropped_;
}

void IpLayer::forward(IpDatagram dgram) {
  if (dgram.ttl <= 1) {
    // RFC 792: tell the source its datagram died in transit — this is
    // what keeps transient forwarding loops (route churn mid-takeover)
    // from recirculating traffic forever. Never ICMP about ICMP.
    ++rx_dropped_;
    ++ttl_expired_;
    if (ctr_ttl_expired_) ctr_ttl_expired_->inc();
    send_icmp_error(dgram, kIcmpTimeExceeded, kIcmpTtlExpired, 0);
    return;
  }
  dgram.ttl -= 1;
  const auto route = route_for(dgram.dst);
  if (!route) {
    ++rx_dropped_;
    return;
  }
  const Interface& iface = interfaces_[route->iface_idx];
  if (iface.mtu > 0 && dgram.total_length() > static_cast<std::size_t>(iface.mtu)) {
    // RFC 1191: bounce with the egress MTU so the sender's PMTUD can
    // shrink its segments (validated on receipt — see tcp/connection's
    // on_icmp_frag_needed and the PR 9 forged-ICMP defenses).
    ++rx_dropped_;
    ++frag_needed_sent_;
    if (ctr_frag_needed_) ctr_frag_needed_->inc();
    send_icmp_error(dgram, kIcmpDestUnreachable, kIcmpFragNeeded,
                    static_cast<std::uint16_t>(iface.mtu));
    return;
  }
  const Ipv4 next_hop = route->next_hop.is_any() ? dgram.dst : route->next_hop;
  transmit_on(route->iface_idx, next_hop, std::move(dgram));
}

void IpLayer::send_icmp_error(const IpDatagram& offender, std::uint8_t type,
                              std::uint8_t code, std::uint16_t mtu) {
  if (offender.proto == Proto::kIcmp) return;  // no ICMP about ICMP
  IcmpMessage msg;
  msg.type = type;
  msg.code = code;
  msg.mtu = mtu;
  msg.quoted_src = offender.src;
  msg.quoted_dst = offender.dst;
  msg.quoted_proto = static_cast<std::uint8_t>(offender.proto);
  if (offender.proto == Proto::kTcp && offender.payload.size() >= 8) {
    msg.quoted_src_port = get_u16(offender.payload, 0);
    msg.quoted_dst_port = get_u16(offender.payload, 2);
    msg.quoted_seq = get_u32(offender.payload, 4);
  }
  send(Proto::kIcmp, Ipv4::any(), offender.src,
       wire::PacketBuffer::copy_of(msg.serialize()));
}

void IpLayer::register_protocol(Proto proto, ProtoHandler handler) {
  protocols_[static_cast<std::uint8_t>(proto)] = std::move(handler);
}

HookId IpLayer::add_inbound_hook(InboundHook hook) {
  const HookId id = next_hook_id_++;
  inbound_hooks_.emplace_back(id, std::move(hook));
  return id;
}

HookId IpLayer::add_outbound_hook(OutboundHook hook) {
  const HookId id = next_hook_id_++;
  outbound_hooks_.emplace_back(id, std::move(hook));
  return id;
}

void IpLayer::remove_hook(HookId id) {
  auto drop = [id](auto& vec) {
    vec.erase(std::remove_if(vec.begin(), vec.end(),
                             [id](const auto& p) { return p.first == id; }),
              vec.end());
  };
  drop(inbound_hooks_);
  drop(outbound_hooks_);
}

}  // namespace tfo::ip
