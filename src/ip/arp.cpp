#include "ip/arp.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace tfo::ip {

namespace {

constexpr std::uint16_t kOpRequest = 1;
constexpr std::uint16_t kOpReply = 2;

// RFC 826 packet for Ethernet/IPv4: 28 bytes, written straight into a
// packet buffer whose headroom takes the Ethernet header in place.
wire::PacketBuffer serialize_arp(std::uint16_t op, net::MacAddress sha, Ipv4 spa,
                                 net::MacAddress tha, Ipv4 tpa) {
  wire::PacketBuffer out = wire::PacketBuffer::alloc(28);
  std::uint8_t* p = out.mutable_data();
  p = write_u16(p, 1);       // htype: Ethernet
  p = write_u16(p, 0x0800);  // ptype: IPv4
  p = write_u8(p, 6);        // hlen
  p = write_u8(p, 4);        // plen
  p = write_u16(p, op);
  p = std::copy(sha.b.begin(), sha.b.end(), p);
  p = write_u32(p, spa.v);
  p = std::copy(tha.b.begin(), tha.b.end(), p);
  write_u32(p, tpa.v);
  return out;
}

struct ArpPacket {
  std::uint16_t op;
  net::MacAddress sha, tha;
  Ipv4 spa, tpa;
};

bool parse_arp(BytesView wire, ArpPacket* out) {
  if (wire.size() < 28) return false;
  if (get_u16(wire, 0) != 1 || get_u16(wire, 2) != 0x0800) return false;
  out->op = get_u16(wire, 6);
  std::copy_n(wire.begin() + 8, 6, out->sha.b.begin());
  out->spa = Ipv4{get_u32(wire, 14)};
  std::copy_n(wire.begin() + 18, 6, out->tha.b.begin());
  out->tpa = Ipv4{get_u32(wire, 24)};
  return true;
}

}  // namespace

ArpEntity::ArpEntity(sim::Simulator& sim, net::Nic& nic, LocalAddressesFn local_addrs,
                     ArpParams params)
    : sim_(sim), nic_(nic), local_addrs_(std::move(local_addrs)), params_(params) {}

bool ArpEntity::lookup(Ipv4 addr, net::MacAddress* out) const {
  auto it = cache_.find(addr);
  if (it == cache_.end()) return false;
  if (out != nullptr) *out = it->second;
  return true;
}

void ArpEntity::resolve(Ipv4 addr, ResolveCallback cb) {
  if (auto it = cache_.find(addr); it != cache_.end()) {
    cb(it->second);
    return;
  }
  auto [it, fresh] = pending_.try_emplace(addr);
  it->second.callbacks.push_back(std::move(cb));
  if (fresh) {
    it->second.retries = 0;
    send_request(addr);
  }
}

void ArpEntity::send_request(Ipv4 addr) {
  const auto locals = local_addrs_();
  const Ipv4 spa = locals.empty() ? Ipv4::any() : locals.front();
  net::EthernetFrame frame;
  frame.dst = net::MacAddress::broadcast();
  frame.type = net::EtherType::kArp;
  frame.payload = serialize_arp(kOpRequest, nic_.mac(), spa, net::MacAddress{}, addr);
  nic_.send(std::move(frame));
  auto& p = pending_[addr];
  p.timer = sim_.schedule_after(params_.request_timeout,
                                [this, addr] { on_request_timeout(addr); });
}

void ArpEntity::on_request_timeout(Ipv4 addr) {
  auto it = pending_.find(addr);
  if (it == pending_.end()) return;
  if (++it->second.retries > params_.max_retries) {
    TFO_LOG(kWarn, "arp") << nic_.name() << " resolution failed for " << addr.str();
    pending_.erase(it);
    return;
  }
  send_request(addr);
}

void ArpEntity::learn(Ipv4 addr, net::MacAddress mac, bool update_only) {
  auto apply = [this, addr, mac, update_only] {
    auto it = cache_.find(addr);
    if (it != cache_.end()) {
      it->second = mac;
    } else if (!update_only) {
      cache_[addr] = mac;
    } else {
      return;
    }
    // Complete any resolutions waiting on this mapping.
    if (auto p = pending_.find(addr); p != pending_.end()) {
      sim_.cancel(p->second.timer);
      auto callbacks = std::move(p->second.callbacks);
      pending_.erase(p);
      for (auto& cb : callbacks) cb(mac);
    }
  };
  if (params_.update_latency > 0) {
    sim_.schedule_after(params_.update_latency, apply);
  } else {
    apply();
  }
}

void ArpEntity::glean(Ipv4 addr, net::MacAddress mac) {
  if (auto it = cache_.find(addr); it != cache_.end() && it->second == mac) return;
  learn(addr, mac, /*update_only=*/false);
}

void ArpEntity::handle_frame(const net::EthernetFrame& frame) {
  ArpPacket pkt;
  if (!parse_arp(frame.payload, &pkt)) return;
  const auto locals = local_addrs_();
  const bool for_us =
      std::find(locals.begin(), locals.end(), pkt.tpa) != locals.end();
  const bool have_pending = pending_.contains(pkt.spa);

  // RFC 826 merge: update an existing entry for the sender unconditionally;
  // create one only if the packet targets us or we asked for it. Gratuitous
  // ARP (spa == tpa) rides on the update path, which is exactly how the §5
  // IP takeover flips the client/router tables to the secondary's MAC.
  if (!pkt.spa.is_any()) {
    learn(pkt.spa, pkt.sha, /*update_only=*/!(for_us || have_pending));
  }

  if (pkt.op == kOpRequest && for_us) {
    net::EthernetFrame reply;
    reply.dst = pkt.sha;
    reply.type = net::EtherType::kArp;
    reply.payload = serialize_arp(kOpReply, nic_.mac(), pkt.tpa, pkt.sha, pkt.spa);
    nic_.send(std::move(reply));
  }
}

void ArpEntity::announce(Ipv4 addr) {
  net::EthernetFrame frame;
  frame.dst = net::MacAddress::broadcast();
  frame.type = net::EtherType::kArp;
  // Gratuitous request: spa == tpa == announced address.
  frame.payload = serialize_arp(kOpRequest, nic_.mac(), addr, net::MacAddress{}, addr);
  nic_.send(std::move(frame));
}

}  // namespace tfo::ip
