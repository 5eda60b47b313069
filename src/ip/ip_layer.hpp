// The IP layer: routing, protocol demux, and — crucially for this paper —
// the hook chains where the failover bridge inserts itself between TCP
// and IP (the paper's "bridge" sublayer, §1).
//
// Inbound hooks run after header validation but *before* the
// local-destination check, so a hook can rewrite the destination address
// (secondary bridge, §3.1) or consume a datagram outright (primary bridge
// demultiplexing the secondary's diverted segments, §3.2). Outbound hooks
// run before routing/ARP so a hook can divert or hold traffic.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/logging.hpp"
#include "ip/addr.hpp"
#include "ip/arp.hpp"
#include "ip/datagram.hpp"
#include "ip/route.hpp"
#include "net/nic.hpp"
#include "obs/obs.hpp"
#include "sim/simulator.hpp"

namespace tfo::ip {

enum class HookVerdict {
  kContinue,  // proceed with normal processing (possibly mutated)
  kConsume,   // the hook took responsibility; stop processing
  kDrop,      // discard silently
};

/// Link-level metadata accompanying a received datagram.
struct RxMeta {
  bool to_our_mac = true;  // false for promiscuous captures
  net::MacAddress src_mac;
};

using InboundHook = std::function<HookVerdict(IpDatagram&, const RxMeta&)>;
using OutboundHook = std::function<HookVerdict(IpDatagram&)>;
using HookId = std::uint64_t;

/// Handler for a locally delivered datagram of a registered protocol.
using ProtoHandler = std::function<void(const IpDatagram&, const RxMeta&)>;

class IpLayer {
 public:
  struct Interface {
    net::Nic* nic = nullptr;
    ArpEntity* arp = nullptr;
    Ipv4 addr;
    int prefix_len = 24;
    /// Egress MTU (IP header + payload). Enforced on the *forwarding*
    /// path only — an on-path router answers an oversized datagram with
    /// ICMP fragmentation-needed quoting this value (RFC 1191), which is
    /// the legitimate counterpart of the forged-ICMP PMTUD attacks PR 9
    /// defends against. 0 disables the check.
    int mtu = 1500;
  };

  explicit IpLayer(sim::Simulator& sim) : sim_(sim) {}

  /// Adds an interface; returns its index.
  std::size_t add_interface(Interface iface);
  Interface& interface(std::size_t idx) { return interfaces_.at(idx); }
  std::size_t interface_count() const { return interfaces_.size(); }

  /// Routes everything off-subnet via `gateway` on interface `iface_idx`
  /// (installs a /0 route; calling again replaces it).
  void set_default_gateway(Ipv4 gateway, std::size_t iface_idx = 0);

  /// Rebinds interface `idx` to a new address/prefix, replacing its
  /// connected route (client mobility: the host moved to another subnet).
  void reconfigure_interface(std::size_t idx, Ipv4 addr, int prefix_len);

  /// Installs a route; returns true iff the table changed (see
  /// RoutingTable::install for the replacement rules).
  bool add_route(RouteEntry entry) { return routes_.install(entry); }
  bool remove_route(Ipv4 prefix, int prefix_len) {
    return routes_.remove(prefix, prefix_len);
  }
  const RoutingTable& routes() const { return routes_; }

  /// All local addresses (interface addresses plus takeover aliases).
  std::vector<Ipv4> local_addresses() const;
  bool is_local(Ipv4 addr) const;

  /// Adds an address alias (IP takeover: the secondary claims a_p, §5.5).
  void add_alias(Ipv4 addr) { aliases_.push_back(addr); }

  /// Primary address of the first interface.
  Ipv4 address() const { return interfaces_.empty() ? Ipv4::any() : interfaces_[0].addr; }

  /// Sends a datagram. `src` may be any() to use the egress interface
  /// address. Payload must already be serialized for the wire (a Bytes
  /// argument converts implicitly, copied into a pooled block).
  void send(Proto proto, Ipv4 src, Ipv4 dst, wire::PacketBuffer payload);

  /// Sends a fully formed datagram (bridge re-emission path).
  void send_datagram(IpDatagram dgram);

  /// Entry point from the host's ethertype demux.
  void handle_frame(const net::EthernetFrame& frame, bool to_our_mac);

  void register_protocol(Proto proto, ProtoHandler handler);

  HookId add_inbound_hook(InboundHook hook);
  HookId add_outbound_hook(OutboundHook hook);
  void remove_hook(HookId id);

  /// Routers forward datagrams not addressed to them.
  void set_forwarding(bool on) { forwarding_ = on; }

  std::uint64_t datagrams_sent() const { return tx_count_; }
  std::uint64_t datagrams_delivered() const { return rx_delivered_; }
  std::uint64_t datagrams_dropped() const { return rx_dropped_; }
  /// Frames rejected by header validation (bad checksum, malformed) —
  /// unlike `datagrams_dropped`, never incremented for routing decisions,
  /// so it cleanly witnesses corrupted frames caught at the receive path.
  std::uint64_t datagrams_parse_failed() const { return rx_parse_failed_; }
  /// Datagrams dropped on the forwarding path with TTL exhausted (each
  /// answered by ICMP Time Exceeded unless the offender was ICMP itself).
  std::uint64_t ttl_expired() const { return ttl_expired_; }
  /// Oversized datagrams bounced with ICMP fragmentation-needed.
  std::uint64_t frag_needed_sent() const { return frag_needed_sent_; }

  /// Attaches this layer to a host's observability hub (null detaches);
  /// mirrors parse failures as `ip.datagrams_parse_failed`.
  void set_observability(obs::Hub* hub);

 private:
  struct Route {
    Ipv4 next_hop;           // any() == deliver directly to dst
    std::size_t iface_idx;
  };
  std::optional<Route> route_for(Ipv4 dst) const;
  void transmit_on(std::size_t iface_idx, Ipv4 next_hop, IpDatagram dgram);
  void forward(IpDatagram dgram);
  void send_icmp_error(const IpDatagram& offender, std::uint8_t type,
                       std::uint8_t code, std::uint16_t mtu);

  sim::Simulator& sim_;
  std::vector<Interface> interfaces_;
  std::vector<Ipv4> aliases_;
  RoutingTable routes_;
  std::unordered_map<std::uint8_t, ProtoHandler> protocols_;
  std::vector<std::pair<HookId, InboundHook>> inbound_hooks_;
  std::vector<std::pair<HookId, OutboundHook>> outbound_hooks_;
  HookId next_hook_id_ = 1;
  bool forwarding_ = false;
  std::uint16_t next_ip_id_ = 1;
  std::uint64_t tx_count_ = 0, rx_delivered_ = 0, rx_dropped_ = 0;
  std::uint64_t rx_parse_failed_ = 0;
  std::uint64_t ttl_expired_ = 0, frag_needed_sent_ = 0;
  obs::Counter* ctr_parse_failed_ = nullptr;
  obs::Counter* ctr_ttl_expired_ = nullptr;
  obs::Counter* ctr_frag_needed_ = nullptr;
};

}  // namespace tfo::ip
