// Address Resolution Protocol (RFC 826) with gratuitous-ARP support.
//
// IP takeover (§5 of the paper) works by the secondary claiming the
// primary's IP address and broadcasting a gratuitous ARP; peers that hold
// a cache entry for that address rewrite it to the new MAC. The interval T
// the paper analyses — failure to ARP-table update — can be stretched via
// `ArpParams::update_latency` to study its effect on failover time.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common/time.hpp"
#include "ip/addr.hpp"
#include "net/frame.hpp"
#include "net/nic.hpp"
#include "sim/simulator.hpp"

namespace tfo::ip {

struct ArpParams {
  /// Retransmit interval for unanswered requests.
  SimDuration request_timeout = milliseconds(500);
  int max_retries = 3;
  /// Delay between receiving an ARP packet and the cache update becoming
  /// visible (models switch/router table-update latency; default: none).
  SimDuration update_latency = 0;
};

class ArpEntity {
 public:
  using ResolveCallback = std::function<void(net::MacAddress)>;
  /// Supplies the set of local IPv4 addresses this entity answers for
  /// (queried per packet so IP takeover is picked up immediately).
  using LocalAddressesFn = std::function<std::vector<Ipv4>()>;

  ArpEntity(sim::Simulator& sim, net::Nic& nic, LocalAddressesFn local_addrs,
            ArpParams params = {});

  /// Resolves `addr` to a MAC. Invokes `cb` immediately on a cache hit,
  /// otherwise after the request/reply exchange. On resolution failure the
  /// callback is dropped (IP datagrams are best-effort).
  void resolve(Ipv4 addr, ResolveCallback cb);

  /// Handles an incoming ARP frame (called by the host's ethertype demux).
  void handle_frame(const net::EthernetFrame& frame);

  /// Broadcasts a gratuitous ARP announcing `addr` at this NIC's MAC.
  void announce(Ipv4 addr);

  /// Pre-installs a static entry (benches warm caches like the paper did).
  void add_static(Ipv4 addr, net::MacAddress mac) { cache_[addr] = mac; }

  /// Records a mapping seen in IP traffic rather than in an ARP packet
  /// (the secondary bridge gleans its clients' MACs while it snoops).
  /// Creates or updates the entry, completing any resolution waiting on
  /// it; a mapping the cache already holds is left alone.
  void glean(Ipv4 addr, net::MacAddress mac);

  bool lookup(Ipv4 addr, net::MacAddress* out) const;
  std::size_t cache_size() const { return cache_.size(); }

 private:
  struct Pending {
    std::vector<ResolveCallback> callbacks;
    int retries = 0;
    sim::EventId timer = sim::kNoEvent;
  };

  void send_request(Ipv4 addr);
  void on_request_timeout(Ipv4 addr);
  void learn(Ipv4 addr, net::MacAddress mac, bool update_only);

  sim::Simulator& sim_;
  net::Nic& nic_;
  LocalAddressesFn local_addrs_;
  ArpParams params_;
  std::unordered_map<Ipv4, net::MacAddress> cache_;
  std::unordered_map<Ipv4, Pending> pending_;
};

}  // namespace tfo::ip
