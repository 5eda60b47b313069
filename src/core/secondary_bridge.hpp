// The secondary server bridge (§3.1): address translation around the
// secondary's TCP layer, and the §5 takeover procedure.
//
// Attachment points on the host:
//   * the NIC is put in promiscuous mode so the host sees the client's
//     datagrams addressed to the primary;
//   * an IP inbound hook discards snooped datagrams that are not failover
//     TCP traffic for the primary, and rewrites the destination a_p→a_s
//     of the rest — patching the TCP checksum *incrementally* in the
//     serialized payload, exactly as §3.1 describes;
//   * a TCP outbound tap diverts client-bound segments to the primary
//     (a_c→a_p), recording the original destination in a TCP option.
#pragma once

#include <cstdint>
#include <vector>

#include "apps/host.hpp"
#include "core/failover_config.hpp"
#include "sim/timer.hpp"

namespace tfo::core {

class SecondaryBridge {
 public:
  /// `primary_addr` is the service address: the one the client talks to
  /// and this host takes over.
  SecondaryBridge(apps::Host& host, ip::Ipv4 primary_addr, FailoverConfig cfg);
  ~SecondaryBridge();
  SecondaryBridge(const SecondaryBridge&) = delete;
  SecondaryBridge& operator=(const SecondaryBridge&) = delete;

  /// §5: the fault detector declared the primary dead. Executes the five
  /// takeover steps; transmission resumes after cfg.takeover_pause.
  void take_over();
  bool taken_over() const { return taken_over_; }

  /// Simulated time at which take_over() ran (0 if it has not).
  SimTime takeover_time() const { return takeover_time_; }

  /// Re-aims the diversion target (replica-chain support: when this
  /// host's upstream neighbour dies, client-bound output is diverted to
  /// the next live replica up instead). The snoop translation keeps
  /// matching the *service* address.
  void set_divert_to(ip::Ipv4 addr) { divert_to_ = addr; }
  ip::Ipv4 divert_to() const { return divert_to_; }

  // Statistics (thin views over the host metrics registry).
  std::uint64_t datagrams_translated() const;
  std::uint64_t segments_diverted() const;
  std::uint64_t snooped_dropped() const;

 private:
  ip::HookVerdict ip_inbound(ip::IpDatagram& dgram, const ip::RxMeta& meta);
  tcp::TapVerdict tcp_outbound(tcp::TcpSegment& seg, ip::Ipv4& src, ip::Ipv4& dst);

  apps::Host& host_;
  FailoverConfig cfg_;
  ip::Ipv4 primary_addr_;
  ip::Ipv4 divert_to_;
  bool taken_over_ = false;
  bool paused_ = false;
  SimTime takeover_time_ = 0;
  struct HeldSegment {
    tcp::TcpSegment seg;
    ip::Ipv4 dst;
  };
  std::vector<HeldSegment> pause_buffer_;
  ip::HookId ip_hook_ = 0;
  tcp::TapId out_tap_ = 0;
  /// Liveness sentinel for deferred events (ARP repeats, pause resume).
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
  // Registry handles (resolved once in the constructor).
  obs::Counter* ctr_translated_ = nullptr;
  obs::Counter* ctr_diverted_ = nullptr;
  obs::Counter* ctr_snooped_dropped_ = nullptr;
  obs::Counter* ctr_kicked_ = nullptr;
  obs::Counter* ctr_spoof_dropped_ = nullptr;
};

}  // namespace tfo::core
