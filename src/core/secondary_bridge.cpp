#include "core/secondary_bridge.hpp"

#include "common/logging.hpp"
#include "core/takeover_announcer.hpp"
#include "tcp/segment.hpp"

namespace tfo::core {

using ip::HookVerdict;
using tcp::TapVerdict;
using tcp::TcpSegment;

SecondaryBridge::SecondaryBridge(apps::Host& host, ip::Ipv4 primary_addr,
                                 FailoverConfig cfg)
    : host_(host), cfg_(std::move(cfg)), primary_addr_(primary_addr),
      divert_to_(primary_addr) {
  if (!cfg_.announcer) cfg_.announcer = std::make_shared<GarpAnnouncer>();
  auto& reg = host_.obs().registry;
  ctr_translated_ = &reg.counter("secondary.datagrams_translated");
  ctr_diverted_ = &reg.counter("secondary.segments_diverted");
  ctr_snooped_dropped_ = &reg.counter("secondary.snooped_dropped");
  ctr_kicked_ = &reg.counter("secondary.connections_kicked");
  ctr_spoof_dropped_ = &reg.counter("bridge.spoof_dropped");
  // In mirror mode the primary replicates client datagrams to us over IP
  // (routed topologies): nothing to snoop, the NIC stays unicast.
  if (!cfg_.mirror_inbound) host_.nic().set_promiscuous(true);
  ip_hook_ = host_.ip().add_inbound_hook(
      [this](ip::IpDatagram& d, const ip::RxMeta& m) { return ip_inbound(d, m); });
  out_tap_ = host_.tcp().add_outbound_tap(
      [this](TcpSegment& seg, ip::Ipv4& src, ip::Ipv4& dst) {
        return tcp_outbound(seg, src, dst);
      });
}

SecondaryBridge::~SecondaryBridge() {
  alive_.reset();
  host_.ip().remove_hook(ip_hook_);
  host_.tcp().remove_tap(out_tap_);
}

std::uint64_t SecondaryBridge::datagrams_translated() const {
  return host_.obs().registry.counter_value("secondary.datagrams_translated");
}
std::uint64_t SecondaryBridge::segments_diverted() const {
  return host_.obs().registry.counter_value("secondary.segments_diverted");
}
std::uint64_t SecondaryBridge::snooped_dropped() const {
  return host_.obs().registry.counter_value("secondary.snooped_dropped");
}

HookVerdict SecondaryBridge::ip_inbound(ip::IpDatagram& dgram, const ip::RxMeta& meta) {
  if (taken_over_) return HookVerdict::kContinue;  // §5 step 3: disabled
  if (dgram.dst == host_.address()) return HookVerdict::kContinue;

  if (!meta.to_our_mac) {
    // Promiscuously captured. §3.1: "The secondary server bridge discards
    // all datagrams that do not contain a TCP segment or that are not
    // addressed to P."
    if (dgram.proto != ip::Proto::kTcp || dgram.dst != primary_addr_ ||
        dgram.payload.size() < 20) {
      ctr_snooped_dropped_->inc();
      return HookVerdict::kDrop;
    }
    // Client→server traffic: the server-side port is the destination.
    const tcp::ConnKey key{host_.address(), get_u16(dgram.payload, 2), dgram.src,
                           get_u16(dgram.payload, 0)};
    if (!cfg_.is_failover_connection(host_.tcp(), key)) {
      ctr_snooped_dropped_->inc();
      return HookVerdict::kDrop;
    }
    // Off-path hardening: before translating the snooped segment into our
    // replica's receive path, check its sequence number against the
    // connection it claims to belong to. State-changing segments (RST,
    // SYN) must sit exactly at the replica's RCV.NXT — the same test RFC
    // 5961 applies for teardown — and data must land within a window or
    // two of it. A blind injector guessing sequence numbers fails this
    // and never perturbs the replica; a genuine peer that trips it (e.g.
    // an inexact RST) is re-challenged by the primary's TCP layer and
    // passes on the exact retry.
    if (auto conn = host_.tcp().find(key);
        conn && conn->state() != tcp::TcpState::kSynSent) {
      // In SYN_SENT (server-initiated connections, §7.2) the replica has
      // not learned the remote ISN yet — the snooped SYN|ACK is what
      // fixes it, so there is nothing to check the sequence against; the
      // TCP layer's own SYN_SENT rule (ACK must equal ISS+1) gates
      // forgeries there.
      constexpr std::int32_t kSlack = 2 * 65536;
      const Seq32 seq{get_u32(dgram.payload, 4)};
      const std::int32_t rel = seq_diff(seq, conn->rcv_nxt_abs());
      const std::uint8_t flags = get_u8(dgram.payload, 13);
      const bool state_changing = flags & (tcp::Flags::kRst | tcp::Flags::kSyn);
      // Exception: a reconnect on a 4-tuple whose replica sits in
      // TIME_WAIT. Its SYN is newer than RCV.NXT by design, and the
      // replica's TCP recycles the tuple for it, as the primary's does.
      const bool new_incarnation =
          (flags & (tcp::Flags::kSyn | tcp::Flags::kAck | tcp::Flags::kRst)) ==
              tcp::Flags::kSyn &&
          conn->syn_recycles_time_wait(seq);
      if (!new_incarnation &&
          (state_changing ? rel != 0 : (rel < -kSlack || rel > kSlack))) {
        ctr_spoof_dropped_->inc();
        return HookVerdict::kDrop;
      }
      // Glean the client's MAC from its handshake ACK, so that at a
      // takeover every kick can leave at once instead of waiting on an
      // ARP exchange queued behind the other kicks. Only an on-link
      // client's frame carries its own MAC; a routed one carries the
      // router's.
      if (conn->state() == tcp::TcpState::kSynRcvd &&
          (flags & (tcp::Flags::kAck | tcp::Flags::kSyn | tcp::Flags::kRst)) ==
              tcp::Flags::kAck) {
        const ip::RouteEntry* route = host_.ip().routes().lookup(dgram.src);
        if (route != nullptr && route->next_hop.is_any()) {
          host_.arp().glean(dgram.src, meta.src_mac);
        }
      }
    }
    // Rewrite a_p -> a_s and fix the TCP checksum incrementally in the
    // serialized segment (the pseudo-header destination changed). This is
    // the paper's rewrite-in-place: two bytes patched directly in the
    // arriving wire buffer — copy-on-write guards the case where the
    // primary's own pending delivery still shares the frame storage.
    tcp::patch_checksum_for_address_change(dgram.payload, dgram.dst, host_.address());
    dgram.dst = host_.address();
    ctr_translated_->inc();
    return HookVerdict::kContinue;
  }
  return HookVerdict::kContinue;
}

TapVerdict SecondaryBridge::tcp_outbound(TcpSegment& seg, ip::Ipv4& src, ip::Ipv4& dst) {
  if (taken_over_ && !paused_) return TapVerdict::kContinue;
  if (dst == primary_addr_ || dst == divert_to_) return TapVerdict::kContinue;

  // Only failover-connection traffic is diverted.
  const tcp::ConnKey key{src, seg.src_port, dst, seg.dst_port};
  if (!cfg_.is_failover_connection(host_.tcp(), key)) return TapVerdict::kContinue;

  if (paused_) {
    // §5 step 1: hold client-bound segments during reconfiguration.
    pause_buffer_.push_back({seg, dst});
    return TapVerdict::kConsume;
  }

  // §3.1: divert to the primary (or, in a replica chain, the next live
  // replica up), recording the true destination in a TCP header option.
  seg.orig_dst = dst;
  dst = divert_to_;
  ctr_diverted_->inc();
  return TapVerdict::kContinue;
}

void SecondaryBridge::take_over() {
  if (taken_over_) return;
  TFO_LOG(kInfo, "bridge") << "secondary bridge: taking over "
                           << primary_addr_.str();
  takeover_time_ = host_.simulator().now();
  host_.obs().timeline.record(takeover_time_, obs::EventKind::kTakeoverStart, {},
                              "addr=" + primary_addr_.str());

  // Step 1: stop sending client-bound segments.
  paused_ = true;

  // Step 2: disable promiscuous receive.
  host_.nic().set_promiscuous(false);

  // Steps 3 & 4 (disable both translations) are keyed off this flag.
  taken_over_ = true;

  // Step 5: IP takeover — claim a_p, announce it, and rebind the failover
  // connections our TCP layer keyed under a_s (DESIGN.md §5.2). How the
  // network learns of the claim is pluggable (gratuitous ARP on a shared
  // segment, host-route advertisement across routers); the announcer owns
  // its repeat schedule.
  host_.ip().add_alias(primary_addr_);
  cfg_.announcer->announce(host_, primary_addr_, cfg_);
  auto rekeyed = host_.tcp().rekey_local_address(
      host_.address(), primary_addr_, [this](const tcp::Connection& c) {
        return cfg_.is_failover_connection(host_.tcp(), c.key(), &c);
      });

  // "After the change of IP address is completed, the bridge resumes
  // sending TCP segments." Then the kick (decision 7): each rekeyed
  // connection sends now — its unacked window, or an ACK — so the client
  // does not wait out its RTO for a segment the dead primary swallowed.
  host_.simulator().schedule_after(cfg_.takeover_pause,
                                   [this, w = std::weak_ptr<bool>(alive_),
                                    rekeyed = std::move(rekeyed)] {
    if (w.expired()) return;
    paused_ = false;
    auto held = std::move(pause_buffer_);
    pause_buffer_.clear();
    for (auto& h : held) {
      // Held segments were generated under a_s; they go out re-sourced
      // from the taken-over address.
      host_.tcp().send_segment_raw(h.seg, primary_addr_, h.dst);
    }
    std::uint64_t kicked = 0;
    for (const auto& conn : rekeyed) kicked += conn->kick() ? 1 : 0;
    ctr_kicked_->inc(kicked);
    host_.obs().timeline.record(host_.simulator().now(),
                                obs::EventKind::kTakeoverComplete, {},
                                "held_segments=" + std::to_string(held.size()) +
                                    " kicked=" + std::to_string(kicked));
  });
}

}  // namespace tfo::core
