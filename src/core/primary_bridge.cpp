#include "core/primary_bridge.hpp"

#include <algorithm>

#include "common/bytes.hpp"
#include "common/logging.hpp"
#include "tcp/segment.hpp"

namespace tfo::core {

using tcp::ConnKey;
using tcp::Flags;
using tcp::TapVerdict;
using tcp::TcpSegment;

namespace {

/// Still waiting for its merged SYN: the handshake watch may reap it.
bool embryonic(const BridgeConn& conn) {
  return conn.state() == BridgeConn::Phase::kHandshake ||
         conn.state() == BridgeConn::Phase::kSoloHandshake;
}

}  // namespace

PrimaryBridge::PrimaryBridge(apps::Host& host, ip::Ipv4 secondary_addr,
                             FailoverConfig cfg)
    : host_(host),
      cfg_(std::move(cfg)),
      secondary_addr_(secondary_addr),
      sweep_timer_(host.simulator()) {
  tombstone_ttl_ = 4 * host_.tcp().params().msl;
  auto& reg = host_.obs().registry;
  ctr_merged_ = &reg.counter("bridge.merged_segments");
  ctr_stray_fin_acks_ = &reg.counter("bridge.stray_fin_acks");
  ctr_stray_fin_suppressed_ = &reg.counter("bridge.stray_fin_suppressed");
  ctr_divergences_ = &reg.counter("bridge.divergences");
  ctr_embryonic_reaped_ = &reg.counter("bridge.embryonic_reaped");
  ctr_spoof_dropped_ = &reg.counter("bridge.spoof_dropped");
  ctr_mirrored_ = &reg.counter("bridge.mirrored_datagrams");
  ctr_client_migrated_ = &reg.counter("bridge.client_migrated");
  gau_connections_ = &reg.gauge("bridge.connections");
  gau_tombstones_ = &reg.gauge("bridge.tombstones");
  conn_obs_ = {&host_.obs(),
               &host_.simulator(),
               &reg.counter("bridge.retransmissions_forwarded"),
               &reg.counter("bridge.empty_acks_emitted"),
               &reg.histogram("bridge.merged_payload_bytes"),
               &reg.gauge("bridge.pqueue_bytes"),
               &reg.gauge("bridge.pqueue_depth"),
               &reg.gauge("bridge.squeue_bytes"),
               &reg.gauge("bridge.squeue_depth")};
  out_tap_ = host_.tcp().add_outbound_tap(
      [this](TcpSegment& seg, ip::Ipv4& src, ip::Ipv4& dst) {
        return outbound_tap(seg, src, dst);
      });
  in_tap_ = host_.tcp().add_inbound_tap(
      [this](TcpSegment& seg, ip::Ipv4& src, ip::Ipv4& dst, const ip::RxMeta& meta) {
        return inbound_tap(seg, src, dst, meta);
      });
  if (cfg_.mirror_inbound) {
    mirror_hook_ = host_.ip().add_inbound_hook(
        [this](ip::IpDatagram& d, const ip::RxMeta& m) {
          return mirror_inbound(d, m);
        });
  }
}

PrimaryBridge::~PrimaryBridge() {
  alive_.reset();
  host_.tcp().remove_tap(out_tap_);
  host_.tcp().remove_tap(in_tap_);
  if (mirror_hook_ != 0) host_.ip().remove_hook(mirror_hook_);
}

BridgeConn* PrimaryBridge::find(const ConnKey& key) {
  auto* v = conns_.find_value(key);
  return v == nullptr ? nullptr : v->get();
}

std::uint64_t PrimaryBridge::merged_segments_sent() const {
  return host_.obs().registry.counter_value("bridge.merged_segments");
}
std::uint64_t PrimaryBridge::retransmissions_forwarded() const {
  return host_.obs().registry.counter_value("bridge.retransmissions_forwarded");
}
std::uint64_t PrimaryBridge::stray_fin_acks() const {
  return host_.obs().registry.counter_value("bridge.stray_fin_acks");
}
std::uint64_t PrimaryBridge::divergences() const {
  return host_.obs().registry.counter_value("bridge.divergences");
}

void PrimaryBridge::note_event(obs::EventKind kind, const ConnKey& key,
                               std::string detail) {
  host_.obs().timeline.record(host_.simulator().now(), kind, key, std::move(detail));
}

void PrimaryBridge::publish_gauges() {
  gau_connections_->set(static_cast<std::int64_t>(conns_.size()));
  gau_tombstones_->set(static_cast<std::int64_t>(tombstones_.size()));
}

void PrimaryBridge::exclude_existing_connections() {
  host_.tcp().for_each_connection(
      [this](const tcp::Connection& conn) { excluded_.insert(conn.key()); });
  TFO_LOG(kInfo, "bridge") << "primary bridge: " << excluded_.size()
                           << " pre-existing connections exempt from bridging";
}

bool PrimaryBridge::is_failover(const ConnKey& key) const {
  if (excluded_.contains(key)) return false;
  if (conns_.contains(key)) return true;
  return cfg_.is_failover_connection(host_.tcp(), key);
}

BridgeConn& PrimaryBridge::conn_for(const ConnKey& key) {
  auto r = conns_.try_emplace(key);
  if (r.second) {
    *r.first = std::make_unique<BridgeConn>(*this, key);
    (*r.first)->attach_obs(&conn_obs_);
    if (secondary_failed_) (*r.first)->on_secondary_failed();
    // Watch the handshake: if it never completes (SYN dropped in a
    // backlog overflow, client gone), the sweep reaps this entry — a SYN
    // burst must not grow the bridge table without bound.
    const SimTime deadline =
        host_.simulator().now() + static_cast<SimTime>(tombstone_ttl_);
    (*r.first)->set_handshake_deadline(deadline);
    enqueue_expiry({deadline, key, ExpiryKind::kHandshake});
    publish_gauges();
    note_event(obs::EventKind::kConnCreated, key);
    TFO_LOG(kDebug, "bridge") << "primary bridge: new connection " << key.str();
  }
  return **r.first;
}

// ------------------------------------------------------------------ taps

// Routed topologies (§3.1 without a shared segment): the secondary cannot
// promiscuously snoop client→a_p datagrams across a router, so the
// primary replicates them over IP instead — same a_p→a_s rewrite, same
// incremental checksum patch, applied by the sender. The copy carries the
// *raw* client segment (this hook runs before the inbound tap's ACK
// translation), so the secondary's replica sees exactly what a snoop
// would have delivered.
ip::HookVerdict PrimaryBridge::mirror_inbound(ip::IpDatagram& dgram,
                                              const ip::RxMeta& meta) {
  if (!meta.to_our_mac || secondary_failed_) return ip::HookVerdict::kContinue;
  if (dgram.proto != ip::Proto::kTcp || dgram.payload.size() < 20) {
    return ip::HookVerdict::kContinue;
  }
  if (dgram.src == secondary_addr_) return ip::HookVerdict::kContinue;
  if (!host_.ip().is_local(dgram.dst)) return ip::HookVerdict::kContinue;
  const ConnKey key{dgram.dst, get_u16(dgram.payload, 2), dgram.src,
                    get_u16(dgram.payload, 0)};
  if (!cfg_.is_failover_connection(host_.tcp(), key)) return ip::HookVerdict::kContinue;
  ip::IpDatagram copy = dgram;  // shares payload storage; the patch is CoW
  tcp::patch_checksum_for_address_change(copy.payload, copy.dst,
                                         secondary_addr_);
  copy.dst = secondary_addr_;
  host_.ip().send_datagram(std::move(copy));
  ctr_mirrored_->inc();
  return ip::HookVerdict::kContinue;
}

TapVerdict PrimaryBridge::outbound_tap(TcpSegment& seg, ip::Ipv4& src, ip::Ipv4& dst) {
  const ConnKey key{src, seg.src_port, dst, seg.dst_port};
  if (dst == secondary_addr_) return TapVerdict::kContinue;
  if (tombstoned(key)) {
    // Late retransmission from our own TCP layer after bridge teardown —
    // it must not leak out with untranslated sequence numbers.
    return TapVerdict::kDrop;
  }
  if (!is_failover(key)) return TapVerdict::kContinue;
  conn_for(key).on_primary_segment(seg);
  return TapVerdict::kConsume;
}

TapVerdict PrimaryBridge::inbound_tap(TcpSegment& seg, ip::Ipv4& src, ip::Ipv4& dst,
                                      const ip::RxMeta& meta) {
  (void)meta;
  if (seg.orig_dst.has_value()) {
    // Diverted traffic from the secondary (§3.1): never reaches our TCP.
    const ConnKey key{dst, seg.src_port, *seg.orig_dst, seg.dst_port};
    if (secondary_failed_) return TapVerdict::kDrop;  // §6 step 2
    if (auto* conn = find(key)) {
      if (!conn->secondary_seq_plausible(seg)) {
        // A forged orig-dst segment would otherwise feed the merge queues
        // and manufacture a "divergence" teardown. Genuine secondary
        // segments always sit near the merge point.
        ctr_spoof_dropped_->inc();
        TFO_LOG(kDebug, "bridge")
            << "implausible diverted segment dropped " << seg.summary();
        return TapVerdict::kDrop;
      }
      conn->on_secondary_segment(seg);
    } else if (tombstoned(key) && seg.fin()) {
      // §8: "When the bridge receives a FIN that S sent after the bridge
      // removed all internal data structures ... it creates an ACK and
      // sends it back to S." The reply must look like it came from the
      // client so S's TCP layer matches it to its connection.
      ack_stray_fin(seg, *seg.orig_dst, secondary_addr_, "secondary");
    } else if (seg.syn()) {
      conn_for(key).on_secondary_segment(seg);
    } else {
      TFO_LOG(kDebug, "bridge")
          << "dropping secondary segment for unknown connection " << key.str();
    }
    return TapVerdict::kConsume;
  }

  // Segment from the remote endpoint (client, or server T for §7.2).
  ConnKey key{dst, seg.dst_port, src, seg.src_port};
  if (find(key) == nullptr && seg.migrate_from.has_value() && !seg.syn() &&
      !seg.rst()) {
    // Mosh-style mobility: the client moved and stamps its old address in
    // a header option until we answer its new one. Rekey the bridge state
    // iff the segment is sequence-plausible for the *old* connection —
    // never on a RST (an address-stealing reset would be free) and never
    // on a SYN (a new connection is just a new connection).
    const ConnKey old_key{dst, seg.dst_port, *seg.migrate_from, seg.src_port};
    if (auto* old_conn = find(old_key);
        old_conn != nullptr && old_conn->remote_seq_plausible(seg)) {
      rekey_remote(old_key, src);
      ctr_client_migrated_->inc();
      note_event(obs::EventKind::kClientMigrated, key,
                 "from=" + seg.migrate_from->str());
    }
  }
  if (auto* conn = find(key)) {
    if (seg.rst()) {
      // A reset tombstones the bridge connection, so it may mutate bridge
      // state only when provably genuine: sequence number exactly at our
      // TCP's RCV.NXT (the same test RFC 5961 §3.2 applies for teardown).
      // Anything else is left to the TCP layer, which challenges or drops
      // it — a genuine peer answers the challenge with an exact RST that
      // passes here on the second round.
      const auto tc = host_.tcp().find(key);
      if (!tc || seg.seq != tc->rcv_nxt_abs()) {
        ctr_spoof_dropped_->inc();
        return TapVerdict::kContinue;
      }
    } else if (!conn->remote_seq_plausible(seg)) {
      // Blind injection: do not let it advance unwrap state, the merged
      // ACK, or the FIN bookkeeping. Forwarded untranslated, the TCP
      // layer's own RFC 5961 window checks dispose of it.
      ctr_spoof_dropped_->inc();
      return TapVerdict::kContinue;
    }
    conn->on_remote_segment(seg);
    return TapVerdict::kContinue;
  }
  if (tombstoned(key)) {
    if (!opens_new_incarnation(key, seg)) {
      if (seg.fin()) {
        // §8: ACK a client FIN retransmitted after teardown, and keep it
        // away from the TCP layer (which would answer with a RST). The
        // reply comes from the address the remote addressed (the service
        // address — not necessarily ours after a promotion).
        ack_stray_fin(seg, dst, src, "remote");
      }
      return TapVerdict::kDrop;
    }
    // A client reusing the 4-tuple: the tombstone has served its purpose
    // (our TCP will not confuse the new SYN with the old connection), and
    // the new connection is bridged afresh below.
    tombstones_.erase(key);
    publish_gauges();
  }
  if (!secondary_failed_ && seg.syn() && !seg.has_ack() && is_failover(key)) {
    conn_for(key).on_remote_segment(seg);
  }
  return TapVerdict::kContinue;
}

// ------------------------------------------------------------------ sink

void PrimaryBridge::emit(const TcpSegment& seg, ip::Ipv4 src, ip::Ipv4 dst) {
  ctr_merged_->inc();
  if (upstream_) {
    // Chain-intermediate role: the merged stream is itself diverted to
    // the next replica up, which merges it with its own TCP's output.
    TcpSegment diverted = seg;
    diverted.orig_dst = dst;
    host_.tcp().send_segment_raw(diverted, host_.address(), *upstream_);
    return;
  }
  host_.tcp().send_segment_raw(seg, src, dst);
}

void PrimaryBridge::rekey_local(ip::Ipv4 from, ip::Ipv4 to) {
  // Collect-sort-then-move: slot iteration order depends on the key
  // hashes, so the move order is pinned to the key's total order.
  std::vector<std::pair<ConnKey, std::unique_ptr<BridgeConn>>> moved;
  conns_.for_each([&](const ConnKey& key, std::unique_ptr<BridgeConn>& conn) {
    if (key.local_ip == from) moved.emplace_back(key, std::move(conn));
  });
  std::sort(moved.begin(), moved.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [key, conn] : moved) conns_.erase(key);
  for (auto& [old_key, conn] : moved) {
    conn->rebind_local(to);
    carry_handshake_watch(*conn);
    const ConnKey key = conn->key();
    conns_.insert_or_assign(key, std::move(conn));
  }
  // Exempt connections move with their TCP endpoints (the takeover rekeys
  // those too), or they would be bridged mid-stream under the new key.
  std::vector<ConnKey> exempt;
  excluded_.for_each([&](const ConnKey& key) {
    if (key.local_ip == from) exempt.push_back(key);
  });
  for (ConnKey key : exempt) {
    excluded_.erase(key);
    key.local_ip = to;
    excluded_.insert(key);
  }
}

void PrimaryBridge::rekey_remote(const ConnKey& old_key, ip::Ipv4 new_remote) {
  auto* v = conns_.find_value(old_key);
  if (v == nullptr) return;
  std::unique_ptr<BridgeConn> conn = std::move(*v);
  conns_.erase(old_key);
  conn->rebind_remote(new_remote);
  carry_handshake_watch(*conn);
  const ConnKey key = conn->key();
  conns_.insert_or_assign(key, std::move(conn));
}

void PrimaryBridge::carry_handshake_watch(const BridgeConn& conn) {
  // The entry under the old key stays queued and still fires the sweep at
  // this deadline; the copy under the new key is the one that can reap.
  // (A connection still embryonic past its deadline cannot exist: the
  // sweep at that deadline reaped it.)
  if (!embryonic(conn)) return;
  enqueue_expiry({conn.handshake_deadline(), conn.key(), ExpiryKind::kHandshake});
}

void PrimaryBridge::divergence(const ConnKey& key) {
  ctr_divergences_->inc();
  note_event(obs::EventKind::kDivergence, key);
  TFO_LOG(kError, "bridge") << "replica divergence on " << key.str()
                            << " — resetting connection";
  // The stream can no longer be kept consistent: reset the remote and our
  // own TCP endpoint, then tombstone. The RST must carry the connection's
  // client-facing SND.NXT (in the secondary's sequence space, which the
  // client is synchronized to) — a conforming receiver silently discards
  // out-of-window resets, so a seq=0 placeholder would leave the client
  // hanging until its own timeout.
  TcpSegment rst;
  rst.src_port = key.local_port;
  rst.dst_port = key.remote_port;
  rst.flags = Flags::kRst;
  if (const BridgeConn* bc = find(key)) {
    rst.seq = bc->remote_facing_seq();
    if (auto ack = bc->remote_facing_ack()) {
      rst.flags |= Flags::kAck;
      rst.ack = *ack;
    }
  }
  host_.tcp().send_segment_raw(rst, key.local_ip, key.remote_ip);
  if (auto conn = host_.tcp().find(key)) conn->abort();
  schedule_removal(key);
}

void PrimaryBridge::fully_closed(const ConnKey& key) {
  TFO_LOG(kDebug, "bridge") << "primary bridge: connection fully closed " << key.str();
  note_event(obs::EventKind::kConnClosed, key);
  schedule_removal(key);
}

void PrimaryBridge::schedule_removal(const ConnKey& key) {
  const SimTime expiry =
      host_.simulator().now() + static_cast<SimTime>(tombstone_ttl_);
  tombstones_.insert_or_assign(key, expiry);
  note_event(obs::EventKind::kTombstoneCreated, key,
             "ttl_ns=" + std::to_string(tombstone_ttl_));
  publish_gauges();
  enqueue_expiry({expiry, key, ExpiryKind::kTombstone});
  // Deferred erase: we may be inside this connection's own event handler.
  // Removals arriving in the same instant share one event (a mass-close
  // storm would otherwise schedule one per connection). The sentinel
  // keeps the event inert if the bridge is replaced meanwhile.
  pending_removals_.push_back(key);
  if (!removal_scheduled_) {
    removal_scheduled_ = true;
    host_.simulator().schedule_after(0, [this, w = std::weak_ptr<bool>(alive_)] {
      if (w.expired()) return;
      removal_scheduled_ = false;
      for (const ConnKey& k : pending_removals_) conns_.erase(k);
      pending_removals_.clear();
      publish_gauges();
    });
  }
}

void PrimaryBridge::enqueue_expiry(const Expiry& e) {
  // Fresh entries (deadline now + TTL) land at the back, so this is an
  // append; only a watch carried across a rekey lands in the middle.
  expiry_.insert(std::upper_bound(expiry_.begin(), expiry_.end(), e.deadline,
                                  [](SimTime d, const Expiry& x) {
                                    return d < x.deadline;
                                  }),
                 e);
  arm_tombstone_sweep(e.deadline);
}

bool PrimaryBridge::expiry_pending(const Expiry& e) const {
  if (e.kind == ExpiryKind::kTombstone) {
    // Re-tombstoning a key (divergence, then fully_closed) moves its
    // deadline later; only the latest entry counts.
    const SimTime* d = tombstones_.find_value(e.key);
    return d != nullptr && *d == e.deadline;
  }
  // A watch whose connection already closed still fires the sweep at its
  // deadline, as it always has; only a newer connection under the same
  // key, with a later deadline of its own, supersedes it.
  const auto* v = conns_.find_value(e.key);
  return v == nullptr || (*v)->handshake_deadline() == e.deadline;
}

void PrimaryBridge::arm_tombstone_sweep(SimTime deadline) {
  // One timer tracks the earliest pending expiry; sweeping re-arms it for
  // the next. Entries all share one TTL, so a later insert never needs to
  // pull the deadline earlier.
  if (sweep_timer_.armed() && sweep_timer_.deadline() <= deadline) return;
  sweep_timer_.start(static_cast<SimDuration>(deadline - host_.simulator().now()),
                     [this] { sweep_tombstones(); });
}

void PrimaryBridge::sweep_tombstones() {
  const SimTime now = host_.simulator().now();
  while (!expiry_.empty() && expiry_.front().deadline <= now) {
    const Expiry e = expiry_.front();
    expiry_.pop_front();
    if (!expiry_pending(e)) continue;
    if (e.kind == ExpiryKind::kTombstone) {
      note_event(obs::EventKind::kTombstoneExpired, e.key);
      tombstones_.erase(e.key);
      continue;
    }
    // Handshake watch: a connection that never completed the handshake
    // is stillborn and goes; one that did simply stops being watched.
    auto* v = conns_.find_value(e.key);
    if (v != nullptr && embryonic(**v)) {
      conns_.erase(e.key);
      ctr_embryonic_reaped_->inc();
      TFO_LOG(kDebug, "bridge")
          << "primary bridge: reaped embryonic connection " << e.key.str();
    }
  }
  // Stale entries at the front must not fire the timer early.
  while (!expiry_.empty() && !expiry_pending(expiry_.front())) expiry_.pop_front();
  publish_gauges();
  if (!expiry_.empty()) arm_tombstone_sweep(expiry_.front().deadline);
}

bool PrimaryBridge::tombstoned(const ConnKey& key) const {
  return tombstones_.contains(key);
}

bool PrimaryBridge::opens_new_incarnation(const ConnKey& key,
                                          const TcpSegment& seg) const {
  if (!seg.syn() || seg.has_ack() || seg.rst()) return false;
  const auto tc = host_.tcp().find(key);
  return !tc || tc->syn_recycles_time_wait(seg.seq);
}

// §8 stray-FIN replies. The reply ACK is unsolicited, so its sequence
// number must sit inside the FIN sender's receive window or a conforming
// peer discards it. The only in-window value the bridge can reconstruct
// after teardown is the stray FIN's own ACK field (the sender's RCV.NXT).
// A FIN carrying no ACK flag gives us nothing to anchor on — fabricating
// seq=0 would be discarded (or worse, misinterpreted) — so the reply is
// suppressed and the sender's own retransmission timer tries again with,
// eventually, an ACK-bearing FIN.

void PrimaryBridge::ack_stray_fin(const TcpSegment& seg, ip::Ipv4 src, ip::Ipv4 dst,
                                  const char* from) {
  const ConnKey key{src, seg.dst_port, dst, seg.src_port};
  const std::string label = std::string("from=") + from;
  if (!seg.has_ack()) {
    ctr_stray_fin_suppressed_->inc();
    note_event(obs::EventKind::kStrayFinSuppressed, key, label);
    TFO_LOG(kDebug, "bridge") << "stray FIN without ACK from " << from << " — no reply";
    return;
  }
  ctr_stray_fin_acks_->inc();
  note_event(obs::EventKind::kStrayFinAcked, key, label);
  TcpSegment ack;
  ack.src_port = seg.dst_port;
  ack.dst_port = seg.src_port;
  ack.flags = Flags::kAck;
  ack.seq = seg.ack;
  ack.ack = seq_add(seg.seq, seg.seg_len());
  host_.tcp().send_segment_raw(ack, src, dst);
}

void PrimaryBridge::on_secondary_failed() {
  if (secondary_failed_) return;
  secondary_failed_ = true;
  TFO_LOG(kInfo, "bridge") << "primary bridge: secondary failed, entering solo mode";
  host_.obs().timeline.record(host_.simulator().now(),
                              obs::EventKind::kSecondaryFailed, {},
                              "conns=" + std::to_string(conns_.size()));
  // Sort by key: the solo-mode flush emits segments, and the emission
  // order must not depend on hash-table slot order.
  std::vector<BridgeConn*> flushing;
  conns_.for_each([&](const ConnKey&, std::unique_ptr<BridgeConn>& conn) {
    flushing.push_back(conn.get());
  });
  std::sort(flushing.begin(), flushing.end(),
            [](const BridgeConn* a, const BridgeConn* b) {
              return a->key() < b->key();
            });
  for (BridgeConn* conn : flushing) conn->on_secondary_failed();
}

}  // namespace tfo::core
