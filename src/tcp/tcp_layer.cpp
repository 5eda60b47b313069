#include "tcp/tcp_layer.hpp"

#include <algorithm>
#include <string>

#include "common/assert.hpp"
#include "common/logging.hpp"
#include "ip/icmp.hpp"

namespace tfo::tcp {

TcpLayer::TcpLayer(sim::Simulator& sim, ip::IpLayer& ip, TcpParams params,
                   std::uint64_t seed)
    : sim_(sim),
      ip_(ip),
      params_(params),
      rng_(seed),
      challenge_timer_(sim) {
  isn_secret_ = rng_.next_u64();
  ip_.register_protocol(ip::Proto::kTcp,
                        [this](const ip::IpDatagram& d, const ip::RxMeta& m) {
                          on_datagram(d, m);
                        });
  ip_.register_protocol(ip::Proto::kIcmp,
                        [this](const ip::IpDatagram& d, const ip::RxMeta& m) {
                          on_icmp(d, m);
                        });
}

void TcpLayer::set_observability(obs::Hub* hub) {
  obs_ = hub;
  if (!hub) {
    ctr_segments_sent_ = ctr_segments_received_ = ctr_segments_malformed_ = nullptr;
    ctr_rst_sent_ = ctr_conns_opened_ = ctr_conns_accepted_ = nullptr;
    ctr_ooo_budget_drops_ = nullptr;
    ctr_listen_overflows_ = ctr_tw_recycled_ = nullptr;
    ctr_remote_rekeys_ = ctr_migrates_rejected_ = nullptr;
    ctr_challenge_acks_ = ctr_challenge_limited_ = ctr_icmp_rejected_ = nullptr;
    gau_connections_ = gau_pinned_bytes_ = nullptr;
    for (auto& [port, l] : listeners_) l.ctr_accepted = l.ctr_overflows = nullptr;
    return;
  }
  auto& reg = hub->registry;
  ctr_segments_sent_ = &reg.counter("tcp.segments_sent");
  ctr_segments_received_ = &reg.counter("tcp.segments_received");
  ctr_segments_malformed_ = &reg.counter("tcp.segments_malformed");
  ctr_rst_sent_ = &reg.counter("tcp.rst_sent");
  ctr_conns_opened_ = &reg.counter("tcp.connections_opened");
  ctr_conns_accepted_ = &reg.counter("tcp.connections_accepted");
  ctr_ooo_budget_drops_ = &reg.counter("tcp.ooo_dropped_budget");
  ctr_listen_overflows_ = &reg.counter("tcp.listen_overflows");
  ctr_tw_recycled_ = &reg.counter("tcp.time_wait_recycled");
  ctr_remote_rekeys_ = &reg.counter("tcp.remote_rekeys");
  ctr_migrates_rejected_ = &reg.counter("tcp.migrates_rejected");
  ctr_challenge_acks_ = &reg.counter("tcp.challenge_acks");
  ctr_challenge_limited_ = &reg.counter("tcp.challenge_acks_limited");
  ctr_icmp_rejected_ = &reg.counter("tcp.icmp_rejected");
  gau_connections_ = &reg.gauge("tcp.connections");
  gau_pinned_bytes_ = &reg.gauge("tcp.conn_bytes_pinned");
  gau_pinned_bytes_->set(pinned_bytes_);
  // Listeners created before the hub was attached get their per-port
  // counters now (apps::Host wires observability after construction, but
  // tests may listen() first).
  for (auto& [port, l] : listeners_) resolve_listener_counters(port, l);
}

void TcpLayer::resolve_listener_counters(std::uint16_t port, Listener& l) {
  if (!obs_) return;
  const std::string prefix = "tcp.listen." + std::to_string(port);
  l.ctr_accepted = &obs_->registry.counter(prefix + ".accepted");
  l.ctr_overflows = &obs_->registry.counter(prefix + ".overflows");
}

const TcpParams* TcpLayer::params_snapshot() {
  if (params_snapshots_.empty() || *params_snapshots_.back() != params_) {
    params_snapshots_.push_back(std::make_unique<const TcpParams>(params_));
  }
  return params_snapshots_.back().get();
}

void TcpLayer::note_pinned_delta(std::int64_t delta) {
  pinned_bytes_ += delta;
  if (gau_pinned_bytes_) gau_pinned_bytes_->set(pinned_bytes_);
}

void TcpLayer::note_ooo_budget_drop() {
  if (ctr_ooo_budget_drops_) ctr_ooo_budget_drops_->inc();
}

bool TcpLayer::approve_challenge_ack(Connection& conn) {
  // Lazy per-connection refresh: a connection that last challenged in an
  // older interval gets a fresh budget, without any per-connection timer.
  if (conn.challenge_epoch_ != challenge_epoch_) {
    conn.challenge_epoch_ = challenge_epoch_;
    conn.challenge_used_ = 0;
  }
  if (challenge_global_used_ >= params_.challenge_ack_limit ||
      conn.challenge_used_ >= params_.challenge_ack_per_conn) {
    if (ctr_challenge_limited_) ctr_challenge_limited_->inc();
    return false;
  }
  ++challenge_global_used_;
  ++conn.challenge_used_;
  if (ctr_challenge_acks_) ctr_challenge_acks_->inc();
  // One wheel slot per busy interval: armed on the interval's first
  // challenge, idle otherwise.
  if (!challenge_timer_.armed()) {
    challenge_timer_.start(params_.challenge_ack_interval, [this] {
      ++challenge_epoch_;
      challenge_global_used_ = 0;
    });
  }
  return true;
}

void TcpLayer::on_icmp(const ip::IpDatagram& dgram, const ip::RxMeta& meta) {
  (void)meta;
  const auto msg = ip::IcmpMessage::parse(dgram.payload);
  if (!msg || msg->type != ip::kIcmpDestUnreachable ||
      msg->code != ip::kIcmpFragNeeded || msg->quoted_proto != 6) {
    if (msg && ctr_icmp_rejected_) ctr_icmp_rejected_->inc();
    return;
  }
  // The quoted datagram is one *we* sent, so its source is our local end:
  // demux on {quoted src, quoted src port, quoted dst, quoted dst port}.
  const ConnKey key{msg->quoted_src, msg->quoted_src_port, msg->quoted_dst,
                    msg->quoted_dst_port};
  const auto conn = find(key);
  if (!conn ||
      !conn->on_icmp_frag_needed(static_cast<Seq32>(msg->quoted_seq), msg->mtu)) {
    // No such connection, or the quoted sequence number is not in flight:
    // a stale message or an off-path forgery. Never act on it.
    if (ctr_icmp_rejected_) ctr_icmp_rejected_->inc();
    TFO_LOG(kDebug, "tcp") << "ICMP frag-needed rejected for " << key.str();
    return;
  }
}

Seq32 TcpLayer::generate_isn(const ConnKey& key) {
  if (forced_isn_) {
    const Seq32 isn = *forced_isn_;
    forced_isn_.reset();
    return isn;
  }
  // RFC 6528: ISN = M + F(4-tuple, secret). M is a ~1µs-tick clock, so a
  // reconnect on a recycled 4-tuple always carries an ISN strictly above
  // anything the previous incarnation could have sent — the monotonicity
  // the TIME_WAIT recycle check compares against. F is constant per
  // tuple, so it cancels in that comparison.
  const std::uint64_t clock = sim_.now() >> 10;
  std::uint64_t f = ConnKeyHash{}(key) ^ isn_secret_;
  f *= 0x2545F4914F6CDD1Dull;
  f ^= f >> 32;
  return static_cast<Seq32>(clock + f);
}

std::uint16_t TcpLayer::allocate_ephemeral_port() {
  // Deterministic allocation: replicated applications performing the same
  // active opens in the same order get the same ports on both replicas
  // (required for §7.2 server-initiated failover connections).
  const int span = eph_hi_ - eph_lo_ + 1;
  for (int i = 0; i < span; ++i) {
    const std::uint16_t port = next_ephemeral_;
    next_ephemeral_ = next_ephemeral_ >= eph_hi_ ? eph_lo_ : next_ephemeral_ + 1;
    // Probe only — a scan over the port space must not populate the map
    // with dead zero entries (find, never operator[]).
    if (!listeners_.contains(port) && port_use_.find_value(port) == nullptr) {
      return port;
    }
  }
  // Exhausted: fail the allocation like EADDRNOTAVAIL. Under churn this
  // is a load signal, not a programming error — TIME_WAIT recycling and
  // 2MSL expiry will free ports for later connects.
  TFO_LOG(kDebug, "tcp") << "ephemeral port space exhausted";
  return 0;
}

void TcpLayer::insert_conn(const ConnKey& key, std::shared_ptr<Connection> conn) {
  auto r = conns_.try_emplace(key);
  if (r.second) ++*port_use_.try_emplace(key.local_port, 0u).first;
  *r.first = std::move(conn);
  if (gau_connections_) gau_connections_->set(static_cast<std::int64_t>(conns_.size()));
}

void TcpLayer::release_port(std::uint16_t port) {
  if (auto* n = port_use_.find_value(port)) {
    if (--*n == 0) port_use_.erase(port);
  }
}

void TcpLayer::listen(std::uint16_t port, AcceptHandler on_accept, SocketOptions opts) {
  Listener l{std::make_shared<const AcceptHandler>(std::move(on_accept)), opts};
  resolve_listener_counters(port, l);
  listeners_[port] = std::move(l);
}

void TcpLayer::close_listener(std::uint16_t port) { listeners_.erase(port); }

bool TcpLayer::listener_is_failover(std::uint16_t port) const {
  auto it = listeners_.find(port);
  return it != listeners_.end() && it->second.opts.failover;
}

std::shared_ptr<Connection> TcpLayer::connect(ip::Ipv4 remote_ip,
                                              std::uint16_t remote_port,
                                              SocketOptions opts,
                                              std::uint16_t local_port) {
  ConnKey key;
  key.local_ip = ip_.address();
  key.local_port = local_port != 0 ? local_port : allocate_ephemeral_port();
  if (key.local_port == 0) return nullptr;  // ephemeral space exhausted
  key.remote_ip = remote_ip;
  key.remote_port = remote_port;
  auto conn = std::make_shared<Connection>(*this, key, params_snapshot(), opts.failover);
  if (opts.nodelay) conn->set_nodelay(true);
  insert_conn(key, conn);
  if (ctr_conns_opened_) ctr_conns_opened_->inc();
  conn->start_active_open();
  return conn;
}

std::shared_ptr<Connection> TcpLayer::find(const ConnKey& key) const {
  const auto* v = conns_.find_value(key);
  return v == nullptr ? nullptr : *v;
}

TapId TcpLayer::add_outbound_tap(OutboundTap tap) {
  const TapId id = next_tap_id_++;
  out_taps_.emplace_back(id, std::move(tap));
  return id;
}

TapId TcpLayer::add_inbound_tap(InboundTap tap) {
  const TapId id = next_tap_id_++;
  in_taps_.emplace_back(id, std::move(tap));
  return id;
}

void TcpLayer::remove_tap(TapId id) {
  auto drop = [id](auto& vec) {
    vec.erase(std::remove_if(vec.begin(), vec.end(),
                             [id](const auto& p) { return p.first == id; }),
              vec.end());
  };
  drop(out_taps_);
  drop(in_taps_);
}

void TcpLayer::send_segment(TcpSegment seg, ip::Ipv4 src, ip::Ipv4 dst) {
  for (auto& [id, tap] : out_taps_) {
    switch (tap(seg, src, dst)) {
      case TapVerdict::kContinue: break;
      case TapVerdict::kConsume: return;
      case TapVerdict::kDrop: return;
    }
  }
  send_segment_raw(std::move(seg), src, dst);
}

void TcpLayer::send_segment_raw(TcpSegment seg, ip::Ipv4 src, ip::Ipv4 dst) {
  if (ctr_segments_sent_) ctr_segments_sent_->inc();
  // take_wire prepends the TCP header into the payload's headroom — in
  // place whenever this call owns the payload storage exclusively.
  ip_.send(ip::Proto::kTcp, src, dst, seg.take_wire(src, dst));
}

std::vector<std::shared_ptr<Connection>> TcpLayer::rekey_local_address(
    ip::Ipv4 from, ip::Ipv4 to, const std::function<bool(const Connection&)>& filter) {
  // Collect-then-move: FlatMap iterators do not survive erase, and the
  // move order must not depend on hash-table slot order. Sorting by the
  // stable connection id keeps the rekey deterministic.
  std::vector<std::shared_ptr<Connection>> moved;
  conns_.for_each([&](const ConnKey& key, const std::shared_ptr<Connection>& conn) {
    if (key.local_ip == from && (!filter || filter(*conn))) moved.push_back(conn);
  });
  std::sort(moved.begin(), moved.end(),
            [](const auto& a, const auto& b) { return a->id() < b->id(); });
  for (const auto& conn : moved) {
    const ConnKey old_key = conn->key();
    if (conns_.erase(old_key)) release_port(old_key.local_port);
    conn->rebind_local_ip(to);
    insert_conn(conn->key(), conn);
  }
  return moved;
}

void TcpLayer::migrate_local_address(ip::Ipv4 from, ip::Ipv4 to) {
  // Announce only after every connection is rekeyed — the ACKs go through
  // taps and may re-enter the demux tables.
  for (const auto& conn : rekey_local_address(from, to)) conn->begin_migration(from);
}

void TcpLayer::connection_closed(const ConnKey& key, std::uint64_t id) {
  // Deferred: the connection may be deep in its own call stack. The
  // (key, id) pair waits in closed_; the event captures only `this`, so
  // it fits std::function's inline buffer. Every erase is scheduled with
  // the same zero delay and events at one time run in schedule order, so
  // each event's entry is the FIFO's front.
  closed_.emplace_back(key, id);
  sim_.schedule_after(0, [this] { erase_closed(); });
}

void TcpLayer::erase_closed() {
  const auto [key, id] = closed_[closed_head_++];
  if (closed_head_ == closed_.size()) {
    closed_.clear();
    closed_head_ = 0;
  } else if (2 * closed_head_ >= closed_.size()) {
    closed_.erase(closed_.begin(),
                  closed_.begin() + static_cast<std::ptrdiff_t>(closed_head_));
    closed_head_ = 0;
  }
  // The id check guards against ABA — if TIME_WAIT recycling (or any
  // same-tick reconnect) re-populated this 4-tuple before the erase runs,
  // the slot now holds a different, live connection that must survive.
  const auto* v = conns_.find_value(key);
  if (v == nullptr || (*v)->id() != id) return;
  conns_.erase(key);
  release_port(key.local_port);
  if (gau_connections_) gau_connections_->set(static_cast<std::int64_t>(conns_.size()));
}

void TcpLayer::note_embryonic_done(std::uint16_t port) {
  auto it = listeners_.find(port);
  if (it != listeners_.end() && it->second.pending > 0) --it->second.pending;
}

void TcpLayer::on_datagram(const ip::IpDatagram& dgram, const ip::RxMeta& meta) {
  auto parsed = TcpSegment::parse(dgram.payload, dgram.src, dgram.dst);
  if (!parsed) {
    TFO_LOG(kDebug, "tcp") << "segment dropped (bad checksum or malformed)";
    if (ctr_segments_malformed_) ctr_segments_malformed_->inc();
    return;
  }
  if (ctr_segments_received_) ctr_segments_received_->inc();
  TcpSegment seg = std::move(*parsed);
  ip::Ipv4 src = dgram.src;
  ip::Ipv4 dst = dgram.dst;

  for (auto& [id, tap] : in_taps_) {
    switch (tap(seg, src, dst, meta)) {
      case TapVerdict::kContinue: break;
      case TapVerdict::kConsume: return;
      case TapVerdict::kDrop: return;
    }
  }

  ConnKey key{dst, seg.dst_port, src, seg.src_port};
  if (auto* connp = conns_.find_value(key)) {
    // Hold a reference: recycling erases the table slot under us.
    std::shared_ptr<Connection> conn = *connp;
    if (maybe_recycle_time_wait(conn, seg)) {
      handle_for_listener(seg, src, dst);
      return;
    }
    conn->handle_segment(seg);
    return;
  }
  if (seg.migrate_from.has_value() && !seg.syn() && !seg.rst()) {
    // Mosh-style client mobility: the sender claims to be the peer of an
    // existing connection, moved to a new address. Accept only when the
    // old connection exists and the segment is sequence-plausible for it
    // — an off-path forger must guess the sequence number to steal the
    // address binding (same reasoning as the RFC 5961 gates). RSTs never
    // migrate (a reset that first re-binds the address would make blind
    // teardown trivial); SYNs are simply new connections.
    const ConnKey old_key{dst, seg.dst_port, *seg.migrate_from, seg.src_port};
    if (auto* oldp = conns_.find_value(old_key)) {
      std::shared_ptr<Connection> conn = *oldp;
      constexpr std::int32_t kSlack = 2 * 65536;
      const std::int32_t rel = seq_diff(seg.seq, conn->rcv_nxt_abs());
      if (conn->state() != TcpState::kSynSent && rel >= -kSlack && rel <= kSlack) {
        conns_.erase(old_key);
        conn->rebind_remote_ip(src);
        insert_conn(key, conn);
        if (ctr_remote_rekeys_) ctr_remote_rekeys_->inc();
        if (obs_) {
          obs_->timeline.record(sim_.now(), obs::EventKind::kClientMigrated,
                                key, "from=" + seg.migrate_from->str());
        }
        TFO_LOG(kInfo, "tcp") << old_key.str() << " remote migrated to "
                              << src.str();
        conn->handle_segment(seg);
        return;
      }
      // Implausible: drop without disturbing the old connection (and
      // without a RST, which would name the *new* address's tuple).
      if (ctr_migrates_rejected_) ctr_migrates_rejected_->inc();
      return;
    }
  }
  if (seg.syn() && !seg.has_ack()) {
    handle_for_listener(seg, src, dst);
    return;
  }
  if (!seg.rst()) send_rst_for(seg, src, dst);
}

bool TcpLayer::maybe_recycle_time_wait(const std::shared_ptr<Connection>& conn,
                                       const TcpSegment& seg) {
  // BSD-style recycling on the listening side only: a fresh SYN for a
  // 4-tuple parked in TIME_WAIT may cut 2MSL short iff its ISN is
  // strictly newer than everything the previous incarnation acknowledged
  // — then no old segment can fall inside the new receive window, which
  // is the whole point of the quiet period. RFC 6528 ISNs make the
  // criterion hold for every genuine reconnect; old duplicate SYNs fail
  // it and fall through to the RFC 1337 handling in the connection.
  if (!seg.syn() || seg.has_ack()) return false;
  if (!listeners_.contains(seg.dst_port)) return false;
  if (!conn->syn_recycles_time_wait(seg.seq)) return false;
  if (ctr_tw_recycled_) ctr_tw_recycled_->inc();
  TFO_LOG(kDebug, "tcp") << conn->key().str() << " TIME_WAIT recycled by newer SYN";
  // Evict synchronously so the listener path can claim the 4-tuple now;
  // the teardown's own deferred erase is id-guarded and becomes a no-op.
  const ConnKey key = conn->key();
  if (conns_.erase(key)) release_port(key.local_port);
  if (gau_connections_) gau_connections_->set(static_cast<std::int64_t>(conns_.size()));
  conn->teardown(CloseReason::kGraceful);
  return true;
}

void TcpLayer::handle_for_listener(const TcpSegment& seg, ip::Ipv4 src, ip::Ipv4 dst) {
  auto it = listeners_.find(seg.dst_port);
  if (it == listeners_.end()) {
    send_rst_for(seg, src, dst);
    return;
  }
  Listener& l = it->second;
  const std::uint32_t backlog =
      l.opts.backlog != 0 ? l.opts.backlog : params_.listen_backlog;
  if (l.pending >= backlog) {
    // Listen queue full: drop the SYN silently, exactly like a real stack
    // under a burst — no RST, the client's SYN retransmission retries
    // after the queue drains. Allocating anyway would let a SYN flood
    // grow the connection table without bound.
    if (ctr_listen_overflows_) ctr_listen_overflows_->inc();
    if (l.ctr_overflows) l.ctr_overflows->inc();
    TFO_LOG(kDebug, "tcp") << "listen backlog full on port " << seg.dst_port
                           << ", SYN dropped";
    return;
  }
  ++l.pending;
  ConnKey key{dst, seg.dst_port, src, seg.src_port};
  auto conn = std::make_shared<Connection>(*this, key, params_snapshot(), l.opts.failover);
  if (l.opts.nodelay) conn->set_nodelay(true);
  conn->embryonic_ = true;  // charged to the listener's backlog
  insert_conn(key, conn);
  if (ctr_conns_accepted_) ctr_conns_accepted_->inc();
  if (l.ctr_accepted) l.ctr_accepted->inc();
  // The connection reaches the application through accept_established
  // once it completes the handshake; it holds no copy of the handler.
  conn->start_passive_open(seg);
}

void TcpLayer::accept_established(Connection& conn) {
  auto it = listeners_.find(conn.key().local_port);
  if (it == listeners_.end()) {
    // The listener closed while this connection was in SYN_RCVD. Like a
    // stack that drops its SYN queue with the listening socket, reset it:
    // no application would own it.
    TFO_LOG(kDebug, "tcp") << conn.key().str()
                           << " established after its listener closed: reset";
    conn.abort();
    return;
  }
  // Pinned for the call: the handler may close its own listener (an FTP
  // client's one-shot data listener does), which destroys the Listener.
  const std::shared_ptr<const AcceptHandler> handler = it->second.on_accept;
  const auto* c = conns_.find_value(conn.key());
  TFO_ASSERT(c != nullptr && c->get() == &conn, "established connection not in the table");
  // BSD semantics: accept returns an ESTABLISHED socket.
  if (*handler) (*handler)(*c);
}

void TcpLayer::send_rst_for(const TcpSegment& seg, ip::Ipv4 src, ip::Ipv4 dst) {
  TcpSegment rst;
  rst.src_port = seg.dst_port;
  rst.dst_port = seg.src_port;
  rst.flags = Flags::kRst;
  if (seg.has_ack()) {
    rst.seq = seg.ack;
  } else {
    rst.flags |= Flags::kAck;
    rst.seq = 0;
    rst.ack = seq_add(seg.seq, seg.seg_len());
  }
  TFO_LOG(kDebug, "tcp") << "RST for stray segment " << seg.summary();
  if (ctr_rst_sent_) ctr_rst_sent_->inc();
  send_segment(std::move(rst), dst, src);
}

}  // namespace tfo::tcp
