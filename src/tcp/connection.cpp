#include "tcp/connection.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/logging.hpp"
#include "tcp/tcp_layer.hpp"

namespace tfo::tcp {

const char* state_name(TcpState s) {
  switch (s) {
    case TcpState::kSynSent: return "SYN_SENT";
    case TcpState::kSynRcvd: return "SYN_RCVD";
    case TcpState::kEstablished: return "ESTABLISHED";
    case TcpState::kFinWait1: return "FIN_WAIT_1";
    case TcpState::kFinWait2: return "FIN_WAIT_2";
    case TcpState::kCloseWait: return "CLOSE_WAIT";
    case TcpState::kClosing: return "CLOSING";
    case TcpState::kLastAck: return "LAST_ACK";
    case TcpState::kTimeWait: return "TIME_WAIT";
    case TcpState::kClosed: return "CLOSED";
  }
  return "?";
}

Connection::Connection(TcpLayer& owner, ConnKey key, const TcpParams* params,
                       bool failover_flagged)
    : owner_(owner),
      params_(params),
      id_(owner.allocate_conn_id()),
      rto_(params_->initial_rto),
      timer_(owner.simulator()),
      delack_timer_(owner.simulator()),
      key_(key),
      eff_mss_(params_->mss),
      failover_flagged_(failover_flagged),
      nodelay_(!params_->nagle) {
  cwnd_ = params_->congestion_control
              ? params_->initial_cwnd_segments * params_->mss
              : 0x3fffffffu;
  quickack_left_ = static_cast<std::uint16_t>(std::max(params_->quickack_segments, 0));
}

Connection::~Connection() { release_all_ooo(); }

// --------------------------------------------- out-of-order stash budget

bool Connection::stash_ooo(std::uint64_t off, wire::PacketBuffer data) {
  if (ooo_bytes_ + data.size() > params_->ooo_budget_bytes) {
    // Over budget: refuse to pin another frame. The caller still sends
    // the dup-ACK, and the sender's retransmission recovers the data.
    owner_.note_ooo_budget_drop();
    return false;
  }
  const std::size_t n = data.size();
  if (!ooo_) ooo_ = std::make_unique<OooMap>();
  if (ooo_->emplace(off, std::move(data)).second) {
    ooo_bytes_ += static_cast<std::uint32_t>(n);
    owner_.note_pinned_delta(static_cast<std::int64_t>(n));
  }
  return true;
}

Connection::OooMap::iterator Connection::drop_ooo_entry(OooMap::iterator it) {
  const std::size_t n = it->second.size();
  ooo_bytes_ -= static_cast<std::uint32_t>(n);
  owner_.note_pinned_delta(-static_cast<std::int64_t>(n));
  return ooo_->erase(it);
}

void Connection::release_all_ooo() {
  if (ooo_bytes_ > 0) owner_.note_pinned_delta(-static_cast<std::int64_t>(ooo_bytes_));
  ooo_bytes_ = 0;
  ooo_.reset();
}

std::size_t Connection::send_queue_pending() const {
  std::size_t n = 0;
  if (app_writes_) {
    for (const auto& w : *app_writes_) n += w.data.size() - w.moved;
  }
  return n;
}

std::size_t Connection::buffer_capacity() const {
  return send_buf_.capacity() + rx_buf_.capacity() +
         (app_writes_ ? app_writes_->capacity() * sizeof(PendingWrite) : 0);
}

Connection::Info Connection::info() const {
  return {stat_timeouts_, stat_fast_retransmits_, stat_segments_sent_,
          stat_segments_received_, srtt_, rto_, cwnd_, ssthresh_, snd_wnd_, in_flight()};
}

// --------------------------------------------------------------- opening

void Connection::start_active_open() {
  iss_ = owner_.generate_isn(key_);
  snd_una_ = 0;
  snd_nxt_ = 0;
  set_state(TcpState::kSynSent);
  send_syn(/*with_ack=*/false);
}

void Connection::start_passive_open(const TcpSegment& syn) {
  TFO_ASSERT(syn.syn(), "passive open requires a SYN segment");
  iss_ = owner_.generate_isn(key_);
  take_peer_syn(syn);
  set_state(TcpState::kSynRcvd);
  send_syn(/*with_ack=*/true);
}

void Connection::take_peer_syn(const TcpSegment& syn) {
  irs_ = syn.seq;
  rcv_nxt_ = 1;  // the SYN consumed offset 0
  if (syn.mss) eff_mss_ = std::min<std::uint32_t>(params_->mss, *syn.mss);
  snd_wnd_ = syn.window;
  max_snd_wnd_ = std::max(max_snd_wnd_, snd_wnd_);
  wl1_ = irs_;  // window updates start from offset 0 in both directions
  wl2_ = iss_;
}

void Connection::send_syn(bool with_ack) {
  TcpSegment seg = segment_at(0, with_ack ? Flags::kSyn | Flags::kAck : Flags::kSyn);
  seg.mss = params_->mss;
  snd_nxt_ = std::max<std::uint64_t>(snd_nxt_, 1);  // SYN occupies offset 0
  highest_sent_ = std::max(highest_sent_, snd_nxt_);
  last_adv_wnd_ = seg.window;
  emit(std::move(seg));
  arm_rto();
}

// ------------------------------------------------------------ app calls

void Connection::send(Bytes data, std::function<void()> on_accepted) {
  if (state_ == TcpState::kClosed || fin_queued_) {
    TFO_LOG(kWarn, "tcp") << key_.str() << " send() on closed/closing connection";
    return;
  }
  const SimTime now = owner_.simulator().now();
  if (writes_queued()) {
    app_writes_->push_back({std::move(data), 0, std::move(on_accepted), now});
    pump_app_writes();
  } else {
    // Nothing queued ahead: what fits goes straight into the send buffer,
    // and only an unaccepted remainder becomes a PendingWrite (whose
    // capacity would otherwise stay with the connection until teardown).
    const std::size_t take = std::min(send_space(), data.size());
    if (take > 0) send_buf_.append(BytesView(data).first(take));
    if (take == data.size()) {
      accepted(now, data.size(), std::move(on_accepted));
    } else {
      if (!app_writes_) app_writes_ = std::make_unique<std::vector<PendingWrite>>();
      app_writes_->push_back({std::move(data), take, std::move(on_accepted), now});
    }
  }
  try_send();
}

std::size_t Connection::recv(Bytes& out, std::size_t max) {
  const std::size_t n = std::min(max, rx_buf_.size());
  rx_buf_.append_to(out, n);
  rx_buf_.consume(n);
  if (n > 0) on_window_open();
  return n;
}

void Connection::close() {
  switch (state_) {
    case TcpState::kSynSent:
      // BSD semantics: complete the handshake, flush queued data, then
      // FIN. Tearing down here would silently discard pending writes.
      if (!writes_queued() && send_buf_.empty()) {
        teardown(CloseReason::kGraceful);
      } else {
        close_requested_ = true;
      }
      return;
    case TcpState::kSynRcvd:
    case TcpState::kEstablished:
      leave_embryonic();  // closing out of SYN_RCVD frees the backlog slot
      fin_queued_ = true;
      set_state(TcpState::kFinWait1);
      try_send();
      return;
    case TcpState::kCloseWait:
      fin_queued_ = true;
      set_state(TcpState::kLastAck);
      try_send();
      return;
    default:
      return;  // already closing/closed
  }
}

void Connection::abort() {
  if (state_ != TcpState::kClosed && state_ != TcpState::kTimeWait) send_rst();
  teardown(CloseReason::kAborted);
}

// ---------------------------------------------------------- send engine

void Connection::pump_app_writes() {
  if (!app_writes_) return;
  // Callbacks are deferred, never run here, so nothing pushes onto the
  // queue mid-loop; the finished prefix is erased once at the end.
  std::vector<PendingWrite>& writes = *app_writes_;
  std::size_t done = 0;
  for (; done < writes.size(); ++done) {
    PendingWrite& w = writes[done];
    const std::size_t take = std::min(send_space(), w.data.size() - w.moved);
    if (take > 0) {
      send_buf_.append(BytesView(w.data).subspan(w.moved, take));
      w.moved += take;
    }
    if (w.moved != w.data.size()) break;  // buffer full
    accepted(w.enqueued_at, w.data.size(), std::move(w.on_accepted));
  }
  writes.erase(writes.begin(), writes.begin() + static_cast<long>(done));
}

std::size_t Connection::send_space() const {
  return params_->send_buf > send_buf_.size() ? params_->send_buf - send_buf_.size() : 0;
}

void Connection::accepted(SimTime enqueued_at, std::size_t size,
                          std::function<void()> on_accepted) {
  if (!on_accepted) return;
  // Completion happens no earlier than the user→kernel copy of the whole
  // message would take (Figure 3's sub-buffer slope), and is always
  // deferred so it cannot re-enter try_send mid-flight.
  const SimTime copy_done =
      enqueued_at + static_cast<SimTime>(params_->send_copy_ns_per_byte) * size;
  owner_.simulator().schedule_at(std::max(copy_done, owner_.simulator().now()),
                                 std::move(on_accepted));
}

std::uint32_t Connection::usable_window() const {
  const std::uint32_t wnd = std::min<std::uint32_t>(snd_wnd_, cwnd_);
  const std::uint32_t flight = in_flight();
  return wnd > flight ? wnd - flight : 0;
}

bool Connection::fin_ready_at(std::uint64_t offset) const {
  // Our FIN goes on the wire once every buffered byte precedes `offset`.
  return fin_queued_ && offset == send_base_ + send_buf_.size() && !writes_queued();
}

TcpSegment Connection::segment_at(std::uint64_t offset, std::uint8_t flags) const {
  TcpSegment seg;
  seg.src_port = key_.local_port;
  seg.dst_port = key_.remote_port;
  seg.seq = snd_seq(offset);
  seg.flags = flags;
  if (flags & Flags::kAck) seg.ack = rcv_nxt_abs();
  seg.window = static_cast<std::uint16_t>(std::min<std::size_t>(recv_room(), 65535));
  return seg;
}

TcpSegment Connection::data_segment(std::uint64_t offset, std::uint32_t len) const {
  TcpSegment seg = segment_at(offset, Flags::kAck);
  seg.payload = wire::PacketBuffer::alloc(len);
  send_buf_.copy_out(static_cast<std::size_t>(offset - send_base_), len,
                     seg.payload.mutable_data());
  if (offset + len == fin_offset_) seg.flags |= Flags::kFin;
  return seg;
}

void Connection::try_send() {
  if (state_ == TcpState::kClosed || state_ == TcpState::kTimeWait ||
      state_ == TcpState::kSynSent || state_ == TcpState::kSynRcvd) {
    return;
  }
  for (;;) {
    const std::uint64_t buffered_end = send_base_ + send_buf_.size();
    std::uint64_t avail = buffered_end > snd_nxt_ ? buffered_end - snd_nxt_ : 0;
    const bool fin_now = fin_ready_at(snd_nxt_ + avail) && fin_offset_ == kNoOffset;
    if (avail == 0 && !fin_now) break;

    std::uint32_t win = usable_window();
    if (win == 0) {
      // A closed window with nothing in flight: the RTO timer probes it.
      if (in_flight() == 0 && !rto_pending()) arm_rto();
      break;
    }

    std::uint32_t len = static_cast<std::uint32_t>(
        std::min<std::uint64_t>({avail, eff_mss_, win}));

    // Nagle: hold small segments while data is in flight.
    if (!nodelay_ && len < eff_mss_ && in_flight() > 0 && !fin_now &&
        len == avail) {
      break;
    }
    if (len == 0 && !fin_now) break;

    if (len == avail && fin_ready_at(snd_nxt_ + len)) fin_offset_ = snd_nxt_ + len;
    TcpSegment seg = data_segment(snd_nxt_, len);
    snd_nxt_ += seg.seg_len();
    if (snd_nxt_ > highest_sent_) highest_sent_ = snd_nxt_;
    if (snd_nxt_ == buffered_end + (fin_offset_ != kNoOffset ? 1 : 0)) seg.flags |= Flags::kPsh;
    last_adv_wnd_ = seg.window;
    bytes_sent_total_ += len;

    if (!rtt_measuring_) {
      rtt_measuring_ = true;
      rtt_offset_ = snd_nxt_;
      rtt_start_ = owner_.simulator().now();
    }
    emit(std::move(seg));
    segs_since_ack_ = 0;
    delack_timer_.stop();  // the ACK rode along
    // Data sent within a delayed-ACK interval of data received is a reply:
    // the connection is interactive, and its replies carry its ACKs
    // (schedule_ack stops quick-ACKing until a delayed ACK goes unanswered).
    if (len > 0 && bytes_received_total() > 0 &&
        static_cast<SimDuration>(owner_.simulator().now() - last_data_rx_) <
            params_->delayed_ack) {
      pingpong_ = true;
    }
    if (!rto_pending()) arm_rto();
  }
}

void Connection::emit(TcpSegment seg) {
  if (migration_pending()) seg.migrate_from = migrate_pending_from_;
  ++stat_segments_sent_;
  TFO_LOG(kTrace, "tcp") << key_.str() << " [" << state_name(state_) << "] tx "
                         << seg.summary();
  owner_.send_segment(std::move(seg), key_.local_ip, key_.remote_ip);
}

void Connection::send_ack_now() {
  TcpSegment seg = segment_at(snd_nxt_, Flags::kAck);
  last_adv_wnd_ = seg.window;
  segs_since_ack_ = 0;
  delack_timer_.stop();
  emit(std::move(seg));
}

void Connection::send_challenge_ack() {
  if (!owner_.approve_challenge_ack(*this)) return;
  send_ack_now();
}

bool Connection::on_icmp_frag_needed(Seq32 quoted_seq, std::uint32_t claimed_mtu) {
  // The quoted segment must be one of ours and still in flight: its
  // sequence number must fall in [SND.UNA, SND.NXT). An off-path forger
  // does not know our sequence space (RFC 6528 keyed ISNs), so this is
  // the same guessing problem as a blind RST.
  const std::int64_t off = snd_offset(quoted_seq);
  if (off < static_cast<std::int64_t>(snd_una_) ||
      off >= static_cast<std::int64_t>(snd_nxt_)) {
    return false;
  }
  // Clamp the claimed next-hop MTU at the RFC 1191 floor so even a valid
  // (or lucky) message cannot collapse the MSS to a sliver, then shrink —
  // never grow — the effective MSS. 40 = IP + TCP header bytes.
  const std::uint32_t mtu =
      std::max<std::uint32_t>(claimed_mtu, params_->min_pmtu);
  const std::uint32_t new_mss = mtu - 40;
  if (new_mss < eff_mss_) {
    TFO_LOG(kDebug, "tcp") << key_.str() << " PMTU update: eff_mss "
                           << eff_mss_ << " -> " << new_mss;
    eff_mss_ = new_mss;
  }
  return true;
}

void Connection::send_rst() {
  TcpSegment seg = segment_at(snd_nxt_, Flags::kRst | Flags::kAck);
  seg.window = 0;
  emit(std::move(seg));
}

void Connection::schedule_ack() {
  // Linux's delayed-ACK "pingpong" mode: a connection that replies to what
  // it receives takes no quick-ACKs, so its ACK waits for the reply (or
  // the timer) instead of going out as a segment of its own. A bulk
  // receiver never replies and keeps its initial quick-ACKs.
  if (quickack_left_ > 0 && !pingpong_) {
    --quickack_left_;
    send_ack_now();
    return;
  }
  ++segs_since_ack_;
  if (segs_since_ack_ >= params_->ack_every_segments) {
    send_ack_now();
  } else if (!delack_timer_.armed()) {
    delack_timer_.start(params_->delayed_ack, [this] {
      pingpong_ = false;  // no reply came in time: the exchange is over
      send_ack_now();
    });
  }
}

// -------------------------------------------------------- retransmission

void Connection::arm_rto() {
  keepalive_due_ = false;
  timer_.start(rto_, [this] { on_timer(); });
}

void Connection::stop_rto() {
  timer_.stop();
  arm_keepalive();
}

void Connection::on_timer() {
  if (state_ == TcpState::kTimeWait) {
    teardown(CloseReason::kGraceful);
  } else if (keepalive_due_) {
    on_keepalive();
  } else {
    on_rto();
  }
}

void Connection::on_rto() {
  const bool handshake = state_ == TcpState::kSynSent || state_ == TcpState::kSynRcvd;
  // Past the handshake the RTO runs only while data or a FIN is
  // unacknowledged: an ACK that takes SND.UNA to SND.NXT (which
  // process_ack catches up first) stops it.
  TFO_ASSERT(handshake || snd_una_ < send_base_ + send_buf_.size() + (fin_queued_ ? 1 : 0),
             "RTO fired with nothing outstanding");
  if (++retries_ > (handshake ? params_->max_syn_retries : params_->max_retries)) {
    give_up();
    return;
  }
  rto_ = std::min<SimDuration>(rto_ * 2, params_->max_rto);
  if (handshake) {
    send_syn(state_ == TcpState::kSynRcvd);
    return;
  }
  ++stat_timeouts_;
  if (snd_wnd_ == 0 && in_flight() == 0) {
    // Nothing was lost: the peer's window is closed. Probe it, backing
    // off like a retransmission; process_ack counts an answer as progress.
    send_window_probe();
    arm_rto();
    return;
  }
  // Karn: never sample RTT across a retransmission.
  rtt_measuring_ = false;
  // Congestion response to loss.
  if (params_->congestion_control) {
    ssthresh_ = std::max<std::uint32_t>(in_flight() / 2, 2 * eff_mss_);
    cwnd_ = eff_mss_;
  }
  go_back_n();
  if (!rto_pending()) arm_rto();
}

void Connection::go_back_n() {
  // Tahoe-style go-back-N: rewind so the paced output engine refills the
  // whole [snd_una, old snd_nxt) gap (under slow start after an RTO),
  // instead of recovering one segment per timeout.
  snd_nxt_ = snd_una_;
  if (fin_offset_ != kNoOffset && fin_offset_ >= snd_nxt_) {
    fin_offset_ = kNoOffset;  // the FIN will be re-emitted at the right point
  }
  try_send();
}

bool Connection::kick() {
  if (state_ == TcpState::kClosed || state_ == TcpState::kTimeWait) return false;
  if (state_ == TcpState::kSynSent || state_ == TcpState::kSynRcvd) {
    send_syn(state_ == TcpState::kSynRcvd);
    return true;
  }
  const std::uint64_t sent_before = stat_segments_sent_;
  if (snd_una_ < snd_nxt_) {
    // The on_rto() rewind, minus its backoff, cwnd collapse and retry.
    // The new path's state is unknown, so the resend starts from the
    // restart window (RFC 5681 §4.1: min(cwnd, IW)) with ssthresh kept:
    // slow start, clocked by the client's ACKs, sends the rest.
    if (params_->congestion_control) {
      cwnd_ = std::min(cwnd_, params_->initial_cwnd_segments * eff_mss_);
    }
    go_back_n();
    arm_rto();
  }
  if (stat_segments_sent_ == sent_before) send_ack_now();
  // Karn: an ACK of the resent window is ambiguous — the measurement
  // running before the kick and any that try_send() began on a resent
  // segment must both yield no RTT sample.
  rtt_measuring_ = false;
  return true;
}

void Connection::retransmit_head() {
  const std::uint64_t buffered_end = send_base_ + send_buf_.size();
  std::uint32_t len = 0;
  if (snd_una_ < buffered_end) {
    len = static_cast<std::uint32_t>(
        std::min<std::uint64_t>({buffered_end - snd_una_, eff_mss_,
                                 std::max<std::uint32_t>(snd_wnd_, 1)}));
  }
  emit(data_segment(snd_una_, len));
}

void Connection::send_window_probe() {
  // SND.NXT stays put: the ACK of an accepted probe catches it up
  // (process_ack), and a refused byte is the next probe's byte too, so
  // the receiver never takes it twice.
  const bool fin_only = snd_nxt_ == send_base_ + send_buf_.size();
  TcpSegment seg = data_segment(snd_nxt_, fin_only ? 0 : 1);
  if (fin_only) seg.flags |= Flags::kFin;
  highest_sent_ = std::max(highest_sent_, snd_nxt_ + 1);
  emit(std::move(seg));
}

void Connection::give_up() {
  if (state_ != TcpState::kSynSent) send_rst();
  teardown(CloseReason::kTimeout);
}

void Connection::rtt_sample_maybe(std::uint64_t acked_to) {
  if (!rtt_measuring_ || acked_to < rtt_offset_) return;
  rtt_measuring_ = false;
  const SimDuration r =
      static_cast<SimDuration>(owner_.simulator().now() - rtt_start_);
  if (!rtt_valid_) {
    srtt_ = r;
    rttvar_ = r / 2;
    rtt_valid_ = true;
  } else {
    const SimDuration err = srtt_ > r ? srtt_ - r : r - srtt_;
    rttvar_ = (3 * rttvar_ + err) / 4;
    srtt_ = (7 * srtt_ + r) / 8;
  }
  reset_rto();
}

void Connection::reset_rto() {
  rto_ = rtt_valid_ ? std::clamp<SimDuration>(
                          srtt_ + std::max<SimDuration>(4 * rttvar_, milliseconds(1)),
                          params_->min_rto, params_->max_rto)
                    : params_->initial_rto;
}

// ------------------------------------------------------------- inbound

void Connection::handle_segment(const TcpSegment& seg) {
  ++stat_segments_received_;
  // This segment was demultiplexed to our (possibly new) local address:
  // the peer has learned of the migration, stop stamping the option.
  migrate_pending_from_ = ip::Ipv4::any();
  // Any inbound traffic proves the peer is alive: restart the idle clock.
  // While a retransmission is pending, the ACK that stops it restarts it.
  arm_keepalive();
  TFO_LOG(kTrace, "tcp") << key_.str() << " [" << state_name(state_) << "] rx "
                         << seg.summary();

  if (state_ == TcpState::kClosed) return;

  // --- SYN_SENT: expect SYN (ACK of our SYN) per RFC 793 §3.4.
  if (state_ == TcpState::kSynSent) {
    if (seg.rst()) {
      if (seg.has_ack() && seg.ack == snd_seq(1)) teardown(CloseReason::kRefused);
      return;
    }
    if (!seg.syn()) return;
    if (seg.has_ack() && seg.ack != snd_seq(1)) return;  // bogus
    take_peer_syn(seg);
    if (seg.has_ack()) {
      enter_established();
      send_ack_now();
    }
    return;
  }

  if (state_ == TcpState::kTimeWait) {
    // RFC 1337 (TIME-WAIT assassination hazards): nothing received in
    // TIME_WAIT may cut the 2MSL quiet period short. The only legitimate
    // reincarnation path is the layer's recycle check, which runs before
    // demux and requires a strictly newer ISN.
    if (seg.rst()) {
      // A stray or old-duplicate RST would "assassinate" the quiet
      // period and let old segments corrupt the next incarnation: drop.
      TFO_LOG(kDebug, "tcp") << key_.str()
                             << " RST ignored in TIME_WAIT (RFC 1337)";
      return;
    }
    if (seg.syn()) {
      // An old duplicate SYN that failed the recycle criterion (its ISN
      // is not newer than what we acknowledged). Answer with our current
      // ACK; the peer — if live — resets that stale handshake and
      // retries with a fresh, newer ISN. Routed through the challenge-ACK
      // budget: a SYN flood at a TIME_WAIT-heavy port must not turn us
      // into an ACK amplifier.
      send_challenge_ack();
      return;
    }
    if (seg.fin()) {
      // Peer retransmitted its FIN: our final ACK was lost. Re-ACK and
      // restart the 2MSL clock.
      send_ack_now();
      enter_time_wait();
    }
    return;
  }

  // --- RST. RFC 5961 §3.2 tightens RFC 793 p.37: only a reset whose
  // sequence number is exactly RCV.NXT tears the connection down. One
  // that is merely inside the receive window draws a rate-limited
  // challenge ACK — a genuine peer that truly lost the connection
  // answers the challenge with an exact-sequence RST, while a blind
  // attacker sweeping the window gains nothing. Everything else is
  // silently discarded. Unsolicited resets built by the failover bridge
  // must therefore carry the client-facing SND.NXT to take effect.
  if (seg.rst()) {
    const std::int32_t rst_rel = rcv_rel(seg.seq);
    const bool in_window =
        last_adv_wnd_ == 0
            ? rst_rel == 0
            : rst_rel >= 0 && rst_rel < static_cast<std::int32_t>(last_adv_wnd_);
    if (!in_window) {
      TFO_LOG(kDebug, "tcp") << key_.str() << " out-of-window RST dropped "
                             << seg.summary();
      return;
    }
    if (rst_rel != 0) {
      TFO_LOG(kDebug, "tcp") << key_.str()
                             << " in-window inexact RST challenged "
                             << seg.summary();
      send_challenge_ack();
      return;
    }
    teardown(CloseReason::kReset);
    return;
  }

  // --- SYN on a synchronized connection (RFC 5961 §4.2): never resync or
  // tear down, whatever the sequence number says; answer with a
  // rate-limited challenge ACK and drop the segment. A peer that
  // genuinely rebooted responds to the challenge with an exact-sequence
  // RST, which the branch above honours. (In SYN_RCVD — not yet
  // synchronized — a duplicate SYN stays ignored; our RTO retransmits
  // the SYN|ACK.)
  if (seg.syn()) {
    if (state_ != TcpState::kSynRcvd) send_challenge_ack();
    return;
  }

  // --- Window/sequence plausibility: drop segments entirely outside a
  // generous window around rcv_nxt (protects unwrapping from garbage).
  const std::int32_t rel = rcv_rel(seg.seq);
  if (rel < -(1 << 30) || rel > (1 << 30)) return;

  // RFC 793 p.72: once synchronized, a segment without ACK is dropped —
  // otherwise a blind injector could slip payload past the RFC 5961 §5.2
  // ACK acceptability check simply by clearing the flag.
  if (!seg.has_ack()) return;
  if (!process_ack(seg)) return;  // unacceptable ACK: drop whole segment
  if (state_ == TcpState::kClosed) return;  // ack processing may tear down

  if (!seg.payload.empty()) process_data(seg);
  if (seg.fin()) process_fin(seg);
}

bool Connection::process_ack(const TcpSegment& seg) {
  // Unwrap the ack field to a stream offset around snd_una_.
  const std::int64_t ack_off_s = snd_offset(seg.ack);
  if (ack_off_s < 0) return false;
  const std::uint64_t ack_off = static_cast<std::uint64_t>(ack_off_s);

  // RFC 5961 §5.2 ACK acceptability: anything older than
  // SND.UNA − MAX.SND.WND is a stale duplicate or a blind probe — drop it
  // silently before it can feed the dupack or window machinery.
  if (ack_off + max_snd_wnd_ < snd_una_) return false;

  if (state_ == TcpState::kSynRcvd) {
    if (ack_off < 1) return false;
    enter_established();  // the ACK may also carry data and a window update
  }

  if (ack_off > snd_nxt_) {
    if (ack_off > highest_sent_) {
      // Acks something never sent: bogus (RFC 5961 §5.2's upper bound).
      // Challenge rather than plain-ACK so a blind ACK-window prober
      // cannot extract unlimited responses.
      send_challenge_ack();
      return false;
    }
    // Ack of data sent before an RTO rewind: catch the send point up.
    snd_nxt_ = ack_off;
    if (fin_queued_ && fin_offset_ == kNoOffset &&
        ack_off == send_base_ + send_buf_.size() + 1) {
      fin_offset_ = ack_off - 1;  // the rewound FIN was acknowledged too
    }
  }

  if (ack_off > snd_una_) {
    const std::uint64_t acked = ack_off - snd_una_;
    snd_una_ = ack_off;
    retries_ = 0;
    dupacks_ = 0;
    rtt_sample_maybe(ack_off);
    // New data acknowledged: collapse any exponential backoff back to the
    // smoothed estimate (RFC 6298 §5.7 / BSD behaviour). Without this a
    // loss burst leaves the connection crawling at max_rto forever.
    reset_rto();
    // Trim the send buffer below snd_una_ (SYN/FIN occupy no buffer).
    const std::uint64_t data_acked_to = std::min(ack_off, send_base_ + send_buf_.size());
    if (data_acked_to > send_base_) {
      send_buf_.consume(static_cast<std::size_t>(data_acked_to - send_base_));
      send_base_ = data_acked_to;
    }
    if (params_->congestion_control) {
      if (cwnd_ < ssthresh_) {
        cwnd_ += static_cast<std::uint32_t>(std::min<std::uint64_t>(acked, eff_mss_));
      } else {
        cwnd_ += std::max<std::uint32_t>(1, eff_mss_ * eff_mss_ / cwnd_);
      }
    }
    if (snd_una_ == snd_nxt_) {
      stop_rto();
    } else {
      arm_rto();
    }
    pump_app_writes();
  } else if (ack_off == snd_una_ && in_flight() > 0 && seg.payload.empty() &&
             !seg.fin() && seg.window == snd_wnd_) {
    if (dupacks_ < UINT16_MAX && ++dupacks_ == params_->dupack_threshold) {
      ++stat_fast_retransmits_;
      // Fast retransmit.
      if (params_->congestion_control) {
        ssthresh_ = std::max<std::uint32_t>(in_flight() / 2, 2 * eff_mss_);
        cwnd_ = ssthresh_;
      }
      rtt_measuring_ = false;
      retransmit_head();
      arm_rto();
    }
  }

  // Window update (RFC 793 WL1/WL2 discipline).
  const bool probing = snd_wnd_ == 0 && in_flight() == 0;
  if (seq_lt(wl1_, seg.seq) || (wl1_ == seg.seq && seq_le(wl2_, seg.ack))) {
    snd_wnd_ = seg.window;
    max_snd_wnd_ = std::max(max_snd_wnd_, snd_wnd_);
    wl1_ = seg.seq;
    wl2_ = seg.ack;
  }
  if (probing) {
    // An ACK while the window is closed answers our probe: the peer is
    // alive, however long it keeps the window shut (RFC 1122 §4.2.2.17).
    retries_ = 0;
    if (snd_wnd_ > 0) {  // reopened: probing and its backoff are over
      stop_rto();
      reset_rto();
    }
  }

  maybe_advance_close_states();
  if (state_ != TcpState::kClosed) try_send();
  return true;
}

void Connection::process_data(const TcpSegment& seg) {
  const std::int64_t start = static_cast<std::int64_t>(rcv_nxt_) + rcv_rel(seg.seq);
  const std::int64_t end = start + static_cast<std::int64_t>(seg.payload.size());

  if (end <= static_cast<std::int64_t>(rcv_nxt_)) {
    // Entirely old data — retransmission; re-ACK immediately (the peer is
    // missing our ACK).
    send_ack_now();
    return;
  }

  // A share of the arriving frame's storage; the trims below are offset
  // moves, not byte copies.
  wire::PacketBuffer data = seg.payload;
  std::uint64_t off = static_cast<std::uint64_t>(std::max<std::int64_t>(start, 0));
  if (start < static_cast<std::int64_t>(rcv_nxt_)) {
    data.trim_front(
        static_cast<std::size_t>(static_cast<std::int64_t>(rcv_nxt_) - start));
    off = rcv_nxt_;
  }

  const std::size_t room = recv_room();
  if (off == rcv_nxt_) {
    if (data.size() > room) data.trim_to(room);  // beyond window: dropped
    if (data.empty()) {
      send_ack_now();  // window probe: answer with current window
      return;
    }
    rcv_nxt_ += data.size();
    last_data_rx_ = owner_.simulator().now();
    rx_buf_.append(data);
    deliver_in_order();
    schedule_ack();
    if (ooo_ && !ooo_->empty()) send_ack_now();  // still a gap above us
    if (on_readable) on_readable();
  } else {
    // Out of order: stash and duplicate-ACK to trigger fast retransmit.
    if (!data.empty() && data.size() <= room) {
      stash_ooo(off, std::move(data));
    }
    send_ack_now();
  }
}

void Connection::deliver_in_order() {
  // Merge any out-of-order runs that are now contiguous.
  if (!ooo_) return;
  for (auto it = ooo_->begin(); it != ooo_->end();) {
    if (it->first > rcv_nxt_) break;
    const wire::PacketBuffer& run = it->second;
    const std::uint64_t run_end = it->first + run.size();
    if (run_end > rcv_nxt_) {
      const std::size_t skip = static_cast<std::size_t>(rcv_nxt_ - it->first);
      const std::size_t take = std::min(run.size() - skip, recv_room());
      rx_buf_.append(run.view().subspan(skip, take));
      rcv_nxt_ += take;
      if (take < run.size() - skip) break;  // buffer full
    }
    it = drop_ooo_entry(it);
  }
}

void Connection::process_fin(const TcpSegment& seg) {
  const std::int64_t fin_off = static_cast<std::int64_t>(rcv_nxt_) + rcv_rel(seg.seq) +
                              static_cast<std::int64_t>(seg.payload.size());
  if (fin_off < 0) return;

  if (peer_fin_ || static_cast<std::uint64_t>(fin_off) != rcv_nxt_) {
    // A FIN beyond data we have not received yet (wait for the gap to
    // fill), or a second one (RFC 9293: remain in the state).
    send_ack_now();
    return;
  }
  rcv_nxt_ += 1;  // the FIN consumes one sequence position
  peer_fin_ = true;
  send_ack_now();

  // Transition BEFORE notifying the application: on_peer_fin handlers
  // commonly call close(), which must see CLOSE_WAIT (-> LAST_ACK), not
  // the pre-FIN state.
  switch (state_) {
    case TcpState::kEstablished:
      set_state(TcpState::kCloseWait);
      break;
    case TcpState::kFinWait1:
      // Our FIN not yet acked (otherwise we'd be in FIN_WAIT_2).
      set_state(TcpState::kClosing);
      maybe_advance_close_states();
      break;
    case TcpState::kFinWait2:
      enter_time_wait();
      break;
    default:
      break;
  }

  if (on_peer_fin) on_peer_fin();
}

void Connection::maybe_advance_close_states() {
  const bool fin_acked = fin_offset_ != kNoOffset && snd_una_ > fin_offset_;
  switch (state_) {
    case TcpState::kFinWait1:
      if (fin_acked) set_state(TcpState::kFinWait2);
      break;
    case TcpState::kClosing:
      if (fin_acked) enter_time_wait();
      break;
    case TcpState::kLastAck:
      if (fin_acked) teardown(CloseReason::kGraceful);
      break;
    default:
      break;
  }
}

void Connection::on_window_open() {
  // App drained the receive buffer; if we had been advertising a closed
  // (or nearly closed) window, update the peer so it can resume.
  if (last_adv_wnd_ < eff_mss_ &&
      recv_room() >= std::max<std::size_t>(eff_mss_, params_->recv_buf / 4)) {
    if (state_ == TcpState::kEstablished || state_ == TcpState::kFinWait1 ||
        state_ == TcpState::kFinWait2) {
      send_ack_now();
    }
  }
}

// ------------------------------------------------------------ lifecycle

void Connection::arm_keepalive() {
  if (params_->keepalive_idle <= 0 || rto_pending()) return;
  if (state_ != TcpState::kEstablished && state_ != TcpState::kCloseWait) return;
  keepalive_unanswered_ = 0;
  keepalive_due_ = true;
  timer_.start(params_->keepalive_idle, [this] { on_timer(); });
}

void Connection::on_keepalive() {
  if (state_ != TcpState::kEstablished && state_ != TcpState::kCloseWait) return;
  if (++keepalive_unanswered_ > params_->keepalive_probes) {
    TFO_LOG(kDebug, "tcp") << key_.str() << " keepalive: peer unresponsive";
    give_up();
    return;
  }
  // BSD's probe: one byte at SND.UNA − 1, which the peer has already
  // acknowledged, so its old-data path re-ACKs it (process_data) and
  // delivers nothing. An unacknowledged offset would carry real data.
  TcpSegment seg = segment_at(snd_una_ - 1, Flags::kAck);
  seg.payload = wire::PacketBuffer::alloc(1);
  seg.payload.mutable_data()[0] = 0;
  emit(std::move(seg));
  timer_.start(params_->keepalive_interval, [this] { on_timer(); });
}

void Connection::leave_embryonic() {
  if (!embryonic_) return;
  embryonic_ = false;
  owner_.note_embryonic_done(key_.local_port);
}

void Connection::set_state(TcpState s) {
  TFO_LOG(kTrace, "tcp") << key_.str() << " " << state_name(state_) << " -> "
                         << state_name(s);
  state_ = s;
}

void Connection::enter_established() {
  // Only a passive open reaches here still charged to a listen backlog.
  const bool from_listen_queue = embryonic_;
  leave_embryonic();
  set_state(TcpState::kEstablished);
  snd_una_ = 1;  // our SYN is acknowledged
  retries_ = 0;
  stop_rto();
  if (from_listen_queue) {
    owner_.accept_established(*this);
  } else if (on_established) {
    on_established();
  }
  if (close_requested_ && state_ == TcpState::kEstablished) {
    close_requested_ = false;
    close();
    return;
  }
  try_send();
}

void Connection::enter_time_wait() {
  set_state(TcpState::kTimeWait);
  timer_.stop();
  delack_timer_.stop();
  // The connection timer counts 2·MSL (on_timer dispatches on state_).
  keepalive_due_ = false;
  timer_.start(2 * params_->msl, [this] { on_timer(); });
  release_drained_buffers();
}

void Connection::release_drained_buffers() {
  if (send_buf_.empty()) send_buf_.release();
  if (rx_buf_.empty()) rx_buf_.release();
  if (!writes_queued()) app_writes_.reset();
}

void Connection::teardown(CloseReason reason) {
  if (state_ == TcpState::kClosed) return;
  leave_embryonic();
  set_state(TcpState::kClosed);
  timer_.stop();
  delack_timer_.stop();
  // Fail any writes still queued, and unpin any stashed frames: a closed
  // connection must not keep frame storage alive until destruction.
  app_writes_.reset();
  release_all_ooo();
  release_drained_buffers();
  if (on_closed) on_closed(reason);
  owner_.connection_closed(key_, id_);
}

}  // namespace tfo::tcp
