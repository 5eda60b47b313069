#include "core/bridge_conn.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/logging.hpp"

namespace tfo::core {

using tcp::Flags;
using tcp::TcpSegment;

BridgeConn::BridgeConn(BridgeConnSink& sink, tcp::ConnKey key) : sink_(sink), key_(key) {}

void BridgeConn::attach_obs(const BridgeConnObs* obs) {
  obs_ = obs;
  if (!obs) return;
  p_.queue.bind_gauges(obs->pqueue_bytes, obs->pqueue_depth);
  s_.queue.bind_gauges(obs->squeue_bytes, obs->squeue_depth);
}

void BridgeConn::note_event(obs::EventKind kind, std::string detail) {
  if (!obs_) return;
  obs_->hub->timeline.record(obs_->sim->now(), kind, key_, std::move(detail));
}

void BridgeConn::set_phase(Phase next) {
  TFO_ASSERT(phase_ != Phase::kClosed, "a closed bridge connection stays closed");
  phase_ = next;
}

void BridgeConn::close(Ending why) {
  set_phase(Phase::kClosed);
  if (why == Ending::kDivergence) {
    sink_.divergence(key_);
  } else {
    sink_.fully_closed(key_);
  }
}

tfo::Seq32 BridgeConn::remote_facing_seq() const {
  return s_.unwrap.wrap(next_to_client_);
}

std::optional<tfo::Seq32> BridgeConn::remote_facing_ack() const {
  if (!remote_isn_known_) return std::nullopt;
  return unwrap_c_.wrap(min_ack());
}

TcpSegment BridgeConn::to_remote(std::uint64_t offset, wire::PacketBuffer payload,
                                 bool fin) const {
  TcpSegment seg;
  seg.src_port = key_.local_port;
  seg.dst_port = key_.remote_port;
  seg.flags = Flags::kAck | (fin ? Flags::kFin : 0);
  seg.seq = s_.unwrap.wrap(offset);
  seg.payload = std::move(payload);
  seg.ack = remote_isn_known_ ? unwrap_c_.wrap(min_ack()) : 0;
  seg.window = min_win();
  return seg;
}

// ----------------------------------------------------------- remote side

bool BridgeConn::remote_seq_plausible(const TcpSegment& seg) const {
  // One advertised window (≤ 64 KiB) of slack behind the merged ACK for
  // retransmissions, twice that ahead for in-flight data.
  constexpr std::int64_t kSlack = 65536;
  if (!remote_isn_known_) {
    // Nothing to validate against yet: only a handshake SYN may touch the
    // connection — it is what fixes the remote ISN.
    return seg.syn();
  }
  if (seg.syn()) return seg.seq == unwrap_c_.wrap(0);  // handshake retransmission only
  const std::int64_t off = static_cast<std::int64_t>(unwrap_c_.unwrap(seg.seq));
  const std::int64_t base = static_cast<std::int64_t>(min_ack());
  return off >= base - kSlack && off <= base + 2 * kSlack;
}

bool BridgeConn::secondary_seq_plausible(const TcpSegment& seg) const {
  constexpr std::int64_t kSlack = 65536;
  if (!s_.have_syn) return seg.syn();  // only the handshake may fix S's ISN
  if (seg.syn()) return seg.seq == s_.unwrap.wrap(0);
  const std::int64_t off = static_cast<std::int64_t>(s_.unwrap.unwrap(seg.seq));
  const std::int64_t base = static_cast<std::int64_t>(next_to_client_);
  return off >= base - kSlack && off <= base + 2 * kSlack;
}

void BridgeConn::on_remote_segment(TcpSegment& seg) {
  if (phase_ == Phase::kClosed) return;

  // Client SYN (client-initiated, §7.1) or T's SYN+ACK (server-initiated,
  // §7.2): fixes the remote's ISN.
  if (seg.syn() && !remote_isn_known_) {
    unwrap_c_ = SeqUnwrapper(seg.seq);
    remote_isn_known_ = true;
  }

  if (seg.rst()) {
    close(Ending::kFullyClosed);
    return;  // still forwarded to the primary's TCP by the bridge
  }

  if (seg.fin() && remote_isn_known_) {
    const std::uint64_t off = unwrap_c_.unwrap_advance(seg.seq) + seg.payload.size();
    if (!remote_fin_offset_) remote_fin_offset_ = off;
  }

  // Translate the ACK from the secondary's sequence space (which the
  // remote endpoint is synchronized to, §3.3) into the primary's space
  // before the primary's TCP layer sees it.
  if (seg.has_ack() && p_.have_syn && s_.have_syn) {
    const std::uint64_t acked = s_.unwrap.unwrap(seg.ack);
    if (fin_sent_to_remote_ && p_.fin && acked >= *p_.fin + 1) {
      remote_acked_our_fin_ = true;
    }
    seg.ack = p_.unwrap.wrap(acked);
    check_fully_closed();
  }
}

// ----------------------------------------------------------- server side

void BridgeConn::note_server_ack(std::uint64_t& slot, const TcpSegment& seg) {
  if (!seg.has_ack() || !remote_isn_known_) return;
  const std::uint64_t off = unwrap_c_.unwrap_advance(seg.ack);
  if (off > slot) slot = off;
}

void BridgeConn::on_primary_segment(const TcpSegment& seg) {
  TFO_LOG(kTrace, "bridge") << key_.str() << " from-P " << seg.summary();
  if (phase_ == Phase::kClosed) return;

  if (seg.rst()) {
    // The primary's TCP layer gave up on the connection (application
    // abort or retransmission exhaustion). Propagate in the remote's
    // sequence space when we can, verbatim otherwise.
    TcpSegment out = seg;
    if (p_.have_syn && s_.have_syn) {
      out.seq = s_.unwrap.wrap(p_.unwrap.unwrap(seg.seq));
    }
    sink_.emit(out, key_.local_ip, key_.remote_ip);
    close(Ending::kFullyClosed);
    return;
  }
  if (seg.syn()) server_initiated_ = !seg.has_ack();
  on_replica_segment(p_, s_, seg);
}

void BridgeConn::on_secondary_segment(const TcpSegment& seg) {
  TFO_LOG(kTrace, "bridge") << key_.str() << " from-S " << seg.summary();
  if (phase_ == Phase::kClosed || solo()) return;

  if (seg.rst()) {
    TFO_LOG(kWarn, "bridge") << key_.str()
                             << " RST from secondary ignored: " << seg.summary();
    return;
  }
  if (seg.syn() && !s_.have_syn && !remote_isn_known_ && seg.has_ack()) {
    // The primary missed the client's SYN; recover the client ISN from
    // the secondary's SYN+ACK (it acknowledges ISN+1).
    unwrap_c_ = SeqUnwrapper(seq_add(seg.ack, -1));
    remote_isn_known_ = true;
  }
  on_replica_segment(s_, p_, seg);
}

void BridgeConn::on_replica_segment(Side& self, const Side& other,
                                    const TcpSegment& seg) {
  if (seg.syn()) {
    if (!self.have_syn) {
      self.have_syn = true;
      self.unwrap = SeqUnwrapper(seg.seq);
      self.mss = seg.mss.value_or(536);
      self.syn_win = seg.window;
      self.win = seg.window;
      note_server_ack(self.ack, seg);
      try_send_syn();
    } else if (syn_sent()) {
      // SYN(-ACK) retransmission by the replica's TCP: the merged SYN was
      // lost — resend it (§4 retransmission handling).
      send_syn();
    }
    return;
  }

  if (!syn_sent()) {
    TFO_LOG(kWarn, "bridge") << key_.str() << " replica segment before handshake: "
                             << seg.summary();
    return;
  }

  note_server_ack(self.ack, seg);
  self.win = seg.window;
  const std::uint64_t offset = self.unwrap.unwrap_advance(seg.seq);
  // Only the primary is heard in solo (on_secondary_segment drops S).
  if (phase_ == Phase::kSolo) {
    forward_solo(seg, offset);
    return;
  }

  const std::uint64_t end = offset + seg.payload.size();
  if (seg.payload.empty() && !seg.fin()) {
    // Delayed/pure ACK from the replica's TCP layer (§3.4).
    emit_empty_ack_if_progress();
    return;
  }
  if (end + (seg.fin() ? 1 : 0) <= next_to_client_) {
    // §4: a retransmission — the bridge receives only a single copy, so it
    // must not enqueue it but send it on immediately.
    const TcpSegment out = to_remote(offset, seg.payload, seg.fin());
    TFO_LOG(kTrace, "bridge") << key_.str() << " to-remote(rexmit) " << out.summary();
    if (obs_) obs_->retransmits->inc();
    sink_.emit(out, key_.local_ip, key_.remote_ip);
    return;
  }

  // Retain a slice of the arriving frame's storage; the prefix trim is an
  // offset move, and the queue keeps the slice without copying.
  wire::PacketBuffer data = seg.payload;
  std::uint64_t ins_off = offset;
  if (ins_off < next_to_client_) {
    // Partially old: the prefix already went to the client.
    data.trim_front(static_cast<std::size_t>(next_to_client_ - ins_off));
    ins_off = next_to_client_;
  }
  if (!data.empty() && !self.queue.insert(ins_off, data)) {
    close(Ending::kDivergence);
    return;
  }
  if (seg.fin()) {
    if (other.fin && *other.fin != end) {
      close(Ending::kDivergence);
      return;
    }
    self.fin = end;
  }
  pump();
  if (phase_ != Phase::kClosed) emit_empty_ack_if_progress();
}

void BridgeConn::forward_solo(const TcpSegment& seg, std::uint64_t offset) {
  // §6: no more delaying or merging, but the sequence-number offset
  // compensation continues for the lifetime of the connection.
  TcpSegment out = seg;
  out.seq = s_.unwrap.wrap(offset);
  sink_.emit(out, key_.local_ip, key_.remote_ip);
  const std::uint64_t end = offset + seg.payload.size() + (seg.fin() ? 1 : 0);
  if (seg.fin() && !fin_sent_to_remote_) {
    fin_sent_to_remote_ = true;
    p_.fin = offset + seg.payload.size();
  }
  if (end > next_to_client_) next_to_client_ = end;
  check_fully_closed();
}

// ------------------------------------------------------------- handshake

void BridgeConn::try_send_syn() {
  if (!p_.have_syn) return;
  if (!s_.have_syn) {
    if (!solo()) return;
    // §6 corner: the secondary died before producing its SYN and we have
    // promised the remote nothing — adopt the primary's sequence space as
    // "the secondary's".
    s_.have_syn = true;
    s_.unwrap = p_.unwrap;
    s_.mss = p_.mss;
    s_.syn_win = p_.syn_win;
    s_.win = p_.win;
  }
  send_syn();
  set_phase(solo() ? Phase::kSolo : Phase::kMerging);
}

void BridgeConn::send_syn() {
  // Sequence number S's ISN: the remote synchronizes to the secondary's
  // space (§3.3).
  TcpSegment syn = to_remote(0, {}, false);
  syn.flags = server_initiated_ ? Flags::kSyn : Flags::kSyn | Flags::kAck;
  syn.ack = !server_initiated_ && remote_isn_known_ ? unwrap_c_.wrap(1) : 0;
  // §7.1: MSS is the minimum of what the two TCP layers offered; same for
  // the window.
  syn.mss = std::min(p_.mss, s_.mss);
  syn.window = std::min(p_.syn_win, s_.syn_win);
  sink_.emit(syn, key_.local_ip, key_.remote_ip);
  next_to_client_ = 1;
  last_ack_to_remote_ = server_initiated_ ? 0 : 1;
  last_win_to_remote_ = syn.window;
  note_event(obs::EventKind::kHandshakeMerged, "iss_s=" + std::to_string(syn.seq));
}

// ---------------------------------------------------------------- output

void BridgeConn::pump() {
  const std::size_t emit_mss = std::max<std::uint16_t>(std::min(p_.mss, s_.mss), 1);
  for (;;) {
    const std::size_t n = std::min({p_.queue.contiguous_at(next_to_client_),
                                    s_.queue.contiguous_at(next_to_client_), emit_mss});
    // §8: the server FIN goes out only once both replicas produced it.
    const bool fin = !fin_sent_to_remote_ && p_.fin && s_.fin && *p_.fin == *s_.fin &&
                     *p_.fin == next_to_client_ + n;
    if (n == 0 && !fin) return;
    wire::PacketBuffer from_p;
    if (n > 0) {
      from_p = p_.queue.extract(next_to_client_, n);
      if (from_p != s_.queue.extract(next_to_client_, n)) {
        close(Ending::kDivergence);
        return;
      }
    }
    emit_payload(next_to_client_, std::move(from_p), fin);
  }
}

void BridgeConn::send_stream(std::uint64_t offset, wire::PacketBuffer payload, bool fin,
                             bool psh) {
  TcpSegment seg = to_remote(offset, std::move(payload), fin);
  if (psh) seg.flags |= Flags::kPsh;
  last_ack_to_remote_ = min_ack();
  last_win_to_remote_ = seg.window;
  next_to_client_ = offset + seg.payload.size() + (fin ? 1 : 0);
  if (fin) fin_sent_to_remote_ = true;
  TFO_LOG(kTrace, "bridge") << key_.str() << " to-remote " << seg.summary();
  sink_.emit(seg, key_.local_ip, key_.remote_ip);
}

void BridgeConn::emit_payload(std::uint64_t offset, wire::PacketBuffer payload,
                              bool fin) {
  if (obs_) obs_->merged_bytes->observe(payload.size());
  send_stream(offset, std::move(payload), fin, p_.queue.empty() && s_.queue.empty());
  check_fully_closed();
}

void BridgeConn::emit_empty_ack_if_progress() {
  if (!syn_sent() || !remote_isn_known_) return;
  const std::uint64_t m = min_ack();
  const std::uint16_t w = min_win();
  const bool ack_progress = m > last_ack_to_remote_;
  // Window-reopen exception: when the merged window was advertised as
  // closed, a pure window update must get through or the remote stalls
  // until its next window probe.
  const bool window_reopen = last_win_to_remote_ == 0 && w > 0;
  if (!ack_progress && !window_reopen) return;
  last_ack_to_remote_ = m;
  last_win_to_remote_ = w;
  if (obs_) obs_->empty_acks->inc();
  sink_.emit(to_remote(next_to_client_, {}, false), key_.local_ip, key_.remote_ip);
  check_fully_closed();
}

void BridgeConn::check_fully_closed() {
  if (phase_ == Phase::kClosed || !fin_sent_to_remote_ || !remote_acked_our_fin_ ||
      !remote_fin_offset_ || min_ack() < *remote_fin_offset_ + 1) {
    return;
  }
  close(Ending::kFullyClosed);
}

// ------------------------------------------------------------- failures

void BridgeConn::on_secondary_failed() {
  if (phase_ == Phase::kClosed || solo()) return;
  if (!syn_sent()) {
    // Nothing was promised to the remote yet: the merged SYN goes out in
    // the primary's own space once the primary has produced its SYN.
    set_phase(Phase::kSoloHandshake);
    try_send_syn();
    s_.queue.clear();
    return;
  }
  set_phase(Phase::kSolo);

  // §6 step 1: remove all payload from the primary output queue and send
  // it to the client (it is exactly the replicated stream the client is
  // waiting for). §6 step 3: from now on the segments carry the primary's
  // own ACK and window choices (min_ack/min_win in solo).
  const std::size_t emit_mss = std::max<std::uint16_t>(std::min(p_.mss, s_.mss), 1);
  while (const std::size_t n = std::min(p_.queue.contiguous_at(next_to_client_), emit_mss)) {
    const bool fin = p_.fin && *p_.fin == next_to_client_ + n && !fin_sent_to_remote_;
    send_stream(next_to_client_, p_.queue.extract(next_to_client_, n), fin, /*psh=*/false);
  }
  if (p_.fin && *p_.fin == next_to_client_ && !fin_sent_to_remote_) {
    send_stream(next_to_client_, {}, /*fin=*/true, /*psh=*/false);
  }
  if (!p_.queue.empty()) {
    TFO_LOG(kWarn, "bridge")
        << key_.str()
        << " non-contiguous primary queue at secondary failure; remainder "
           "will be re-delivered by TCP retransmission";
    p_.queue.clear();
  }
  s_.queue.clear();
  check_fully_closed();
}

}  // namespace tfo::core
