#include "core/bridge_conn.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/logging.hpp"

namespace tfo::core {

using tcp::Flags;
using tcp::TcpSegment;

BridgeConn::BridgeConn(BridgeConnSink& sink, tcp::ConnKey key, ip::Ipv4 secondary_addr)
    : sink_(sink), key_(key), secondary_addr_(secondary_addr) {}

void BridgeConn::attach_obs(const BridgeConnObs* obs) {
  obs_ = obs;
  if (!obs) return;
  p_queue_.bind_gauges(obs->pqueue_bytes, obs->pqueue_depth);
  s_queue_.bind_gauges(obs->squeue_bytes, obs->squeue_depth);
}

void BridgeConn::note_event(obs::EventKind kind, std::string detail) {
  if (!obs_) return;
  obs_->hub->timeline.record(obs_->sim->now(), kind, key_, std::move(detail));
}

tfo::Seq32 BridgeConn::remote_facing_seq() const {
  return unwrap_s_.wrap(next_to_client_);
}

std::optional<tfo::Seq32> BridgeConn::remote_facing_ack() const {
  if (!remote_isn_known_) return std::nullopt;
  return unwrap_c_.wrap(min_ack());
}

TcpSegment BridgeConn::base_segment_to_remote() const {
  TcpSegment seg;
  seg.src_port = key_.local_port;
  seg.dst_port = key_.remote_port;
  seg.flags = Flags::kAck;
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
  if (seg.syn()) return seg.seq == irs_;  // handshake retransmission only
  const std::int64_t off = static_cast<std::int64_t>(unwrap_c_.unwrap(seg.seq));
  const std::int64_t base = static_cast<std::int64_t>(min_ack());
  return off >= base - kSlack && off <= base + 2 * kSlack;
}

bool BridgeConn::secondary_seq_plausible(const TcpSegment& seg) const {
  constexpr std::int64_t kSlack = 65536;
  if (!have_s_syn_) return seg.syn();  // only the handshake may fix iss_s_
  if (seg.syn()) return seg.seq == iss_s_;
  const std::int64_t off = static_cast<std::int64_t>(unwrap_s_.unwrap(seg.seq));
  const std::int64_t base = static_cast<std::int64_t>(next_to_client_);
  return off >= base - kSlack && off <= base + 2 * kSlack;
}

void BridgeConn::on_remote_segment(TcpSegment& seg) {
  if (dead_) return;

  if (seg.syn()) {
    // Client SYN (client-initiated, §7.1) or T's SYN+ACK (server-
    // initiated, §7.2): fixes the remote's ISN.
    if (!remote_isn_known_) {
      irs_ = seg.seq;
      unwrap_c_ = SeqUnwrapper(irs_);
      remote_isn_known_ = true;
    }
  }

  if (seg.rst()) {
    dead_ = true;
    sink_.fully_closed(key_);
    return;  // still forwarded to the primary's TCP by the bridge
  }

  if (seg.fin() && remote_isn_known_) {
    const std::uint64_t off = unwrap_c_.unwrap_advance(seg.seq) + seg.payload.size();
    if (!remote_fin_offset_) remote_fin_offset_ = off;
  }

  // Translate the ACK from the secondary's sequence space (which the
  // remote endpoint is synchronized to, §3.3) into the primary's space
  // before the primary's TCP layer sees it.
  if (seg.has_ack() && have_p_syn_ && have_s_syn_) {
    const std::uint64_t acked = unwrap_s_.unwrap(seg.ack);
    if (fin_sent_to_remote_ && fin_p_ && acked >= *fin_p_ + 1) {
      remote_acked_our_fin_ = true;
    }
    seg.ack = unwrap_p_.wrap(acked);
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
  if (dead_) return;

  if (seg.rst()) {
    // The primary's TCP layer gave up on the connection (application
    // abort or retransmission exhaustion). Propagate in the remote's
    // sequence space when we can, verbatim otherwise.
    TcpSegment out = seg;
    if (have_p_syn_ && have_s_syn_) {
      out.seq = unwrap_s_.wrap(unwrap_p_.unwrap(seg.seq));
    }
    sink_.emit(out, key_.local_ip, key_.remote_ip);
    dead_ = true;
    sink_.fully_closed(key_);
    return;
  }

  if (seg.syn()) {
    server_initiated_ = !seg.has_ack();
    if (!have_p_syn_) {
      have_p_syn_ = true;
      iss_p_ = seg.seq;
      unwrap_p_ = SeqUnwrapper(iss_p_);
      mss_p_ = seg.mss.value_or(536);
      syn_win_p_ = seg.window;
      win_p_ = seg.window;
      note_server_ack(ack_p_, seg);
      if (solo_ && !have_s_syn_) {
        // §6 corner: the secondary died before producing its SYN and we
        // have promised the remote nothing — adopt the primary's space.
        have_s_syn_ = true;
        iss_s_ = iss_p_;
        unwrap_s_ = unwrap_p_;
        mss_s_ = mss_p_;
        syn_win_s_ = syn_win_p_;
      }
      try_send_syn();
    } else if (syn_sent_to_remote_) {
      // SYN(-ACK) retransmission by the primary's TCP: the merged SYN was
      // lost — resend it (§4 retransmission handling).
      syn_sent_to_remote_ = false;
      try_send_syn();
    }
    return;
  }

  if (!have_p_syn_ || !syn_sent_to_remote_) {
    TFO_LOG(kWarn, "bridge") << key_.str() << " primary segment before handshake: "
                             << seg.summary();
    return;
  }

  note_server_ack(ack_p_, seg);
  win_p_ = seg.window;

  const std::uint64_t offset = unwrap_p_.unwrap_advance(seg.seq);

  if (solo_) {
    // §6: no more delaying or merging, but the sequence-number offset
    // compensation continues for the lifetime of the connection.
    TcpSegment out = seg;
    out.seq = unwrap_s_.wrap(offset);
    sink_.emit(out, key_.local_ip, key_.remote_ip);
    const std::uint64_t end = offset + seg.payload.size() + (seg.fin() ? 1 : 0);
    if (seg.fin() && !fin_sent_to_remote_) {
      fin_sent_to_remote_ = true;
      fin_p_ = offset + seg.payload.size();
    }
    if (end > next_to_client_) next_to_client_ = end;
    check_fully_closed();
    return;
  }

  const std::uint64_t end = offset + seg.payload.size();
  const bool fully_old = end + (seg.fin() ? 1 : 0) <= next_to_client_;

  if ((!seg.payload.empty() || seg.fin()) && fully_old) {
    // §4: a retransmission — the bridge receives only a single copy, so it
    // must not enqueue it but send it on immediately.
    emit_retransmission(offset, seg.payload, seg.fin());
    return;
  }

  if (seg.payload.empty() && !seg.fin()) {
    // Delayed/pure ACK from the primary's TCP layer (§3.4).
    emit_empty_ack_if_progress();
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
  if (!data.empty() && !p_queue_.insert(ins_off, data)) {
    TFO_LOG(kError, "bridge") << key_.str() << " replica divergence in primary stream";
    dead_ = true;
    sink_.divergence(key_);
    return;
  }
  if (seg.fin()) {
    const std::uint64_t fin_off = end;
    if (fin_s_ && *fin_s_ != fin_off) {
      dead_ = true;
      sink_.divergence(key_);
      return;
    }
    fin_p_ = fin_off;
  }
  pump();
  if (!dead_) emit_empty_ack_if_progress();
}

void BridgeConn::on_secondary_segment(const TcpSegment& seg) {
  TFO_LOG(kTrace, "bridge") << key_.str() << " from-S " << seg.summary();
  if (dead_ || solo_) return;

  if (seg.rst()) {
    TFO_LOG(kWarn, "bridge") << key_.str()
                             << " RST from secondary ignored: " << seg.summary();
    return;
  }

  if (seg.syn()) {
    if (!have_s_syn_) {
      have_s_syn_ = true;
      iss_s_ = seg.seq;
      unwrap_s_ = SeqUnwrapper(iss_s_);
      mss_s_ = seg.mss.value_or(536);
      syn_win_s_ = seg.window;
      win_s_ = seg.window;
      note_server_ack(ack_s_, seg);
      if (!remote_isn_known_ && seg.has_ack()) {
        // The primary missed the client's SYN; recover the client ISN
        // from the secondary's SYN+ACK (it acknowledges ISN+1).
        irs_ = seq_add(seg.ack, -1);
        unwrap_c_ = SeqUnwrapper(irs_);
        remote_isn_known_ = true;
        ack_s_ = 1;
      }
      try_send_syn();
    } else if (syn_sent_to_remote_) {
      syn_sent_to_remote_ = false;
      try_send_syn();
    }
    return;
  }

  if (!have_s_syn_ || !syn_sent_to_remote_) {
    TFO_LOG(kWarn, "bridge") << key_.str()
                             << " secondary segment before handshake: " << seg.summary();
    return;
  }

  note_server_ack(ack_s_, seg);
  win_s_ = seg.window;

  const std::uint64_t offset = unwrap_s_.unwrap_advance(seg.seq);
  const std::uint64_t end = offset + seg.payload.size();
  const bool fully_old = end + (seg.fin() ? 1 : 0) <= next_to_client_;

  if ((!seg.payload.empty() || seg.fin()) && fully_old) {
    emit_retransmission(offset, seg.payload, seg.fin());
    return;
  }
  if (seg.payload.empty() && !seg.fin()) {
    emit_empty_ack_if_progress();
    return;
  }

  wire::PacketBuffer data = seg.payload;
  std::uint64_t ins_off = offset;
  if (ins_off < next_to_client_) {
    data.trim_front(static_cast<std::size_t>(next_to_client_ - ins_off));
    ins_off = next_to_client_;
  }
  if (!data.empty() && !s_queue_.insert(ins_off, data)) {
    TFO_LOG(kError, "bridge") << key_.str() << " replica divergence in secondary stream";
    dead_ = true;
    sink_.divergence(key_);
    return;
  }
  if (seg.fin()) {
    const std::uint64_t fin_off = end;
    if (fin_p_ && *fin_p_ != fin_off) {
      dead_ = true;
      sink_.divergence(key_);
      return;
    }
    fin_s_ = fin_off;
  }
  pump();
  if (!dead_) emit_empty_ack_if_progress();
}

// ------------------------------------------------------------- handshake

void BridgeConn::try_send_syn() {
  if (syn_sent_to_remote_ || !have_p_syn_ || !have_s_syn_) return;
  TcpSegment syn = base_segment_to_remote();
  syn.flags = Flags::kSyn;
  syn.seq = iss_s_;  // the remote synchronizes to the secondary's space
  if (!server_initiated_) {
    syn.flags |= Flags::kAck;
    syn.ack = remote_isn_known_ ? unwrap_c_.wrap(1) : 0;
  }
  // §7.1: MSS is the minimum of what the two TCP layers offered; same for
  // the window.
  syn.mss = std::min(mss_p_, mss_s_);
  syn.window = std::min(syn_win_p_, syn_win_s_);
  sink_.emit(syn, key_.local_ip, key_.remote_ip);
  syn_sent_to_remote_ = true;
  next_to_client_ = 1;
  last_ack_to_remote_ = server_initiated_ ? 0 : 1;
  last_win_to_remote_ = syn.window;
  note_event(obs::EventKind::kHandshakeMerged,
             "iss_s=" + std::to_string(iss_s_));
}

// ---------------------------------------------------------------- output

void BridgeConn::pump() {
  const std::size_t emit_mss = std::max<std::uint16_t>(std::min(mss_p_, mss_s_), 1);
  for (;;) {
    const std::size_t n = std::min(
        {p_queue_.contiguous_at(next_to_client_), s_queue_.contiguous_at(next_to_client_),
         emit_mss});
    if (n > 0) {
      wire::PacketBuffer from_p = p_queue_.extract(next_to_client_, n);
      wire::PacketBuffer from_s = s_queue_.extract(next_to_client_, n);
      if (from_p != from_s) {
        TFO_LOG(kError, "bridge") << key_.str() << " replica divergence at offset "
                                  << next_to_client_;
        dead_ = true;
        sink_.divergence(key_);
        return;
      }
      const bool fin_now = !fin_sent_to_remote_ && fin_p_ && fin_s_ &&
                           *fin_p_ == *fin_s_ && *fin_p_ == next_to_client_ + n;
      emit_payload(next_to_client_, std::move(from_p), fin_now);
      continue;
    }
    // A FIN with all payload already merged (§8: the bridge sends the
    // server FIN only once both replicas produced it).
    if (!fin_sent_to_remote_ && fin_p_ && fin_s_ && *fin_p_ == *fin_s_ &&
        *fin_p_ == next_to_client_) {
      emit_payload(next_to_client_, wire::PacketBuffer{}, /*fin=*/true);
      continue;
    }
    break;
  }
}

void BridgeConn::emit_payload(std::uint64_t offset, wire::PacketBuffer payload,
                              bool fin) {
  TcpSegment seg = base_segment_to_remote();
  seg.seq = unwrap_s_.wrap(offset);
  seg.payload = std::move(payload);
  if (fin) seg.flags |= Flags::kFin;
  if (p_queue_.empty() && s_queue_.empty()) seg.flags |= Flags::kPsh;
  seg.ack = remote_isn_known_ ? unwrap_c_.wrap(min_ack()) : 0;
  seg.window = min_win();
  last_ack_to_remote_ = min_ack();
  last_win_to_remote_ = seg.window;
  next_to_client_ = offset + seg.payload.size() + (fin ? 1 : 0);
  if (fin) fin_sent_to_remote_ = true;
  TFO_LOG(kTrace, "bridge") << key_.str() << " to-remote " << seg.summary();
  if (obs_) obs_->merged_bytes->observe(seg.payload.size());
  sink_.emit(seg, key_.local_ip, key_.remote_ip);
  check_fully_closed();
}

void BridgeConn::emit_retransmission(std::uint64_t offset,
                                     const wire::PacketBuffer& payload,
                                     bool fin) {
  TcpSegment seg = base_segment_to_remote();
  seg.seq = unwrap_s_.wrap(offset);
  seg.payload = payload;
  if (fin) seg.flags |= Flags::kFin;
  seg.ack = remote_isn_known_ ? unwrap_c_.wrap(min_ack()) : 0;
  seg.window = min_win();
  TFO_LOG(kTrace, "bridge") << key_.str() << " to-remote(rexmit) " << seg.summary();
  if (obs_) obs_->retransmits->inc();
  sink_.emit(seg, key_.local_ip, key_.remote_ip);
}

void BridgeConn::emit_empty_ack_if_progress() {
  if (!syn_sent_to_remote_ || !remote_isn_known_) return;
  const std::uint64_t m = min_ack();
  const std::uint16_t w = min_win();
  const bool ack_progress = m > last_ack_to_remote_;
  // Window-reopen exception: when the merged window was advertised as
  // closed, a pure window update must get through or the remote stalls
  // until its persist timer fires.
  const bool window_reopen = last_win_to_remote_ == 0 && w > 0;
  if (!ack_progress && !window_reopen) return;
  TcpSegment seg = base_segment_to_remote();
  seg.seq = unwrap_s_.wrap(next_to_client_);
  seg.ack = unwrap_c_.wrap(m);
  seg.window = w;
  last_ack_to_remote_ = m;
  last_win_to_remote_ = w;
  if (obs_) obs_->empty_acks->inc();
  sink_.emit(seg, key_.local_ip, key_.remote_ip);
  check_fully_closed();
}

void BridgeConn::check_fully_closed() {
  if (dead_) return;
  if (!fin_sent_to_remote_ || !remote_acked_our_fin_) return;
  if (!remote_fin_offset_) return;
  const std::uint64_t needed = *remote_fin_offset_ + 1;
  const std::uint64_t acked = solo_ ? ack_p_ : min_ack();
  if (acked < needed) return;
  dead_ = true;
  sink_.fully_closed(key_);
}

// ------------------------------------------------------------- failures

void BridgeConn::on_secondary_failed() {
  if (dead_ || solo_) return;
  solo_ = true;

  if (!have_s_syn_) {
    if (have_p_syn_) {
      // Nothing was promised to the remote yet; adopt the primary's
      // sequence space as "the secondary's".
      have_s_syn_ = true;
      iss_s_ = iss_p_;
      unwrap_s_ = unwrap_p_;
      mss_s_ = mss_p_;
      syn_win_s_ = syn_win_p_;
      win_s_ = win_p_;
      try_send_syn();
    }
    s_queue_.clear();
    return;
  }

  // §6 step 1: remove all payload from the primary output queue and send
  // it to the client (it is exactly the replicated stream the client is
  // waiting for).
  const std::size_t emit_mss = std::max<std::uint16_t>(std::min(mss_p_, mss_s_), 1);
  while (p_queue_.contiguous_at(next_to_client_) > 0) {
    const std::size_t n =
        std::min(p_queue_.contiguous_at(next_to_client_), emit_mss);
    wire::PacketBuffer data = p_queue_.extract(next_to_client_, n);
    TcpSegment seg = base_segment_to_remote();
    seg.seq = unwrap_s_.wrap(next_to_client_);
    seg.payload = std::move(data);
    // §6 step 3: from now on the segments carry the primary's own ACK and
    // window choices.
    seg.ack = remote_isn_known_ ? unwrap_c_.wrap(ack_p_) : 0;
    seg.window = win_p_;
    const bool fin_now =
        fin_p_ && *fin_p_ == next_to_client_ + n && !fin_sent_to_remote_;
    if (fin_now) {
      seg.flags |= Flags::kFin;
      fin_sent_to_remote_ = true;
    }
    next_to_client_ += n + (fin_now ? 1 : 0);
    last_ack_to_remote_ = ack_p_;
    last_win_to_remote_ = win_p_;
    sink_.emit(seg, key_.local_ip, key_.remote_ip);
  }
  if (fin_p_ && *fin_p_ == next_to_client_ && !fin_sent_to_remote_) {
    TcpSegment seg = base_segment_to_remote();
    seg.seq = unwrap_s_.wrap(next_to_client_);
    seg.flags |= Flags::kFin;
    seg.ack = remote_isn_known_ ? unwrap_c_.wrap(ack_p_) : 0;
    seg.window = win_p_;
    fin_sent_to_remote_ = true;
    next_to_client_ += 1;
    sink_.emit(seg, key_.local_ip, key_.remote_ip);
  }
  if (!p_queue_.empty()) {
    TFO_LOG(kWarn, "bridge")
        << key_.str()
        << " non-contiguous primary queue at secondary failure; remainder "
           "will be re-delivered by TCP retransmission";
    p_queue_.clear();
  }
  s_queue_.clear();
  check_fully_closed();
}

}  // namespace tfo::core
