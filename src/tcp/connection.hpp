// One TCP connection endpoint: the RFC 793 state machine with sliding-
// window flow control, RFC 6298 retransmission, delayed ACKs, Nagle,
// zero-window probing, slow start/AIMD congestion control, and the full
// close handshake including TIME_WAIT.
//
// Applications drive a Connection through the Socket facade
// (tcp/socket.hpp); the TcpLayer owns demux and segment I/O.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "common/byte_ring.hpp"
#include "common/bytes.hpp"
#include "common/seq32.hpp"
#include "common/time.hpp"
#include "sim/timer.hpp"
#include "tcp/conn_key.hpp"
#include "tcp/params.hpp"
#include "tcp/segment.hpp"

namespace tfo::tcp {

class TcpLayer;

enum class TcpState : std::uint8_t {
  kSynSent,
  kSynRcvd,
  kEstablished,
  kFinWait1,
  kFinWait2,
  kCloseWait,
  kClosing,
  kLastAck,
  kTimeWait,
  kClosed,
};

const char* state_name(TcpState s);

/// Why a connection reached kClosed.
enum class CloseReason {
  kGraceful,       // both FINs exchanged and acknowledged
  kReset,          // peer sent RST
  kTimeout,        // retransmission limit exceeded
  kRefused,        // connect() rejected (RST in SYN_SENT)
  kAborted,        // local abort()
};

class Connection {
 public:
  /// Created via TcpLayer::connect / listener accept path only.
  /// `params` is the layer's snapshot (TcpLayer::params_snapshot()),
  /// which the layer keeps alive for its own lifetime.
  Connection(TcpLayer& owner, ConnKey key, const TcpParams* params, bool failover_flagged);
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  // ------------------------------------------------------------ app API
  /// Queues `data` for transmission. `on_accepted` fires when the last
  /// byte has been handed to the stack's send buffer — the paper's §9
  /// definition of send completion ("the send call returns when the
  /// application has passed the last byte to the stack").
  void send(Bytes data, std::function<void()> on_accepted = nullptr);

  /// Moves up to `max` received bytes into `out`; returns the count.
  std::size_t recv(Bytes& out, std::size_t max = SIZE_MAX);
  std::size_t rx_available() const { return rx_buf_.size(); }

  /// Graceful close of our sending direction (FIN after queued data).
  void close();
  /// Immediate teardown with RST.
  void abort();

  void set_nodelay(bool on) { nodelay_ = on; }

  // ---------------------------------------------------------- callbacks
  std::function<void()> on_established;
  std::function<void()> on_readable;
  /// Peer closed its sending direction (we saw its FIN).
  std::function<void()> on_peer_fin;
  std::function<void(CloseReason)> on_closed;

  // ------------------------------------------------------------- state
  TcpState state() const { return state_; }
  /// The params this connection was created with.
  const TcpParams& params() const { return *params_; }
  const ConnKey& key() const { return key_; }
  /// Monotonic id assigned at construction, unique for the owning layer's
  /// lifetime. Applications key session tables on this instead of the
  /// Connection* (which the allocator recycles) or the 4-tuple (which a
  /// reconnecting client reuses).
  std::uint64_t id() const { return id_; }
  /// RCV.NXT as an absolute 32-bit sequence number (IRS + offset): the
  /// ACK field of every segment we send. The layer's TIME_WAIT recycle
  /// check compares a new SYN's ISN against this: strictly newer means no
  /// old segment can enter the new window.
  Seq32 rcv_nxt_abs() const { return seq_add(irs_, static_cast<std::int64_t>(rcv_nxt_)); }
  /// True when this connection is in TIME_WAIT and a SYN with sequence
  /// `syn_seq` is strictly newer than RCV.NXT: no old segment can then
  /// enter the new incarnation's window, so a listener may recycle the
  /// 4-tuple (TcpLayer::maybe_recycle_time_wait). The failover bridges
  /// let exactly such a SYN through, so they are no stricter than TCP.
  bool syn_recycles_time_wait(Seq32 syn_seq) const {
    return state_ == TcpState::kTimeWait && rcv_rel(syn_seq) > 0;
  }
  /// PacketBuffer bytes currently pinned by the out-of-order stash.
  std::size_t ooo_bytes_pinned() const { return ooo_bytes_; }
  bool failover_flagged() const { return failover_flagged_; }
  std::uint64_t bytes_sent_total() const { return bytes_sent_total_; }
  /// In-order payload bytes taken in: RCV.NXT less the SYN and the FIN.
  std::uint64_t bytes_received_total() const {
    return rcv_nxt_ == 0 ? 0 : rcv_nxt_ - 1 - (peer_fin_ ? 1 : 0);
  }
  std::uint32_t effective_mss() const { return eff_mss_; }
  /// Receive window most recently advertised to the peer.
  std::uint16_t advertised_window() const { return last_adv_wnd_; }
  std::size_t send_buffer_used() const { return send_buf_.size(); }
  std::size_t send_queue_pending() const;
  /// Heap bytes reserved by the send buffer, the receive buffer and the
  /// write queue (their capacity, not their contents).
  std::size_t buffer_capacity() const;

  /// Introspection snapshot (diagnostics, tests, benches).
  struct Info {
    std::uint64_t timeouts = 0;          // RTO firings
    std::uint64_t fast_retransmits = 0;  // 3-dupack recoveries
    std::uint64_t segments_sent = 0;
    std::uint64_t segments_received = 0;
    SimDuration srtt = 0;
    SimDuration rto = 0;
    std::uint32_t cwnd = 0;
    std::uint32_t ssthresh = 0;
    std::uint32_t snd_wnd = 0;
    std::uint64_t bytes_in_flight = 0;
  };
  Info info() const;

  // --------------------------------------------- driven by the TcpLayer
  void start_active_open();
  void start_passive_open(const TcpSegment& syn);
  void handle_segment(const TcpSegment& seg);
  /// Rebinds the local IP (IP takeover rekey; see DESIGN.md §5.2).
  void rebind_local_ip(ip::Ipv4 new_ip) { key_.local_ip = new_ip; }
  /// Rebinds the remote IP (the peer moved, Mosh-style; PR 10). Sequence
  /// state is address-independent and carries over untouched.
  void rebind_remote_ip(ip::Ipv4 new_ip) { key_.remote_ip = new_ip; }
  /// Client side of a move: after the local rebind, stamp the old address
  /// in a migrate-from option on every outgoing segment until the peer
  /// answers at the new address, then send an immediate bare ACK so the
  /// peer learns of the move without waiting for data.
  void begin_migration(ip::Ipv4 old_ip) {
    migrate_pending_from_ = old_ip;
    send_ack_now();
  }
  bool migration_pending() const { return migrate_pending_from_ != ip::Ipv4::any(); }
  /// Takeover kick: after an IP takeover moved this connection onto a new
  /// path, send now instead of waiting for a timer. Like an RTO without
  /// its penalties: the unacked window goes out again (go-back-N, from
  /// the restart window min(cwnd, IW)), or the SYN(-ACK) in the
  /// handshake states, or a pure ACK when nothing is outstanding — with
  /// no RTO backoff, no ssthresh cut, no retry counted, and the running
  /// RTT measurement dropped (Karn). Returns
  /// false, having done nothing, in TIME_WAIT and CLOSED.
  bool kick();

 private:
  // One spelling per sequence quantity: a send offset goes on the wire as
  // ISS + offset, and snd_offset() unwraps one back around SND.UNA; an
  // inbound number is measured from RCV.NXT (negative: old).
  Seq32 snd_seq(std::uint64_t off) const { return seq_add(iss_, static_cast<std::int64_t>(off)); }
  std::int64_t snd_offset(Seq32 seq) const {
    return static_cast<std::int64_t>(snd_una_) + seq_diff(seq, snd_seq(snd_una_));
  }
  std::int32_t rcv_rel(Seq32 seq) const { return seq_diff(seq, rcv_nxt_abs()); }
  /// Free receive-buffer bytes: the window we advertise, clamped to the
  /// 16-bit field by segment_at().
  std::size_t recv_room() const { return params_->recv_buf - rx_buf_.size(); }

  // Segment emission.
  /// The one header builder: ports, seq of send offset `offset`, RCV.NXT
  /// when `flags` has ACK, the current window; no payload.
  TcpSegment segment_at(std::uint64_t offset, std::uint8_t flags) const;
  /// `len` bytes of the send buffer from `offset`, FIN if it ends there.
  TcpSegment data_segment(std::uint64_t offset, std::uint32_t len) const;
  void emit(TcpSegment seg);
  void send_syn(bool with_ack);
  void send_ack_now();
  /// RFC 5961 challenge ACK: a pure ACK of the current state, sent only if
  /// the layer's global and this connection's per-connection rate budgets
  /// allow it (tcp.challenge_acks / tcp.challenge_acks_limited).
  void send_challenge_ack();
  void send_rst();
  void schedule_ack();

  /// ICMP fragmentation-needed for this connection. Validates the quoted
  /// sequence number against in-flight data and clamps the claimed MTU at
  /// params.min_pmtu before shrinking eff_mss_. Returns false when the
  /// message was rejected as implausible (forged or stale).
  bool on_icmp_frag_needed(Seq32 quoted_seq, std::uint32_t claimed_mtu);

  // Output engine.
  void try_send();
  std::uint32_t in_flight() const { return static_cast<std::uint32_t>(snd_nxt_ - snd_una_); }
  std::uint32_t usable_window() const;
  void pump_app_writes();
  bool writes_queued() const { return app_writes_ && !app_writes_->empty(); }
  /// Bytes the send buffer can take before reaching params.send_buf.
  std::size_t send_space() const;
  /// A write of `size` bytes issued at `enqueued_at` is wholly in the send
  /// buffer: schedules its completion callback, if any.
  void accepted(SimTime enqueued_at, std::size_t size, std::function<void()> on_accepted);
  bool fin_ready_at(std::uint64_t offset) const;

  // The connection timer. One sim::Timer serves, by state, the RTO (which
  // also probes a closed window: Linux's ICSK_TIME_PROBE0 in place of
  // BSD's persist timer), keepalive (only while nothing is outstanding,
  // as Linux's tcp_keepalive_timer) and TIME_WAIT's 2·MSL. The delayed
  // ACK keeps a timer of its own.
  /// A retransmission or window probe is pending (not keepalive, not
  /// TIME_WAIT).
  bool rto_pending() const {
    return timer_.armed() && !keepalive_due_ && state_ != TcpState::kTimeWait;
  }
  void arm_rto();
  /// Stops the RTO: keepalive, where enabled, takes the timer back.
  void stop_rto();
  /// The one timer callback: dispatches on state_ and keepalive_due_.
  void on_timer();
  /// RTO from the RFC 6298 estimate (initial RTO before a sample).
  void reset_rto();
  void on_rto();
  /// Rewinds SND.NXT to SND.UNA and resends from there (RTO and kick).
  void go_back_n();
  void retransmit_head();
  /// Zero-window probe: one byte at SND.NXT past the closed window, or
  /// the FIN when no data waits (RFC 9293 §3.8.6.1).
  void send_window_probe();
  /// Retransmission or keepalive limit reached: reset the peer unless
  /// still in SYN_SENT (BSD's tcp_drop()), then close with kTimeout.
  void give_up();
  void rtt_sample_maybe(std::uint64_t acked_to);

  // Inbound processing helpers.
  /// Takes the peer's SYN: its ISN, MSS option and window.
  void take_peer_syn(const TcpSegment& syn);
  /// Returns false when the ACK is unacceptable under RFC 5961 §5.2 (a
  /// stale duplicate or a blind probe) — the caller must then drop the
  /// whole segment, payload included: otherwise spoofed data riding an
  /// unacceptable ACK would still reach the receive queue.
  bool process_ack(const TcpSegment& seg);
  void process_data(const TcpSegment& seg);
  void process_fin(const TcpSegment& seg);
  void deliver_in_order();
  void on_window_open();

  // Out-of-order stash accounting (pinned-byte budget).
  using OooMap = std::map<std::uint64_t, wire::PacketBuffer>;
  bool stash_ooo(std::uint64_t off, wire::PacketBuffer data);
  OooMap::iterator drop_ooo_entry(OooMap::iterator it);
  void release_all_ooo();

  // Lifecycle.
  /// Every state change goes through here (one place to trace or check
  /// a transition).
  void set_state(TcpState s);
  void enter_established();
  void enter_time_wait();
  void teardown(CloseReason reason);
  /// Frees the capacity of the send buffer, the receive buffer and the
  /// write queue where they are empty (TIME_WAIT and CLOSED keep no use
  /// for it). Unread receive data stays.
  void release_drained_buffers();
  void maybe_advance_close_states();
  /// Releases this connection's listen-backlog slot (first exit from
  /// SYN_RCVD only; idempotent).
  void leave_embryonic();

  // Keepalive on the connection timer.
  /// (Re)starts the idle clock in ESTABLISHED and CLOSE_WAIT unless a
  /// retransmission or probe holds the timer.
  void arm_keepalive();
  void on_keepalive();

  /// fin_offset_ before our FIN has been sent.
  static constexpr std::uint64_t kNoOffset = UINT64_MAX;

  // Members are grouped by size, not by topic, so there is no padding
  // between them: storm holds three Connections per client connection
  // (client, primary, secondary). ConnectionLayout.StaysWithinTheStormBudget
  // pins the size.

  TcpLayer& owner_;
  /// The layer's snapshot at creation (the layer keeps it alive); a later
  /// mutable_params() edit does not reach this connection.
  const TcpParams* params_;
  std::uint64_t id_;

  // --- send side (all offsets are 64-bit unwrapped stream positions;
  // offset 0 == ISS, so SYN occupies [0,1) and data starts at 1).
  std::uint64_t snd_una_ = 0;  // oldest unacknowledged offset
  std::uint64_t snd_nxt_ = 0;  // next offset to send
  std::uint64_t highest_sent_ = 0;  // high-water mark (survives RTO rewinds)
  ByteRing send_buf_;          // its first byte is stream offset send_base_
  std::uint64_t send_base_ = 1;
  struct PendingWrite {
    Bytes data;
    std::size_t moved = 0;
    std::function<void()> on_accepted;
    SimTime enqueued_at = 0;  // when the app issued the send()
  };
  // Only writes the send buffer could not take whole when they were
  // issued (send() appends what fits directly), so a connection whose
  // writes fit never allocates the queue.
  std::unique_ptr<std::vector<PendingWrite>> app_writes_;
  std::uint64_t fin_offset_ = kNoOffset;  // stream offset of our FIN
  std::uint64_t bytes_sent_total_ = 0;

  // --- receive side (offset 0 == IRS; data starts at 1).
  std::uint64_t rcv_nxt_ = 0;
  ByteRing rx_buf_;
  // Out-of-order runs by offset: zero-copy slices of the frames the data
  // arrived in, retained until the gap below them fills. The map is made
  // on the first out-of-order segment; most connections never see one.
  // ooo_bytes_ (below) is the pinned-slice total, bounded by
  // params_->ooo_budget_bytes and mirrored into the layer-wide
  // tcp.conn_bytes_pinned gauge.
  std::unique_ptr<OooMap> ooo_;
  SimTime last_data_rx_ = 0;  // when in-order data last arrived

  // --- RTO (RFC 6298).
  SimDuration srtt_ = 0;
  SimDuration rttvar_ = 0;
  SimDuration rto_;
  std::uint64_t rtt_offset_ = 0;
  SimTime rtt_start_ = 0;

  sim::Timer timer_;  // RTO / window probe, keepalive, TIME_WAIT
  sim::Timer delack_timer_;

  // Diagnostics (the timeout and fast-retransmit counts are 32-bit, below).
  std::uint64_t stat_segments_sent_ = 0;
  std::uint64_t stat_segments_received_ = 0;

  // --- 32-bit and smaller fields.
  ConnKey key_;
  /// While not any(), outgoing segments carry the migrate-from option
  /// naming this (previous) local address; cleared by the first inbound
  /// segment after the move — it arrived at the new address, so the peer
  /// knows.
  ip::Ipv4 migrate_pending_from_;
  Seq32 iss_ = 0;
  Seq32 irs_ = 0;
  Seq32 wl1_ = 0;  // SEG.SEQ of the last window update
  Seq32 wl2_ = 0;  // SEG.ACK of the last window update
  std::uint32_t ooo_bytes_ = 0;  // <= params_->ooo_budget_bytes
  std::uint32_t eff_mss_;
  std::uint32_t cwnd_;
  std::uint32_t ssthresh_ = 0x40000000;
  std::uint32_t challenge_used_ = 0;
  // Per-connection challenge-ACK budget epoch, refreshed lazily when the
  // layer's interval epoch advances (no per-connection timer).
  std::uint32_t challenge_epoch_ = 0;
  std::uint32_t stat_timeouts_ = 0;
  std::uint32_t stat_fast_retransmits_ = 0;
  std::uint16_t snd_wnd_ = 0;      // peer's advertised window (16-bit field)
  std::uint16_t max_snd_wnd_ = 0;  // largest window the peer ever advertised
  std::uint16_t last_adv_wnd_ = 0;
  // Counters bounded by their TcpParams limit (dupacks_ saturates).
  std::uint16_t dupacks_ = 0;
  std::uint16_t segs_since_ack_ = 0;
  std::uint16_t quickack_left_ = 0;  // initialized from params in the constructor
  std::uint16_t retries_ = 0;
  std::uint16_t keepalive_unanswered_ = 0;
  TcpState state_ = TcpState::kClosed;
  bool failover_flagged_ : 1;
  bool nodelay_ : 1 = false;
  /// True while this passive-open connection occupies a slot in its
  /// listener's backlog (set by TcpLayer::handle_for_listener, cleared on
  /// the first exit from SYN_RCVD).
  bool embryonic_ : 1 = false;
  bool fin_queued_ : 1 = false;
  bool close_requested_ : 1 = false;  // close() arrived during the handshake
  bool peer_fin_ : 1 = false;  // the peer's FIN is in RCV.NXT
  bool rtt_valid_ : 1 = false;
  bool rtt_measuring_ : 1 = false;
  /// Delayed-ACK pingpong mode: set when we send data within a delayed-ACK
  /// interval of receiving some, cleared when the delayed-ACK timer fires.
  bool pingpong_ : 1 = false;
  /// timer_ is armed for keepalive, not for a retransmission or probe.
  bool keepalive_due_ : 1 = false;

  friend class TcpLayer;
};

}  // namespace tfo::tcp
