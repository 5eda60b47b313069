// Tunable parameters of the TCP implementation.
#pragma once

#include <cstdint>

#include "common/time.hpp"

namespace tfo::tcp {

struct TcpParams {
  /// Maximum segment size we advertise and never exceed.
  std::uint16_t mss = 1460;
  /// Send/receive buffer capacities. The paper's 64 KByte send buffer is
  /// what flattens Figure 3 below 32 KB messages.
  std::size_t send_buf = 65536;
  std::size_t recv_buf = 65536;

  /// Nagle's algorithm default; per-socket TCP_NODELAY overrides.
  bool nagle = true;

  /// Cost of copying application data into the socket send buffer, in
  /// nanoseconds per byte (the user→kernel copy of send()). 0 models an
  /// infinitely fast copy; ~8 ns/B matches the paper's late-90s hosts and
  /// produces Figure 3's sub-buffer slope.
  std::int64_t send_copy_ns_per_byte = 0;

  /// Delayed-ACK interval and the every-Nth-segment immediate-ACK rule.
  SimDuration delayed_ack = milliseconds(100);
  int ack_every_segments = 2;
  /// Immediate ACKs for the first N data segments of a connection
  /// (Linux-style initial quickack), so the peer's slow start is not
  /// stalled by delayed-ACK parity.
  int quickack_segments = 8;

  /// Retransmission timeout bounds (RFC 6298 computation in between).
  SimDuration min_rto = milliseconds(200);
  SimDuration max_rto = seconds(60);
  SimDuration initial_rto = seconds(1);

  /// Maximum segment lifetime; TIME_WAIT holds for 2*MSL. Kept short by
  /// default so experiments with thousands of connections stay fast.
  SimDuration msl = milliseconds(500);

  /// Default listen backlog: the number of embryonic (SYN_RCVD)
  /// connections a listener may hold at once. SYNs beyond the bound are
  /// dropped silently (tcp.listen_overflows) — the client's SYN
  /// retransmission retries once the queue drains, exactly like a real
  /// stack under a burst. Per-listener override: SocketOptions::backlog.
  std::uint32_t listen_backlog = 128;

  /// Cap on the PacketBuffer bytes one connection may pin in its
  /// out-of-order stash. Each stashed slice shares (pins) the storage of
  /// the frame it arrived in, so without a cap a reordering burst across
  /// 100k connections multiplies frame lifetimes unboundedly. Segments
  /// beyond the budget are dropped — TCP-legal: the dup-ACK still goes
  /// out and the sender's retransmission delivers the data in order.
  std::size_t ooo_budget_bytes = 256 * 1024;

  /// Congestion control (slow start + AIMD). Disable for an unlimited
  /// window (useful in controlled unit tests).
  bool congestion_control = true;
  std::uint32_t initial_cwnd_segments = 2;
  int dupack_threshold = 3;

  /// SYN retransmission limit before giving up on connect.
  int max_syn_retries = 5;
  /// Data retransmission limit before aborting the connection.
  int max_retries = 12;

  /// RFC 5961 challenge ACKs: an in-window-but-inexact RST, any SYN on a
  /// synchronized connection, and an ACK beyond everything ever sent are
  /// each answered with a rate-limited pure ACK instead of a teardown (or
  /// silence). The budgets bound the ACK amplification an off-path
  /// attacker can extract: a global per-layer allowance plus a
  /// per-connection allowance, both refreshed every interval (the shape
  /// of Linux's tcp_challenge_ack_limit).
  std::uint32_t challenge_ack_limit = 1000;
  std::uint32_t challenge_ack_per_conn = 10;
  SimDuration challenge_ack_interval = seconds(1);

  /// PMTUD hardening: an ICMP fragmentation-needed can never push the
  /// effective path MTU below this floor (RFC 1191's lowest common
  /// plateau, the same clamp Linux applies), so a forged ICMP cannot
  /// collapse the MSS to a throughput-killing sliver. The quoted segment
  /// must additionally match in-flight data or the message is rejected
  /// outright (tcp.icmp_rejected).
  std::uint16_t min_pmtu = 552;

  /// TCP keepalive: after `keepalive_idle` of silence on an established
  /// connection, send probes every `keepalive_interval`; abort after
  /// `keepalive_probes` unanswered probes. 0 idle disables (the default,
  /// like real stacks without SO_KEEPALIVE).
  SimDuration keepalive_idle = 0;
  SimDuration keepalive_interval = seconds(5);
  int keepalive_probes = 3;

  /// TcpLayer::params_snapshot() makes a new copy only when this
  /// says the layer's params changed since the last one.
  friend bool operator==(const TcpParams&, const TcpParams&) = default;
};

}  // namespace tfo::tcp
