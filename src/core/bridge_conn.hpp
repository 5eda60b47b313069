// Per-connection merge state at the primary server bridge (§3 of the
// paper): the primary and secondary output queues, sequence-number
// synchronization, ACK/window minimum selection, and the connection
// establishment/termination bookkeeping of §7/§8.
//
// Sequence spaces. The client is synchronized to the *secondary's*
// sequence numbers (§3.3): the bridge subtracts Δseq = iss_P − iss_S from
// everything the primary's TCP layer emits, and adds it to the ACK field
// of everything the client sends before the primary's TCP layer sees it.
// Internally we express this with 64-bit unwrapped stream offsets —
// offset 0 is the server SYN in either space, so a byte at offset k of
// P's stream and a byte at offset k of S's stream are replicas of the
// same application byte, and wire sequence numbers are recovered as
// iss_X + k. The arithmetic is identical to the paper's Δseq form but
// immune to 32-bit wraparound bookkeeping errors.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "common/seq32.hpp"
#include "core/output_queue.hpp"
#include "obs/obs.hpp"
#include "sim/simulator.hpp"
#include "tcp/conn_key.hpp"
#include "tcp/segment.hpp"

namespace tfo::core {

/// How the primary bridge disposes of a client-bound segment or event.
class BridgeConn;

/// Emission/teardown interface the owning bridge provides to connections.
class BridgeConnSink {
 public:
  virtual ~BridgeConnSink() = default;
  /// Sends a finished segment to the wire, bypassing the bridge's own
  /// taps. `src`/`dst` are IP endpoints.
  virtual void emit(const tcp::TcpSegment& seg, ip::Ipv4 src, ip::Ipv4 dst) = 0;
  /// Replica divergence detected: the connection cannot be kept.
  virtual void divergence(const tcp::ConnKey& key) = 0;
  /// The connection is fully closed; the bridge may tombstone it.
  virtual void fully_closed(const tcp::ConnKey& key) = 0;
};

/// Observability handles every BridgeConn of one bridge shares: resolved
/// once by the owning bridge, so opening a connection does no registry
/// lookup. `hub` receives timeline events stamped from `sim`.
struct BridgeConnObs {
  obs::Hub* hub = nullptr;
  sim::Simulator* sim = nullptr;
  obs::Counter* retransmits = nullptr;
  obs::Counter* empty_acks = nullptr;
  obs::Histogram* merged_bytes = nullptr;
  obs::Gauge* pqueue_bytes = nullptr;
  obs::Gauge* pqueue_depth = nullptr;
  obs::Gauge* squeue_bytes = nullptr;
  obs::Gauge* squeue_depth = nullptr;
};

class BridgeConn {
 public:
  /// Where the connection stands; `set_phase()` is its only writer
  /// (PROTOCOL.md §4 lists the transitions).
  enum class Phase : std::uint8_t {
    kHandshake,      // waiting for both replicas' SYNs (§7)
    kMerging,        // merged SYN sent; both output queues merge (§3.2)
    kSoloHandshake,  // the secondary failed before the merged SYN went out (§6)
    kSolo,           // the primary's stream passes through, translated (§6)
    kClosed,         // fully closed, reset or diverged; awaiting removal
  };

  /// `key` is the client's view: local = a_p (primary), remote = client.
  BridgeConn(BridgeConnSink& sink, tcp::ConnKey key);

  // ------------------------------------------------------------- events
  /// Inbound segment from the remote endpoint (the unreplicated client,
  /// or server T for §7.2 connections). Mutates the ACK field into the
  /// primary's sequence space; the caller then forwards it to the
  /// primary's TCP layer.
  void on_remote_segment(tcp::TcpSegment& seg);

  /// Outbound segment from the primary's TCP layer (consumed: the bridge
  /// decides what actually reaches the wire).
  void on_primary_segment(const tcp::TcpSegment& seg);

  /// Diverted segment from the secondary (carried the orig-dst option).
  void on_secondary_segment(const tcp::TcpSegment& seg);

  /// §6: the secondary failed. Flushes the primary output queue and
  /// switches to solo mode (no delaying/merging, but the Δseq adjustment
  /// continues for the connection's lifetime).
  void on_secondary_failed();

  /// Rebinds the local (server-side) address of the connection key —
  /// used when the owning host is promoted to head of a replica chain
  /// and takes over the service address.
  void rebind_local(ip::Ipv4 addr) { key_.local_ip = addr; }
  /// Mobility: the remote endpoint moved to a new address (PR 10). All
  /// sequence/ACK state is address-independent and carries over.
  void rebind_remote(ip::Ipv4 addr) { key_.remote_ip = addr; }

  /// Attaches this connection to its bridge's observability handles
  /// (counters, queue gauges, timeline events); `obs` must outlive it.
  /// Bare connections (unit tests) simply skip instrumentation.
  void attach_obs(const BridgeConnObs* obs);

  // ---- bridge-constructed control segments (§8 teardown, divergence).
  /// Wire sequence number an unsolicited bridge-constructed segment
  /// (RST, pure ACK) must carry to land inside the remote's receive
  /// window: the connection's client-facing SND.NXT — `next_to_client_`
  /// translated into the secondary's sequence space, which the remote is
  /// synchronized to (§3.3). RFC 793 peers discard out-of-window
  /// segments silently, so `seq = 0` placeholders are never acceptable.
  tfo::Seq32 remote_facing_seq() const;
  /// Matching ACK value (the merged cumulative ACK translated into the
  /// remote's own sequence space); nullopt before the remote ISN is
  /// known, in which case the caller must omit the ACK flag.
  std::optional<tfo::Seq32> remote_facing_ack() const;

  /// Off-path hardening: true when `seg`'s sequence number is plausible
  /// for this connection's remote endpoint — a handshake SYN restating the
  /// known ISN (or fixing it, before it is known), or a sequence number
  /// within one window's slack of the merged cumulative ACK. The owning
  /// bridge consults this before letting a snooped segment mutate replica
  /// state (bridge.spoof_dropped); a blind injector that cannot guess the
  /// remote's sequence space fails it.
  bool remote_seq_plausible(const tcp::TcpSegment& seg) const;

  /// Same test for diverted segments claiming to come from the secondary:
  /// their sequence numbers live in the secondary's server→client stream,
  /// so a genuine one sits near the merge point (`next_to_client_`). A
  /// forged orig-dst segment that fails this must not reach the merge
  /// queues, where it would manufacture a spurious divergence teardown.
  bool secondary_seq_plausible(const tcp::TcpSegment& seg) const;

  // -------------------------------------------------------------- state
  Phase state() const { return phase_; }
  const tcp::ConnKey& key() const { return key_; }
  std::size_t primary_queue_bytes() const { return p_.queue.total_bytes(); }
  std::size_t secondary_queue_bytes() const { return s_.queue.total_bytes(); }
  std::uint64_t merged_bytes_sent() const { return next_to_client_ <= 1 ? 0 : next_to_client_ - 1; }
  /// When the owning bridge reaps this connection if the handshake has
  /// not completed by then (set once, at creation).
  SimTime handshake_deadline() const { return handshake_deadline_; }
  void set_handshake_deadline(SimTime t) { handshake_deadline_ = t; }

 private:
  /// One replica's half of the merge (§3.2). Offsets in `unwrap`, `queue`
  /// and `fin` are into the server stream (0 = its SYN, so `unwrap.wrap(0)`
  /// is its ISN); `ack` is into the remote's stream.
  struct Side {
    SeqUnwrapper unwrap;
    OutputQueue queue;
    std::optional<std::uint64_t> fin;
    std::uint64_t ack = 0;
    std::uint16_t mss = 0, syn_win = 0, win = 0;
    bool have_syn = false;
  };
  enum class Ending : std::uint8_t { kFullyClosed, kDivergence };

  /// The mirrored §3.2 steps for a segment from `self`'s TCP layer.
  void on_replica_segment(Side& self, const Side& other, const tcp::TcpSegment& seg);
  void forward_solo(const tcp::TcpSegment& seg, std::uint64_t offset);
  void set_phase(Phase next);
  void close(Ending why);
  bool solo() const { return phase_ == Phase::kSoloHandshake || phase_ == Phase::kSolo; }
  bool syn_sent() const { return phase_ == Phase::kMerging || phase_ == Phase::kSolo; }
  void try_send_syn();
  void send_syn();
  void pump();
  /// A client-bound segment at stream `offset` carrying the merged ACK and
  /// window (in solo, the primary's). The caller decides PSH.
  tcp::TcpSegment to_remote(std::uint64_t offset, wire::PacketBuffer payload, bool fin) const;
  void send_stream(std::uint64_t offset, wire::PacketBuffer payload, bool fin, bool psh);
  void emit_payload(std::uint64_t offset, wire::PacketBuffer payload, bool fin);
  void emit_empty_ack_if_progress();
  void note_server_ack(std::uint64_t& slot, const tcp::TcpSegment& seg);
  void check_fully_closed();
  // "The acknowledgment field contains ... whichever is smaller" (§3.2);
  // after the secondary fails the primary's own values are used (§6).
  std::uint64_t min_ack() const { return solo() ? p_.ack : std::min(p_.ack, s_.ack); }
  std::uint16_t min_win() const { return solo() ? p_.win : std::min(p_.win, s_.win); }

  BridgeConnSink& sink_;
  tcp::ConnKey key_;           // local = a_p, remote = client/T
  Phase phase_ = Phase::kHandshake;
  bool server_initiated_ = false;  // our SYNs carry no ACK (§7.2)
  bool remote_isn_known_ = false;
  bool fin_sent_to_remote_ = false;
  bool remote_acked_our_fin_ = false;  // §8
  std::uint16_t last_win_to_remote_ = 0;
  SimTime handshake_deadline_ = 0;

  Side p_, s_;
  SeqUnwrapper unwrap_c_;             // the remote's stream; wrap(0) is its ISN
  std::uint64_t next_to_client_ = 1;  // next stream offset to put on the wire
  std::uint64_t last_ack_to_remote_ = 0;
  std::optional<std::uint64_t> remote_fin_offset_;  // §8, in the remote stream

  // Observability (null when unattached). The key string is built only
  // when a timeline record is written.
  void note_event(obs::EventKind kind, std::string detail = {});
  const BridgeConnObs* obs_ = nullptr;
};

}  // namespace tfo::core
