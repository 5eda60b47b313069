// The per-host TCP layer: connection demux, listeners, ISN/ephemeral-port
// generation, RST handling — and the segment *taps* at the TCP/IP boundary
// where the failover bridges attach (the paper's bridge sublayer sits
// "between the TCP layer and the IP layer", §1).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/flat_map.hpp"
#include "common/rng.hpp"
#include "ip/ip_layer.hpp"
#include "obs/obs.hpp"
#include "sim/simulator.hpp"
#include "sim/timer.hpp"
#include "tcp/connection.hpp"
#include "tcp/conn_key.hpp"
#include "tcp/params.hpp"
#include "tcp/segment.hpp"

namespace tfo::tcp {

enum class TapVerdict { kContinue, kConsume, kDrop };

/// Outbound tap: sees every segment this host's TCP layer is about to
/// hand to IP, with mutable addresses. Runs before serialization, so any
/// mutation is checksummed correctly on the wire.
using OutboundTap = std::function<TapVerdict(TcpSegment&, ip::Ipv4& src, ip::Ipv4& dst)>;

/// Inbound tap: sees every TCP segment after parse/checksum-verify and
/// before connection demux.
using InboundTap =
    std::function<TapVerdict(TcpSegment&, ip::Ipv4& src, ip::Ipv4& dst, const ip::RxMeta&)>;

using TapId = std::uint64_t;

/// Options applied to sockets created by connect()/listen().
struct SocketOptions {
  bool nodelay = false;
  /// The paper's §7 method 1: mark this socket's connection as a TCP
  /// failover connection.
  bool failover = false;
  /// Listen backlog override (embryonic-connection bound); 0 uses
  /// TcpParams::listen_backlog.
  std::uint32_t backlog = 0;
};

class TcpLayer {
 public:
  using AcceptHandler = std::function<void(std::shared_ptr<Connection>)>;

  TcpLayer(sim::Simulator& sim, ip::IpLayer& ip, TcpParams params = {},
           std::uint64_t seed = 1);

  sim::Simulator& simulator() { return sim_; }
  ip::IpLayer& ip() { return ip_; }
  const TcpParams& params() const { return params_; }
  /// Edits apply to connections created afterwards; an open connection
  /// keeps the params it was created with.
  TcpParams& mutable_params() { return params_; }
  /// The params a new connection takes: one immutable copy shared by
  /// every connection created while params() is unchanged, re-made on the
  /// first connection after a mutable_params() edit. Every copy lives as
  /// long as the layer, so a connection holds a plain pointer to it.
  const TcpParams* params_snapshot();

  /// Starts listening on `port`; `on_accept` fires once per connection
  /// when it reaches ESTABLISHED (the handler may close its listener).
  void listen(std::uint16_t port, AcceptHandler on_accept, SocketOptions opts = {});
  /// Stops accepting on `port`. Established connections are unaffected; a
  /// connection still in SYN_RCVD is reset when its handshake completes.
  void close_listener(std::uint16_t port);
  /// True if a listener exists on `port` with the failover socket option
  /// set (§7 method 1; the secondary bridge consults this to classify
  /// snooped SYNs).
  bool listener_is_failover(std::uint16_t port) const;

  /// Active open to `remote`. The returned connection is in SYN_SENT;
  /// observe on_established / on_closed.
  std::shared_ptr<Connection> connect(ip::Ipv4 remote_ip, std::uint16_t remote_port,
                                      SocketOptions opts = {},
                                      std::uint16_t local_port = 0);

  std::shared_ptr<Connection> find(const ConnKey& key) const;
  std::size_t connection_count() const { return conns_.size(); }
  /// Heap bytes of the demux and port-use tables' slot arrays.
  std::size_t table_bytes() const {
    return conns_.capacity() * decltype(conns_)::kSlotBytes +
           port_use_.capacity() * decltype(port_use_)::kSlotBytes;
  }

  /// Iterates over all live connections (diagnostics; bridge attachment
  /// to a host with pre-existing connections).
  void for_each_connection(const std::function<void(const Connection&)>& fn) const {
    conns_.for_each(
        [&fn](const ConnKey&, const std::shared_ptr<Connection>& c) { fn(*c); });
  }

  TapId add_outbound_tap(OutboundTap tap);
  TapId add_inbound_tap(InboundTap tap);
  void remove_tap(TapId id);

  /// Emission path used by connections; runs outbound taps then IP send.
  void send_segment(TcpSegment seg, ip::Ipv4 src, ip::Ipv4 dst);

  /// Emission bypassing taps (bridge re-emission of merged segments).
  /// Takes the segment by value: callers that std::move get an in-place
  /// header prepend into the payload's headroom; callers that pass an
  /// lvalue pay one storage share plus a copy-on-write at serialization.
  void send_segment_raw(TcpSegment seg, ip::Ipv4 src, ip::Ipv4 dst);

  /// Rebinds every connection whose local address is `from` — and for
  /// which `filter` returns true — to `to`, rekeying the demux table
  /// (IP takeover support, DESIGN.md §5.2). A null filter matches all.
  /// Returns the moved connections in connection-id order.
  std::vector<std::shared_ptr<Connection>> rekey_local_address(
      ip::Ipv4 from, ip::Ipv4 to,
      const std::function<bool(const Connection&)>& filter = {});

  /// Client side of a mid-connection move (Mosh-style): rekeys every
  /// connection local to `from` onto `to` and puts each into migration
  /// mode — outgoing segments carry a migrate-from option naming the old
  /// address (and a bare ACK announces the move immediately) until the
  /// peer answers at the new address. Call after the IP layer has been
  /// reconfigured for the new subnet.
  void migrate_local_address(ip::Ipv4 from, ip::Ipv4 to);

  /// Test hook: force the ISN of the next connection created.
  void set_next_isn(Seq32 isn) { forced_isn_ = isn; }

  /// Test hook: restrict the ephemeral port range (inclusive). Makes
  /// port-space exhaustion reachable in a unit test without opening
  /// 16384 connections.
  void set_ephemeral_range(std::uint16_t lo, std::uint16_t hi) {
    eph_lo_ = lo;
    eph_hi_ = hi;
    next_ephemeral_ = lo;
  }

  /// Attaches this layer to a host's observability hub (null detaches).
  /// Called by apps::Host at construction; standalone layers run bare.
  void set_observability(obs::Hub* hub);
  obs::Hub* observability() const { return obs_; }

  /// RFC 6528-style ISN: a monotonic clock component plus a per-4-tuple
  /// keyed offset. Successive connections on the same tuple always get a
  /// strictly increasing ISN — the monotonicity TIME_WAIT recycling keys
  /// on. (set_next_isn overrides the next call.)
  Seq32 generate_isn(const ConnKey& key);
  /// Returns 0 when the ephemeral space is exhausted (the caller's
  /// connect() fails like a real stack's EADDRNOTAVAIL, instead of
  /// asserting out of a churn experiment).
  std::uint16_t allocate_ephemeral_port();

  // Internal (Connection support).
  /// `id` guards the deferred erase against ABA: if the 4-tuple was
  /// recycled before the erase runs, the new connection must survive.
  void connection_closed(const ConnKey& key, std::uint64_t id);
  /// An embryonic (SYN_RCVD) connection left the listen queue on `port`
  /// (established, timed out, or reset) — frees one backlog slot.
  void note_embryonic_done(std::uint16_t port);
  /// A passive-open connection left SYN_RCVD for ESTABLISHED: hands it to
  /// the accept handler of the listener on its local port, or resets it
  /// when that listener has been closed.
  void accept_established(Connection& conn);
  /// Monotonic per-layer connection id — never reused, unlike the 4-tuple
  /// or the Connection's address. Applications key session state on this
  /// (see src/apps) so a recycled allocation can't inherit stale state.
  std::uint64_t allocate_conn_id() { return next_conn_id_++; }
  /// Connections report PacketBuffer bytes they pin (out-of-order slices)
  /// so the aggregate is visible as the tcp.conn_bytes_pinned gauge.
  void note_pinned_delta(std::int64_t delta);
  /// A connection dropped an out-of-order segment because stashing it
  /// would exceed params().ooo_budget_bytes.
  void note_ooo_budget_drop();
  /// RFC 5961 §7 rate limiting: charges one challenge ACK against both the
  /// layer-wide and `conn`'s per-connection budget for the current
  /// interval. Returns false (tcp.challenge_acks_limited) when either
  /// budget is exhausted; true (tcp.challenge_acks) when the ACK may go
  /// out. Budgets refresh when the interval timer — one timing-wheel slot
  /// per busy interval, not one per connection — advances the epoch.
  bool approve_challenge_ack(Connection& conn);

 private:
  struct Listener {
    /// Shared so accept_established can pin it across the call.
    std::shared_ptr<const AcceptHandler> on_accept;
    SocketOptions opts;
    /// Embryonic (SYN_RCVD) connections currently charged to this
    /// listener's backlog.
    std::uint32_t pending = 0;
    // Per-listener accept-rate counters (tcp.listen.<port>.*), resolved
    // in listen()/set_observability; null when no hub is attached.
    obs::Counter* ctr_accepted = nullptr;
    obs::Counter* ctr_overflows = nullptr;
  };

  void on_datagram(const ip::IpDatagram& dgram, const ip::RxMeta& meta);
  /// ICMP fragmentation-needed: validated against the quoted connection's
  /// in-flight data before any MSS change (tcp.icmp_rejected otherwise).
  void on_icmp(const ip::IpDatagram& dgram, const ip::RxMeta& meta);
  void handle_for_listener(const TcpSegment& seg, ip::Ipv4 src, ip::Ipv4 dst);
  void send_rst_for(const TcpSegment& seg, ip::Ipv4 src, ip::Ipv4 dst);
  void insert_conn(const ConnKey& key, std::shared_ptr<Connection> conn);
  /// Drops one reference to `port` in port_use_, erasing the entry when
  /// the count reaches zero (the map holds live ports only).
  void release_port(std::uint16_t port);
  void resolve_listener_counters(std::uint16_t port, Listener& l);
  /// Runs the oldest deferred erase queued by connection_closed.
  void erase_closed();
  /// BSD-style TIME_WAIT recycling: a new SYN whose ISN is strictly newer
  /// than everything the old incarnation acknowledged evicts the
  /// TIME_WAIT connection and re-enters the listen path.
  bool maybe_recycle_time_wait(const std::shared_ptr<Connection>& conn,
                               const TcpSegment& seg);

  sim::Simulator& sim_;
  ip::IpLayer& ip_;
  TcpParams params_;
  /// Every snapshot handed out, newest last.
  std::vector<std::unique_ptr<const TcpParams>> params_snapshots_;
  Rng rng_;
  /// The demux table. Its slot order is hash-dependent: sweeps whose side
  /// effects reach the wire collect and sort by a stable key first.
  FlatMap<ConnKey, std::shared_ptr<Connection>, ConnKeyHash> conns_;
  /// Live-connection refcount per local port: O(1) collision checks in
  /// allocate_ephemeral_port (the old scan over conns_ made opening N
  /// connections O(N²) — fatal at storm scale). Holds only ports that are
  /// actually in use — the allocator probes with find() and never inserts,
  /// so a churn run's port scan cannot bloat the table with zero entries,
  /// and an idle host's footprint is O(live ports), not O(65536).
  struct PortHash {
    std::size_t operator()(std::uint16_t p) const noexcept {
      std::uint64_t x = p;
      x *= 0x9E3779B97F4A7C15ull;
      x ^= x >> 32;
      return static_cast<std::size_t>(x);
    }
  };
  FlatMap<std::uint16_t, std::uint32_t, PortHash> port_use_;
  std::unordered_map<std::uint16_t, Listener> listeners_;
  std::vector<std::pair<TapId, OutboundTap>> out_taps_;
  std::vector<std::pair<TapId, InboundTap>> in_taps_;
  TapId next_tap_id_ = 1;
  std::uint16_t eph_lo_ = 49152;
  std::uint16_t eph_hi_ = 65535;
  std::uint16_t next_ephemeral_ = 49152;
  /// Key folded into every generated ISN's per-tuple offset (RFC 6528's
  /// F(4-tuple, secret)); drawn from the layer seed at construction.
  std::uint64_t isn_secret_ = 0;
  std::uint64_t next_conn_id_ = 1;
  /// Deferred erases (key, connection id), oldest first from
  /// closed_head_; each has one pending zero-delay event.
  std::vector<std::pair<ConnKey, std::uint64_t>> closed_;
  std::size_t closed_head_ = 0;
  std::int64_t pinned_bytes_ = 0;
  std::optional<Seq32> forced_isn_;

  /// Challenge-ACK rate limiting (RFC 5961 §7). The epoch counts completed
  /// intervals; connections compare their own epoch against it to refresh
  /// per-connection budgets lazily. The timer runs only while challenges
  /// are being issued (armed on first use per interval).
  sim::Timer challenge_timer_;
  std::uint32_t challenge_epoch_ = 1;
  std::uint32_t challenge_global_used_ = 0;

  // Observability handles (null when no hub is attached). The counter
  // pointers are resolved once in set_observability — the per-segment
  // paths must not pay a map lookup.
  obs::Hub* obs_ = nullptr;
  obs::Counter* ctr_segments_sent_ = nullptr;
  obs::Counter* ctr_segments_received_ = nullptr;
  obs::Counter* ctr_segments_malformed_ = nullptr;
  obs::Counter* ctr_rst_sent_ = nullptr;
  obs::Counter* ctr_conns_opened_ = nullptr;
  obs::Counter* ctr_conns_accepted_ = nullptr;
  obs::Counter* ctr_ooo_budget_drops_ = nullptr;
  obs::Counter* ctr_listen_overflows_ = nullptr;
  obs::Counter* ctr_tw_recycled_ = nullptr;
  obs::Counter* ctr_remote_rekeys_ = nullptr;
  obs::Counter* ctr_migrates_rejected_ = nullptr;
  obs::Counter* ctr_challenge_acks_ = nullptr;
  obs::Counter* ctr_challenge_limited_ = nullptr;
  obs::Counter* ctr_icmp_rejected_ = nullptr;
  obs::Gauge* gau_connections_ = nullptr;
  obs::Gauge* gau_pinned_bytes_ = nullptr;
};

}  // namespace tfo::tcp
