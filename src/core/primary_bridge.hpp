// The primary server bridge (§3.2): intercepts the primary TCP layer's
// client-bound segments, merges them with the secondary's diverted
// segments, and is the only party that actually transmits to the client.
//
// Attachment points on the host:
//   * a TCP outbound tap consumes every failover-connection segment the
//     primary's TCP layer tries to send to the client;
//   * a TCP inbound tap (a) consumes segments carrying the orig-dst
//     option (the secondary's diverted traffic) and (b) rewrites the ACK
//     field of client segments into the primary's sequence space before
//     the TCP layer sees them.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "apps/host.hpp"
#include "common/flat_map.hpp"
#include "core/bridge_conn.hpp"
#include "core/failover_config.hpp"
#include "sim/timer.hpp"

namespace tfo::core {

class PrimaryBridge : public BridgeConnSink {
 public:
  /// `secondary_addr` is the replica this bridge merges with.
  PrimaryBridge(apps::Host& host, ip::Ipv4 secondary_addr, FailoverConfig cfg);
  ~PrimaryBridge() override;
  PrimaryBridge(const PrimaryBridge&) = delete;
  PrimaryBridge& operator=(const PrimaryBridge&) = delete;

  /// §6: the fault detector declared the secondary dead. Flushes every
  /// connection's primary output queue and switches them to solo mode.
  void on_secondary_failed();
  bool secondary_failed() const { return secondary_failed_; }

  // --- replica-chain support (daisy-chaining, the paper's §1 extension).

  /// When set, merged output is not sent to the remote endpoint but
  /// diverted (orig-dst option) to this upstream replica, which merges it
  /// again with its own stream. Unset (the default) for the chain head /
  /// two-way primary: merged output goes on the wire to the client.
  void set_upstream(std::optional<ip::Ipv4> upstream) { upstream_ = upstream; }

  /// Re-aims the "secondary" this bridge merges with (the next replica
  /// down the chain, or a recruit behind a solo tail). Clears solo mode:
  /// connections created from now on are bridged against `addr`;
  /// previously-solo connections stay solo.
  void set_downstream(ip::Ipv4 addr) {
    secondary_addr_ = addr;
    secondary_failed_ = false;
  }

  /// Rekeys every bridged connection's local address (head promotion:
  /// the host just took over the service address).
  void rekey_local(ip::Ipv4 from, ip::Ipv4 to);

  /// Rekeys one bridged connection to a moved remote address (Mosh-style
  /// client mobility, PR 10). Caller has already validated the segment.
  void rekey_remote(const tcp::ConnKey& old_key, ip::Ipv4 new_remote);

  // --- reintegration support (replacing a failed replica).

  /// Exempts every connection currently live on the host's TCP layer
  /// from bridging: when a bridge is attached to a host that has been
  /// serving alone, the in-flight connections cannot be replicated
  /// retroactively and must keep flowing untouched.
  void exclude_existing_connections();

  std::size_t connection_count() const { return conns_.size(); }
  std::size_t tombstone_count() const { return tombstones_.size(); }
  /// Heap bytes of the connection and tombstone tables' slot arrays.
  std::size_t table_bytes() const {
    return conns_.capacity() * decltype(conns_)::kSlotBytes +
           tombstones_.capacity() * decltype(tombstones_)::kSlotBytes;
  }
  BridgeConn* find(const tcp::ConnKey& key);

  // Statistics (thin views over the host metrics registry — the
  // authoritative values live in obs::Registry under the bridge.* names).
  std::uint64_t merged_segments_sent() const;
  std::uint64_t retransmissions_forwarded() const;
  std::uint64_t stray_fin_acks() const;
  std::uint64_t divergences() const;

  // BridgeConnSink:
  void emit(const tcp::TcpSegment& seg, ip::Ipv4 src, ip::Ipv4 dst) override;
  void divergence(const tcp::ConnKey& key) override;
  void fully_closed(const tcp::ConnKey& key) override;

 private:
  /// What an expiry-queue entry guards: a tombstone, or the handshake
  /// watch of a new connection. A client SYN creates a BridgeConn before
  /// the server TCP decides to accept — if the SYN dies in a backlog
  /// overflow (or the client vanishes), no teardown ever fires
  /// fully_closed, so the watch reaps a connection still not handshaken
  /// at its deadline (bridge.embryonic_reaped); without it a SYN burst
  /// would grow conns_ forever.
  enum class ExpiryKind : std::uint8_t { kTombstone, kHandshake };
  struct Expiry {
    SimTime deadline;
    tcp::ConnKey key;
    ExpiryKind kind;
  };

  tcp::TapVerdict outbound_tap(tcp::TcpSegment& seg, ip::Ipv4& src, ip::Ipv4& dst);
  tcp::TapVerdict inbound_tap(tcp::TcpSegment& seg, ip::Ipv4& src, ip::Ipv4& dst,
                              const ip::RxMeta& meta);
  ip::HookVerdict mirror_inbound(ip::IpDatagram& dgram, const ip::RxMeta& meta);
  bool is_failover(const tcp::ConnKey& key) const;
  BridgeConn& conn_for(const tcp::ConnKey& key);
  void schedule_removal(const tcp::ConnKey& key);
  bool tombstoned(const tcp::ConnKey& key) const;
  /// True for a SYN (no ACK) that our TCP would accept as a new
  /// connection on `key`: it holds none, or only one in TIME_WAIT that the
  /// SYN may recycle (tcp::Connection::syn_recycles_time_wait). Such a SYN
  /// passes a tombstone: the bridge is no stricter than TCP.
  bool opens_new_incarnation(const tcp::ConnKey& key,
                             const tcp::TcpSegment& seg) const;
  /// Queues `e` in deadline order and arms the sweep for it.
  void enqueue_expiry(const Expiry& e);
  /// Re-enqueues a rekeyed connection's handshake watch under its new key
  /// unless the handshake already completed.
  void carry_handshake_watch(const BridgeConn& conn);
  /// False once `e` was superseded: the sweep timer never fires for it.
  bool expiry_pending(const Expiry& e) const;
  /// (Re)arms the sweep timer for the earliest expiry deadline.
  void arm_tombstone_sweep(SimTime deadline);
  /// Timer-driven expiry of tombstones and handshake watches: runs at the
  /// earliest deadline, pops what expired and re-arms for the next, so an
  /// idle bridge still drains its tables. Costs O(entries popped).
  void sweep_tombstones();
  /// §8: ACKs a FIN that reached us after teardown, replying from `src`
  /// to `dst`; `from` labels the sender in the timeline.
  void ack_stray_fin(const tcp::TcpSegment& seg, ip::Ipv4 src, ip::Ipv4 dst,
                     const char* from);
  void note_event(obs::EventKind kind, const tcp::ConnKey& key,
                  std::string detail = {});
  void publish_gauges();

  apps::Host& host_;
  FailoverConfig cfg_;
  ip::Ipv4 secondary_addr_;
  std::optional<ip::Ipv4> upstream_;
  /// Handles every BridgeConn reports through (BridgeConn::attach_obs),
  /// resolved in the constructor. Declared before conns_, which points
  /// into it.
  BridgeConnObs conn_obs_;
  /// Bridged-connection state. Order-sensitive sweeps over it sort by key
  /// first: slot iteration order is hash-dependent and must never reach
  /// the wire.
  FlatMap<tcp::ConnKey, std::unique_ptr<BridgeConn>, tcp::ConnKeyHash> conns_;
  /// Connections exempt from bridging (pre-dating this bridge).
  FlatSet<tcp::ConnKey, tcp::ConnKeyHash> excluded_;
  /// Recently closed connections (§8: the bridge must still acknowledge
  /// FIN retransmissions after deleting a connection's data structures),
  /// keyed to their expiry time. Drained through expiry_.
  FlatMap<tcp::ConnKey, SimTime, tcp::ConnKeyHash> tombstones_;
  /// Every tombstone and handshake watch, in deadline order. Each gets
  /// deadline now + tombstone_ttl_, one TTL for all, so appending keeps
  /// the queue sorted and a sweep pops only what expired. Entries go
  /// stale in place (a key re-tombstoned later, a watch superseded by a
  /// newer connection under the same key) and are dropped when popped.
  std::deque<Expiry> expiry_;
  SimDuration tombstone_ttl_;
  sim::Timer sweep_timer_;
  /// Connections awaiting deferred erase (batched into one event per
  /// simulation instant instead of one per removal — a mass close storm
  /// must not flood the scheduler).
  std::vector<tcp::ConnKey> pending_removals_;
  bool removal_scheduled_ = false;
  bool secondary_failed_ = false;
  tcp::TapId out_tap_ = 0, in_tap_ = 0;
  ip::HookId mirror_hook_ = 0;
  /// Liveness sentinel for deferred events (tombstone expiry, deferred
  /// connection removal) that may fire after the bridge was replaced.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
  // Registry handles (resolved once in the constructor).
  obs::Counter* ctr_merged_ = nullptr;
  obs::Counter* ctr_stray_fin_acks_ = nullptr;
  obs::Counter* ctr_stray_fin_suppressed_ = nullptr;
  obs::Counter* ctr_divergences_ = nullptr;
  obs::Counter* ctr_embryonic_reaped_ = nullptr;
  obs::Counter* ctr_spoof_dropped_ = nullptr;
  obs::Counter* ctr_mirrored_ = nullptr;
  obs::Counter* ctr_client_migrated_ = nullptr;
  obs::Gauge* gau_connections_ = nullptr;
  obs::Gauge* gau_tombstones_ = nullptr;
};

}  // namespace tfo::core
