// N-way replication by daisy-chaining — the extension the paper names but
// leaves out of scope (§1: "Higher degrees of replication can be achieved
// by daisy-chaining multiple backup servers").
//
// Chain layout for hosts H0 (head, owns the service address) … Hn (tail):
//
//   client ──►  H0  ◄── divert ──  H1  ◄── divert ── … ◄── divert ──  Hn
//              merge              merge                              (tail)
//
// * every non-head host snoops client traffic promiscuously and
//   translates it to itself (§3.1, against the *service* address);
// * the tail diverts its client-bound TCP output to its upstream;
// * every intermediate host merges its own output with the diverted
//   stream from its downstream and diverts the merged result upstream;
// * the head performs the final merge and transmits to the client.
//
// The client is synchronized to the **tail's** sequence space, which
// makes reconfiguration composable: the Δseq bookkeeping at every level
// maps into the same tail space, so any member can die — head, middle or
// tail — and the survivors re-aim their divert/merge targets without any
// sequence rewriting. Head failure additionally runs the §5 IP takeover.
//
// The paper's replica pair is the two-member case (ReplicaGroup wraps
// one). Fail-stop model, like the paper: members never return, but a
// fresh host can be appended behind the live tail (append_tail).
// Determinism requirements are unchanged (all replicas must produce
// identical streams per connection).
#pragma once

#include <memory>
#include <vector>

#include "apps/host.hpp"
#include "core/fault_detector.hpp"
#include "core/failover_config.hpp"
#include "core/primary_bridge.hpp"
#include "core/secondary_bridge.hpp"

namespace tfo::core {

class ReplicaChain {
 public:
  /// `hosts[0]` is the initial head and owner of the service address;
  /// the rest follow in chain order (hosts[n-1] is the tail).
  ReplicaChain(std::vector<apps::Host*> hosts, FailoverConfig cfg);

  /// Starts the heartbeat mesh. Call after the topology is in place.
  void start();

  std::size_t size() const { return members_.size(); }
  std::size_t alive_count() const;
  /// The member currently serving the client (first live member).
  apps::Host* head() const;
  bool is_alive(std::size_t index) const { return members_[index].alive; }

  PrimaryBridge* merge_bridge(std::size_t index) {
    return members_[index].merge.get();
  }
  SecondaryBridge* divert_bridge(std::size_t index) {
    return members_[index].divert.get();
  }

  /// Convenience fault injection: crashes member `index`.
  void crash(std::size_t index);

  /// Reintegration (the paper leaves it out of scope; see DESIGN.md):
  /// `recruit` — a fresh host already running the replicated application,
  /// on the same segment with its listeners installed — becomes the new
  /// tail, at index size() before the call. Connections established from
  /// now on are replicated on it too; connections that predate the call
  /// keep running on the survivors without it (their application state
  /// cannot be reconstructed without state transfer).
  void append_tail(apps::Host& recruit);

 private:
  struct Member {
    apps::Host* host = nullptr;
    std::unique_ptr<PrimaryBridge> merge;    // absent on the initial tail
    std::unique_ptr<SecondaryBridge> divert; // absent on the initial head
    std::unique_ptr<HeartbeatMesh> mesh;
    bool alive = true;
  };

  std::unique_ptr<PrimaryBridge> make_merge(apps::Host& host,
                                            ip::Ipv4 downstream) const;
  std::unique_ptr<SecondaryBridge> make_divert(apps::Host& host) const;
  /// Watches between members `a` and `b`, both ways.
  void watch_each_other(std::size_t a, std::size_t b);
  void on_member_failed(std::size_t observer, std::size_t dead);
  void reconfigure(std::size_t member_index);
  /// Where member `i` is reached by its downstream: the service address
  /// for the head, its interface address otherwise.
  ip::Ipv4 upstream_addr(std::size_t i) const;
  std::size_t prev_alive(std::size_t index) const;  // size() if none
  std::size_t next_alive(std::size_t index) const;  // size() if none

  std::vector<Member> members_;
  FailoverConfig cfg_;
  ip::Ipv4 service_addr_;
};

}  // namespace tfo::core
