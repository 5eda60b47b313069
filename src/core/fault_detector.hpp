// Heartbeat-based fault detector (§2: "the system employs a fault
// detector"). Each replica streams heartbeat datagrams to its peers over a
// raw IP protocol; silence for `failure_timeout` declares a peer dead
// (fail-stop model). Detection latency is one of the knobs swept by the
// failover-time bench (EXPERIMENTS.md E1).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "apps/host.hpp"
#include "sim/timer.hpp"

namespace tfo::core {

/// Key for the heartbeat nonce chain, shared by every replica
/// (FailoverConfig::hb_auth_seed). Heartbeats carry
/// ["HB", k:u64, nonce:u64] where k is the sender's simulation clock
/// (monotonic, so a peer watched late needs no resync) and nonce is a
/// keyed hash of (seed, sender address, k). A receiver accepts only a
/// matching nonce with k at or above its high-water mark, so an off-path
/// attacker can neither forge a heartbeat (to suppress a takeover) nor
/// replay or reflect a captured one (fault.hb_auth_failed counts the
/// attempts).
constexpr std::uint64_t kDefaultHbAuthSeed = 0x4842'6175'7468'2e31ull;

/// Heartbeat monitor: one instance per host exchanges heartbeats with
/// every watched peer (the other replica of a pair, every other member of
/// a chain) and reports each peer's failure exactly once. It claims the
/// host's heartbeat protocol number, so a host carries at most one.
class HeartbeatMesh {
 public:
  HeartbeatMesh(apps::Host& host, SimDuration period, SimDuration timeout,
                std::uint64_t auth_seed = kDefaultHbAuthSeed);
  ~HeartbeatMesh();

  /// Registers a peer to watch. May be called after start() (e.g. when a
  /// recruit joins the chain); the new peer's deadline arms at once, and
  /// sending resumes if every earlier peer had been declared failed.
  void watch(ip::Ipv4 peer, std::function<void()> on_failed);

  void start();
  void stop();
  bool peer_failed(ip::Ipv4 peer) const;
  std::size_t peers_watched() const { return peers_.size(); }

 private:
  struct Peer {
    Peer(HeartbeatMesh& m, ip::Ipv4 a, std::function<void()> f)
        : mesh(&m), addr(a), on_failed(std::move(f)), deadline(m.host_.simulator()) {}
    HeartbeatMesh* mesh;
    ip::Ipv4 addr;
    bool declared = false;
    std::function<void()> on_failed;
    sim::Timer deadline;
    std::uint64_t expect_k = 0;  // per-sender anti-replay high-water mark
  };
  void send_heartbeats();
  void arm(Peer& peer);
  /// The peer's deadline passed without a heartbeat: report it, once.
  void declare_failed(Peer& peer);

  apps::Host& host_;
  SimDuration period_;
  SimDuration timeout_;
  std::uint64_t auth_seed_;
  /// Peers get stable heap storage: armed deadline callbacks capture a
  /// `Peer*`, and a `watch()` issued after timers are armed (a recruit
  /// joining) must not invalidate it by reallocating the vector.
  std::vector<std::unique_ptr<Peer>> peers_;
  /// Idle while every watched peer is declared failed: a survivor left
  /// alone has nobody to heartbeat.
  sim::Timer send_timer_;
  obs::Counter* ctr_sent_ = nullptr;
  obs::Counter* ctr_received_ = nullptr;
  obs::Counter* ctr_auth_failed_ = nullptr;
  obs::Counter* ctr_stale_ = nullptr;  // the replayed/duplicated share of those
  bool running_ = false;
};

}  // namespace tfo::core
