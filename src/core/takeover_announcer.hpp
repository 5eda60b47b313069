// Pluggable takeover announcement (§5 step 5, generalized).
//
// The paper announces the takeover of a_p with a gratuitous ARP — an L2
// mechanism that only reaches the secondary's own Ethernet segment. This
// interface separates *what* the takeover claims (the address alias and
// connection rekey stay in SecondaryBridge) from *how* the rest of the
// network learns about it:
//
//   * GarpAnnouncer — the paper's broadcast, bit-compatible with the
//     pre-refactor behavior on single-segment topologies (the
//     determinism contract pins this);
//   * RouteAnnouncer — anycast-style /32 host-route advertisement to the
//     host's gateway(s) for deployments where primary and secondary sit
//     on different subnets (ip/route_advert.hpp). Routers acknowledge;
//     the first ack is recorded as the `takeover.route_converged`
//     timeline event, making convergence time a first-class measurement.
//
// Both repeat their announcement on a fixed schedule: a single gratuitous
// ARP or advert datagram is unacknowledged-at-L2 and may be lost.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/time.hpp"
#include "ip/addr.hpp"

namespace tfo::apps {
class Host;
}

namespace tfo::core {

struct FailoverConfig;

class TakeoverAnnouncer {
 public:
  virtual ~TakeoverAnnouncer() = default;

  /// Tells the network that `host` now owns `addr`. Called exactly once
  /// per takeover, after the address alias is installed; implementations
  /// schedule their own repeats and guard them with their own liveness.
  virtual void announce(apps::Host& host, ip::Ipv4 addr,
                        const FailoverConfig& cfg) = 0;

  /// Stable name for benches and JSON artifacts ("garp" / "route").
  virtual const char* kind() const = 0;
};

/// The paper's §5 announcement: gratuitous ARP now, repeated
/// `announce_repeats` times at `announce_interval`.
class GarpAnnouncer final : public TakeoverAnnouncer {
 public:
  void announce(apps::Host& host, ip::Ipv4 addr,
                const FailoverConfig& cfg) override;
  const char* kind() const override { return "garp"; }

 private:
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

/// Host-route advertisement: sends a metric-0 /32 advert for `addr` to
/// the host's default gateway (or explicit targets), repeated
/// `announce_repeats` times at `announce_interval`. Registers a
/// kRouteAdvert protocol handler on the host to catch router acks.
class RouteAnnouncer final : public TakeoverAnnouncer {
 public:
  void announce(apps::Host& host, ip::Ipv4 addr,
                const FailoverConfig& cfg) override;
  const char* kind() const override { return "route"; }

  /// Explicit advert destinations (routers). When empty, the host's
  /// default-gateway route supplies the single target.
  void add_target(ip::Ipv4 router_addr) { targets_.push_back(router_addr); }

  bool converged() const { return converged_; }
  /// Time from announce() to the first ack (0 until converged).
  SimDuration convergence_delay() const { return convergence_delay_; }

 private:
  void send_advert(apps::Host& host, ip::Ipv4 addr, std::uint32_t seq);

  std::vector<ip::Ipv4> targets_;
  SimTime started_ = 0;
  bool converged_ = false;
  SimDuration convergence_delay_ = 0;
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace tfo::core
