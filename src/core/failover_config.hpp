// Configuration shared by the primary and secondary bridges.
//
// §7 of the paper offers two ways to mark a connection as a TCP failover
// connection: a per-socket option (tcp::SocketOptions::failover) and a
// configured set of port numbers. Both are supported; the port set must be
// identical on the primary and the secondary hosts, as the paper requires.
#pragma once

#include <cstdint>
#include <memory>
#include <set>

#include "common/time.hpp"
#include "ip/addr.hpp"
#include "tcp/tcp_layer.hpp"

namespace tfo::core {

class TakeoverAnnouncer;

struct FailoverConfig {
  /// §7 method 2: any connection using one of these ports (on the server
  /// side of the connection) is a failover connection.
  std::set<std::uint16_t> ports;

  /// Fault-detector heartbeat period and declaration timeout.
  SimDuration heartbeat_period = milliseconds(10);
  SimDuration failure_timeout = milliseconds(50);

  /// Shared key for the heartbeat nonce chain (core/fault_detector.hpp):
  /// both replicas must hold the same value, and an off-path attacker must
  /// not — a forged or replayed heartbeat then fails verification
  /// (fault.hb_auth_failed) instead of masking a dead peer or suppressing
  /// takeover.
  std::uint64_t hb_auth_seed = 0x4842'6175'7468'2e31ull;

  /// Pause between starting the §5 takeover and resuming transmission
  /// (models the reconfiguration steps taking nonzero time).
  SimDuration takeover_pause = 0;

  /// How the takeover is announced to the network (§5 step 5). Null means
  /// the paper's gratuitous ARP (core/takeover_announcer.hpp); install a
  /// RouteAnnouncer when the replicas sit on different subnets.
  std::shared_ptr<TakeoverAnnouncer> announcer;

  /// The announcement (a gratuitous ARP or a route advert) goes out once,
  /// then `announce_repeats` more times `announce_interval` apart: a
  /// single unacknowledged broadcast may be lost on a lossy medium.
  int announce_repeats = 4;
  SimDuration announce_interval = milliseconds(50);

  /// Inbound replication without promiscuous snooping: the *primary*
  /// mirrors client→a_p failover datagrams to the secondary (checksum
  /// patched a_p→a_s, exactly the §3.1 rewrite, applied at the sender).
  /// Required when the replicas do not share an Ethernet segment — there
  /// is nothing for the secondary's NIC to snoop across a router.
  bool mirror_inbound = false;

  bool is_failover_port(std::uint16_t port) const { return ports.contains(port); }

  /// Whether `key`, seen from the server host that owns `tcp` (so the
  /// local port is the server-side port), names a failover connection: a
  /// configured port (method 2), a failover listener on the port, or a
  /// connection flagged by the per-socket option (method 1). `conn` is that
  /// connection when the caller already holds it; otherwise it is looked
  /// up, and only when the port tests fail.
  bool is_failover_connection(const tcp::TcpLayer& tcp, const tcp::ConnKey& key,
                              const tcp::Connection* conn = nullptr) const {
    if (is_failover_port(key.local_port) || tcp.listener_is_failover(key.local_port)) {
      return true;
    }
    if (conn != nullptr) return conn->failover_flagged();
    const auto found = tcp.find(key);
    return found && found->failover_flagged();
  }
};

}  // namespace tfo::core
