// The structured failover-timeline event log: an ordered, bounded record
// of the discrete events that make up a connection's failover story —
// creation, the merged handshake, divergence, detector verdicts, takeover,
// routes, tombstone expiry. A post-mortem (or a bench's JSON artifact)
// replays the timeline to explain *why* a client observed the stall it
// did, the analysis §5 of the paper does by hand.
//
// Control plane only: per-segment work (merged segments, forwarded
// retransmissions, empty ACKs) is counted in bridge.* metrics instead, so
// bulk data never evicts the events a post-mortem needs.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/time.hpp"
#include "tcp/conn_key.hpp"

namespace tfo::obs {

enum class EventKind : std::uint8_t {
  kConnCreated,        // bridge started tracking a connection
  kHandshakeMerged,    // merged SYN sent to the remote
  kDivergence,         // replica streams disagreed; connection reset
  kConnClosed,         // connection fully closed at the bridge
  kTombstoneCreated,   // §8 stray-FIN guard installed
  kTombstoneExpired,   // guard aged out (4*MSL)
  kStrayFinAcked,      // §8: manufactured ACK for a post-teardown FIN
  kStrayFinSuppressed, // stray FIN carried no usable sequence info
  kTakeoverStart,      // §5 step 1: secondary began takeover
  kTakeoverComplete,   // §5 step 5 done: transmission resumed as a_p
  kSecondaryFailed,    // §6: primary bridge entered solo mode
  kPeerDeclaredFailed, // fault detector verdict
  kHostFailed,         // fail-stop injection
  kRouteAdvertSent,    // takeover host-route advertisement emitted
  kRouteConverged,     // first router ack for the takeover host route
  kClientMigrated,     // connection rekeyed to a moved client address
};

/// Stable wire/JSON name of an event kind (snake_case).
const char* to_string(EventKind kind);

struct Event {
  SimTime t = 0;
  EventKind kind = EventKind::kConnCreated;
  /// The connection, or the all-zero key for host-scope events. Kept as a
  /// value, so recording allocates no key string (the bridges record four
  /// lifecycle events per connection); timeline_json formats it on export.
  tcp::ConnKey conn;
  /// Free-form context: offsets, addresses, counts.
  std::string detail;
};

/// Bounded in-order event buffer. When full, the oldest events are
/// discarded and counted — a long soak keeps the *recent* story, which is
/// the one a failover post-mortem needs.
class EventLog {
 public:
  explicit EventLog(std::size_t capacity = 4096) : cap_(capacity) {}

  void record(SimTime t, EventKind kind, tcp::ConnKey conn = {},
              std::string detail = {});

  const std::deque<Event>& events() const { return events_; }
  std::size_t size() const { return events_.size(); }
  std::uint64_t recorded_total() const { return recorded_; }
  std::uint64_t dropped() const { return recorded_ - events_.size(); }
  void clear() { events_.clear(); }

  /// Events of one kind, in order (tests and post-mortems).
  std::vector<Event> filter(EventKind kind) const;

 private:
  std::size_t cap_;
  std::deque<Event> events_;
  std::uint64_t recorded_ = 0;
};

}  // namespace tfo::obs
