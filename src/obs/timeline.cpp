#include "obs/timeline.hpp"

namespace tfo::obs {

const char* to_string(EventKind kind) {
  switch (kind) {
    case EventKind::kConnCreated: return "conn_created";
    case EventKind::kHandshakeMerged: return "handshake_merged";
    case EventKind::kDivergence: return "divergence";
    case EventKind::kConnClosed: return "conn_closed";
    case EventKind::kTombstoneCreated: return "tombstone_created";
    case EventKind::kTombstoneExpired: return "tombstone_expired";
    case EventKind::kStrayFinAcked: return "stray_fin_acked";
    case EventKind::kStrayFinSuppressed: return "stray_fin_suppressed";
    case EventKind::kTakeoverStart: return "takeover_start";
    case EventKind::kTakeoverComplete: return "takeover_complete";
    case EventKind::kSecondaryFailed: return "secondary_failed";
    case EventKind::kPeerDeclaredFailed: return "peer_declared_failed";
    case EventKind::kHostFailed: return "host_failed";
    case EventKind::kRouteAdvertSent: return "route_advert_sent";
    case EventKind::kRouteConverged: return "takeover.route_converged";
    case EventKind::kClientMigrated: return "client_migrated";
  }
  return "unknown";
}

void EventLog::record(SimTime t, EventKind kind, tcp::ConnKey conn,
                      std::string detail) {
  ++recorded_;
  if (cap_ == 0) return;
  if (events_.size() == cap_) events_.pop_front();
  events_.push_back(Event{t, kind, conn, std::move(detail)});
}

std::vector<Event> EventLog::filter(EventKind kind) const {
  std::vector<Event> out;
  for (const auto& e : events_) {
    if (e.kind == kind) out.push_back(e);
  }
  return out;
}

}  // namespace tfo::obs
