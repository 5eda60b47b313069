// Multi-tier deployment (§7.2): a replicated application server is the
// TCP *client* of an unreplicated back-end database. Both replicas call
// connect(); the bridge merges their handshakes so the database sees a
// single client; queries flow replicated; a primary crash leaves the
// database session intact on the survivor.
//
//   $ ./multitier_backend
#include <cstdio>

#include "apps/echo.hpp"
#include "apps/topology.hpp"
#include "core/replica_group.hpp"

using namespace tfo;

int main() {
  apps::TopologyParams lp;
  lp.with_backend = true;  // the unreplicated database host T
  auto lan = apps::make_topology(lp);

  core::FailoverConfig cfg;
  cfg.ports = {9100};  // the replicas connect out from this fixed port
  core::ReplicaGroup group(*lan->primary, *lan->secondary, cfg);
  group.start();

  // The "database": an echo server standing in for a query/response DB.
  apps::EchoServer database(lan->backend->tcp(), 5432);

  // The replicated application tier: both replicas run identical logic.
  struct Replica {
    std::shared_ptr<tcp::Connection> db;
    Bytes results;
  } rep_p, rep_s;
  auto start_replica = [&](apps::Host& host, Replica& r) {
    r.db = host.tcp().connect(lan->backend->address(), 5432, {.nodelay = true}, 9100);
    r.db->on_readable = [&r] { r.db->recv(r.results); };
  };
  start_replica(*lan->primary, rep_p);
  start_replica(*lan->secondary, rep_s);

  // The heartbeats keep the event queue busy forever, so each wait ends
  // at a simulated deadline. Returns whether `done` came true.
  auto wait_for = [&](auto done) {
    const SimTime deadline = lan->sim.now() + static_cast<SimTime>(seconds(10));
    while (!done() && lan->sim.now() < deadline && lan->sim.step()) {
    }
    return done();
  };
  // Sends `sql` from the live replicas; returns whether the secondary got
  // the echo back.
  auto query = [&](const char* sql, bool primary_alive) {
    const std::size_t want = rep_s.results.size() + std::string(sql).size();
    if (primary_alive) rep_p.db->send(to_bytes(sql));  // deterministic replicas
    rep_s.db->send(to_bytes(sql));
    return wait_for([&] { return rep_s.results.size() >= want; });
  };

  // The replica is ESTABLISHED once it sent its final ACK; the database
  // accepts when that ACK arrives.
  if (!wait_for([&] {
        return rep_s.db->state() == tcp::TcpState::kEstablished &&
               database.live_sessions() > 0;
      })) {
    std::printf("FAILED: the app tier never connected\n");
    return 1;
  }
  std::printf("replicated app tier connected to db %s (one session at the db: %zu)\n",
              lan->backend->address().str().c_str(), database.live_sessions());
  if (database.live_sessions() != 1) {
    std::printf("FAILED: the db holds %zu sessions for one replicated client\n",
                database.live_sessions());
    return 1;
  }

  auto fail = [] {
    std::printf("FAILED: a query went unanswered or the db session changed\n");
    return 1;
  };
  if (!query("SELECT * FROM users;", true) || !query("UPDATE cart SET qty=2;", true)) {
    return fail();
  }
  std::printf("2 queries executed; db saw %llu bytes (each query once, not twice)\n",
              static_cast<unsigned long long>(database.bytes_echoed()));

  std::printf("--- primary app server crashes ---\n");
  group.crash_primary();
  if (!query("COMMIT;", false)) return fail();
  std::printf("post-crash query answered on the same db session: \"%s\"\n",
              to_string(BytesView(rep_s.results).last(7)).c_str());
  std::printf("db sessions now: %zu (still exactly one)\n", database.live_sessions());
  return database.live_sessions() == 1 ? 0 : fail();
}
