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

  auto query = [&](const char* sql) {
    // Deterministic replicas issue the same query.
    const std::size_t want = rep_s.results.size() + std::string(sql).size();
    rep_p.db->send(to_bytes(sql));
    rep_s.db->send(to_bytes(sql));
    while (rep_s.results.size() < want && lan->sim.pending() > 0) lan->sim.step();
  };
  auto query_solo = [&](const char* sql) {
    const std::size_t want = rep_s.results.size() + std::string(sql).size();
    rep_s.db->send(to_bytes(sql));
    while (rep_s.results.size() < want && lan->sim.pending() > 0) lan->sim.step();
  };

  while (rep_s.db->state() != tcp::TcpState::kEstablished && lan->sim.pending() > 0) {
    lan->sim.step();
  }
  std::printf("replicated app tier connected to db %s (one session at the db: %zu)\n",
              lan->backend->address().str().c_str(), database.live_sessions());

  query("SELECT * FROM users;");
  query("UPDATE cart SET qty=2;");
  std::printf("2 queries executed; db saw %llu bytes (each query once, not twice)\n",
              static_cast<unsigned long long>(database.bytes_echoed()));

  std::printf("--- primary app server crashes ---\n");
  group.crash_primary();
  query_solo("COMMIT;");
  std::printf("post-crash query answered on the same db session: \"%s\"\n",
              to_string(BytesView(rep_s.results).last(7)).c_str());
  std::printf("db sessions now: %zu (still exactly one)\n", database.live_sessions());
  return database.live_sessions() == 1 ? 0 : 1;
}
