// Web-store failover: the paper's own motivating example (§1) — "an
// on-line store is an example of a deterministic service". A customer
// browses and buys over one TCP connection; the primary server crashes
// between two purchases; the order counter, per-session inventory, and
// the connection itself all survive on the secondary.
//
//   $ ./webstore_failover
#include <cstdio>

#include "apps/store.hpp"
#include "apps/topology.hpp"
#include "core/replica_group.hpp"

using namespace tfo;

namespace {

void shop(apps::Topology& lan, apps::StoreClient& client, const char* request) {
  const std::size_t before = client.replies().size();
  client.request(request);
  while (client.replies().size() == before && lan.sim.pending() > 0) lan.sim.step();
  std::printf("  > %-22s  < %s\n", request,
              client.replies().empty() ? "(no reply)" : client.replies().back().c_str());
}

}  // namespace

int main() {
  auto lan = apps::make_topology();
  core::FailoverConfig cfg;
  cfg.ports = {8000};
  core::ReplicaGroup group(*lan->primary, *lan->secondary, cfg);
  apps::StoreServer store_p(lan->primary->tcp(), 8000);
  apps::StoreServer store_s(lan->secondary->tcp(), 8000);
  group.start();

  apps::StoreClient customer(lan->client->tcp(), lan->primary->address(), 8000);

  std::printf("--- shopping on the replicated store ---\n");
  shop(*lan, customer, "BROWSE espresso-machine");
  shop(*lan, customer, "BUY espresso-machine 1");
  shop(*lan, customer, "BROWSE grinder");

  std::printf("--- primary crashes between two purchases ---\n");
  group.crash_primary();

  shop(*lan, customer, "BUY grinder 1");
  shop(*lan, customer, "BROWSE espresso-machine");
  shop(*lan, customer, "BUY filter-papers 10");

  std::printf("--- session wrap-up ---\n");
  std::printf("order ids continued seamlessly (1, 2, 3, ...): the secondary's\n"
              "replica of the session had identical state at the instant of the\n"
              "crash, because the bridge never acknowledged a request the\n"
              "secondary had not also received (paper §2, requirement 2).\n");
  customer.quit();
  lan->sim.run_for(seconds(5));
  std::printf("connection closed gracefully: %s\n", customer.closed() ? "yes" : "no");
  return 0;
}
