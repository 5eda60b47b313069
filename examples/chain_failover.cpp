// Daisy-chained replication — the extension the paper names in §1 but
// leaves out of scope. Three replicas survive TWO successive crashes
// (head, then the promoted head) while one client connection keeps
// streaming, untouched.
//
//   $ ./chain_failover
#include <cstdio>

#include "apps/echo.hpp"
#include "apps/topology.hpp"
#include "core/replica_chain.hpp"

using namespace tfo;

int main() {
  auto lan = apps::make_topology();

  // A third replica on the same segment.
  apps::HostParams hp;
  hp.name = "backup2";
  hp.addr = ip::Ipv4::parse("10.0.0.22");
  hp.seed = 102;
  apps::Host backup2(lan->sim, hp, *lan->wire);
  std::vector<apps::Host*> servers = {lan->primary.get(), lan->secondary.get(),
                                      &backup2};
  std::vector<apps::Host*> all = servers;
  all.push_back(lan->client.get());
  for (auto* a : all) {
    for (auto* b : all) {
      if (a != b) a->arp().add_static(b->address(), b->nic().mac());
    }
  }

  core::FailoverConfig cfg;
  cfg.ports = {7};
  core::ReplicaChain chain(servers, cfg);
  apps::EchoServer e0(servers[0]->tcp(), 7);
  apps::EchoServer e1(servers[1]->tcp(), 7);
  apps::EchoServer e2(servers[2]->tcp(), 7);
  chain.start();

  auto conn = lan->client->tcp().connect(servers[0]->address(), 7, {.nodelay = true});
  Bytes inbox;
  conn->on_readable = [&] { conn->recv(inbox); };
  auto chat = [&](const char* msg) {
    inbox.clear();
    conn->send(to_bytes(msg));
    while (inbox.size() < std::string(msg).size() && lan->sim.pending() > 0) {
      lan->sim.step();
    }
    std::printf("  [%9.3f ms] head=%-10s  \"%s\" -> \"%s\"\n",
                to_milliseconds(static_cast<SimDuration>(lan->sim.now())),
                chain.head() ? chain.head()->name().c_str() : "NONE", msg,
                to_string(inbox).c_str());
  };

  std::printf("=== 3-way replica chain: primary <- secondary <- backup2 ===\n");
  chat("all three replicas serving");

  std::printf("--- crash #1: the head (primary) dies ---\n");
  chain.crash(0);
  chat("secondary was promoted to head");

  std::printf("--- crash #2: the new head (secondary) dies too ---\n");
  chain.crash(1);
  chat("backup2 serves alone now");

  std::printf("=== the client's single TCP connection survived BOTH crashes ===\n");
  std::printf("survivors: %zu of 3; the client still talks to %s\n",
              chain.alive_count(), servers[0]->address().str().c_str());
  return chain.alive_count() == 1 ? 0 : 1;
}
