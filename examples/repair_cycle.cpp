// Repair cycle: failover + reintegration keep a service alive through an
// unbounded sequence of failures, as long as spare hardware shows up.
//
//   1. (P, S) serve replicated; P crashes; S takes over the address.
//   2. A recruit R reintegrates: (S, R) serve replicated again.
//   3. S crashes; R takes over — the SECOND takeover of the same address.
//
// A client connection opened in phase 2 lives through phase 3.
//
//   $ ./repair_cycle
#include <cstdio>

#include "apps/echo.hpp"
#include "apps/topology.hpp"
#include "core/replica_group.hpp"

using namespace tfo;

int main() {
  auto lan = apps::make_topology();

  apps::HostParams hp;
  hp.name = "recruit";
  hp.addr = ip::Ipv4::parse("10.0.0.30");
  hp.seed = 303;
  apps::Host recruit(lan->sim, hp, *lan->wire);
  for (apps::Host* h :
       {lan->client.get(), lan->primary.get(), lan->secondary.get()}) {
    h->arp().add_static(recruit.address(), recruit.nic().mac());
    recruit.arp().add_static(h->address(), h->nic().mac());
  }

  core::FailoverConfig cfg;
  cfg.ports = {7};
  core::ReplicaGroup group(*lan->primary, *lan->secondary, cfg);
  apps::EchoServer e_p(lan->primary->tcp(), 7);
  apps::EchoServer e_s(lan->secondary->tcp(), 7);
  apps::EchoServer e_r(recruit.tcp(), 7);
  group.start();

  auto banner = [&](const char* msg) {
    std::printf("[%8.1f ms] %s (serving: %s)\n",
                to_milliseconds(static_cast<SimDuration>(lan->sim.now())), msg,
                group.current_server().name().c_str());
  };

  banner("phase 1: (primary, secondary) replicated");
  std::printf("  ... primary crashes ...\n");
  group.crash_primary();
  lan->sim.run_for(milliseconds(300));
  banner("phase 1 done: secondary took over 10.0.0.1");

  group.reintegrate_secondary(recruit);
  lan->sim.run_for(milliseconds(100));
  banner("phase 2: recruit reintegrated — replication restored");

  // A fresh client session under the repaired pair.
  auto conn = lan->client->tcp().connect(lan->primary->address(), 7, {.nodelay = true});
  Bytes inbox;
  conn->on_readable = [&] { conn->recv(inbox); };
  // Returns whether the echo came back intact; the heartbeats keep the
  // event queue busy, so a lost echo ends at a simulated deadline.
  auto chat = [&](const char* msg) {
    inbox.clear();
    conn->send(to_bytes(msg));
    const SimTime deadline = lan->sim.now() + static_cast<SimTime>(seconds(10));
    while (inbox.size() < std::string(msg).size() && lan->sim.now() < deadline &&
           lan->sim.step()) {
    }
    std::printf("  client: \"%s\" -> \"%s\"\n", msg, to_string(inbox).c_str());
    return to_string(inbox) == msg;
  };
  bool intact = chat("hello repaired service");

  std::printf("  ... the survivor (old secondary) crashes too ...\n");
  group.current_server().fail();
  intact &= chat("second takeover, same connection");
  lan->sim.run_for(milliseconds(100));
  banner("phase 3 done: recruit serves alone");
  if (!intact) {
    std::printf("FAILED: an echo did not come back intact\n");
    return 1;
  }

  std::printf("two failures, one address, zero client reconnects.\n");
  std::printf("recruit echoed %llu bytes of the phase-2 session.\n",
              static_cast<unsigned long long>(e_r.bytes_echoed()));
  return 0;
}
