// Quickstart: transparent TCP failover in ~60 lines of user code.
//
// Builds the paper's Figure 1 topology — client C, primary server P,
// secondary server S on one Ethernet segment — runs an actively
// replicated echo service behind the failover bridge, crashes the primary
// mid-conversation, and shows the client's connection surviving without
// any client-side involvement.
//
//   $ ./quickstart
#include <cstdio>

#include "apps/echo.hpp"
#include "apps/topology.hpp"
#include "core/replica_group.hpp"

using namespace tfo;

int main() {
  // 1. The network: a 100 Mb/s shared Ethernet with three hosts.
  auto lan = apps::make_topology();

  // 2. The failover group: bridges on P and S plus fault detectors.
  //    Port 7 is declared a failover port (§7 method 2 of the paper).
  core::FailoverConfig cfg;
  cfg.ports = {7};
  core::ReplicaGroup group(*lan->primary, *lan->secondary, cfg);

  // 3. The *actively replicated* application: the same echo server runs
  //    on both hosts. Neither instance knows about replication.
  apps::EchoServer echo_p(lan->primary->tcp(), 7);
  apps::EchoServer echo_s(lan->secondary->tcp(), 7);
  group.start();

  // 4. An ordinary, unmodified TCP client connects to the primary's
  //    address and chats over a single connection.
  auto conn = lan->client->tcp().connect(lan->primary->address(), 7,
                                         {.nodelay = true});
  Bytes inbox;
  conn->on_readable = [&] { conn->recv(inbox); };

  // Returns whether the echo came back intact. The fault detectors'
  // heartbeats keep the event queue busy forever, so a lost echo ends at
  // a simulated deadline instead.
  auto chat = [&](const char* msg) {
    inbox.clear();
    const std::size_t want = std::string(msg).size();
    conn->send(to_bytes(msg));
    const SimTime deadline = lan->sim.now() + static_cast<SimTime>(seconds(10));
    while (inbox.size() < want && lan->sim.now() < deadline && lan->sim.step()) {
    }
    std::printf("  [%8.3f ms] client sent %-28s echoed back: \"%s\"\n",
                to_milliseconds(static_cast<SimDuration>(lan->sim.now())),
                (std::string("\"") + msg + "\",").c_str(), to_string(inbox).c_str());
    return to_string(inbox) == msg;
  };

  std::printf("--- fault-free operation (both replicas serving) ---\n");
  bool intact = chat("hello replicated world");
  intact &= chat("the bridge merges both replies");

  std::printf("--- crashing the primary server ---\n");
  group.crash_primary();

  intact &= chat("same connection, after the crash");
  intact &= chat("nobody told the client anything");
  if (!intact) {
    std::printf("FAILED: an echo did not come back intact\n");
    return 1;
  }

  std::printf("--- done ---\n");
  std::printf("secondary took over %s at t=%.3f ms; the client's connection was\n"
              "never reset and no client-side software changed.\n",
              lan->primary->address().str().c_str(),
              to_milliseconds(static_cast<SimDuration>(
                  group.secondary_bridge().takeover_time())));
  return 0;
}
