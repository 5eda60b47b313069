// FTP failover: the paper's §9 real-world application. An active-mode
// FTP server pair (control port 21, data connections opened *by the
// server* from port 20 — the §7.2 server-initiated path) serves a
// download; the primary crashes mid-transfer; the file arrives intact.
//
//   $ ./ftp_failover
#include <cstdio>

#include "apps/echo.hpp"  // deterministic_payload
#include "apps/ftp.hpp"
#include "apps/topology.hpp"
#include "core/replica_group.hpp"

using namespace tfo;

int main() {
  auto lan = apps::make_topology();
  core::FailoverConfig cfg;
  cfg.ports = {21, 20};  // control + data are both failover connections
  core::ReplicaGroup group(*lan->primary, *lan->secondary, cfg);

  apps::FtpServer ftp_p(lan->primary->tcp());
  apps::FtpServer ftp_s(lan->secondary->tcp());
  const Bytes image = apps::deterministic_payload(1024 * 1024, 2024);
  ftp_p.add_file("disk.img", image);
  ftp_s.add_file("disk.img", image);
  group.start();

  apps::FtpClient client(lan->client->tcp(), lan->primary->address());

  bool logged_in = false;
  client.login([&](bool ok) { logged_in = ok; });
  while (!logged_in && lan->sim.pending() > 0) lan->sim.step();
  std::printf("logged in to replicated ftp server at %s\n",
              lan->primary->address().str().c_str());

  bool done = false, ok = false;
  Bytes got;
  client.get("disk.img", [&](bool r, Bytes b) {
    ok = r;
    got = std::move(b);
    done = true;
  });

  // Crash the primary once the data connection is up and flowing.
  bool crashed = false;
  while (!done && lan->sim.pending() > 0) {
    lan->sim.step();
    if (!crashed && lan->client->tcp().connection_count() >= 2 &&
        lan->sim.now() > seconds(1) / 50) {
      std::printf("[%7.1f ms] primary crashed mid-transfer\n",
                  to_milliseconds(static_cast<SimDuration>(lan->sim.now())));
      group.crash_primary();
      crashed = true;
    }
  }

  std::printf("[%7.1f ms] transfer finished: ok=%s, %zu bytes, intact=%s\n",
              to_milliseconds(static_cast<SimDuration>(lan->sim.now())),
              ok ? "yes" : "no", got.size(), got == image ? "yes" : "NO");
  std::printf("the data connection was *opened by the server* (active mode, local\n"
              "port 20): both replicas connected, the primary bridge merged the two\n"
              "SYNs (§7.2), and after the crash the secondary finished the stream.\n");
  client.quit();
  return got == image ? 0 : 1;
}
