// Unit tests for the heartbeat fault detector. FdFixture pairs two
// one-peer meshes, P watching S and S watching P: the replica pair.
#include <gtest/gtest.h>

#include <functional>

#include "apps/topology.hpp"
#include "core/fault_detector.hpp"
#include "test_util.hpp"

namespace tfo::core {
namespace {

struct FdFixture : ::testing::Test {
  std::unique_ptr<apps::Topology> lan = apps::make_topology();
  std::unique_ptr<HeartbeatMesh> on_p, on_s;
  /// Peer-failure callbacks of on_p and on_s; tests assign them.
  std::function<void()> p_failed, s_failed;

  void build(SimDuration period = milliseconds(10), SimDuration timeout = milliseconds(50)) {
    on_p = std::make_unique<HeartbeatMesh>(*lan->primary, period, timeout);
    on_s = std::make_unique<HeartbeatMesh>(*lan->secondary, period, timeout);
    on_p->watch(lan->secondary->address(), [this] { if (p_failed) p_failed(); });
    on_s->watch(lan->primary->address(), [this] { if (s_failed) s_failed(); });
  }

  static std::uint64_t counter(apps::Host& host, const char* name) {
    return host.obs().registry.counter_value(name);
  }
};

TEST_F(FdFixture, NoFalsePositiveWhileBothAlive) {
  build();
  int p_fired = 0, s_fired = 0;
  p_failed = [&] { ++p_fired; };
  s_failed = [&] { ++s_fired; };
  on_p->start();
  on_s->start();
  lan->sim.run_for(seconds(5));
  EXPECT_EQ(p_fired, 0);
  EXPECT_EQ(s_fired, 0);
  EXPECT_GT(counter(*lan->primary, "fd.heartbeats_received"), 400u);
}

TEST_F(FdFixture, DetectsCrashWithinTimeout) {
  build(milliseconds(10), milliseconds(50));
  SimTime detected_at = 0;
  s_failed = [&] { detected_at = lan->sim.now(); };
  on_p->start();
  on_s->start();
  lan->sim.run_for(seconds(1));
  const SimTime crash_at = lan->sim.now();
  lan->primary->fail();
  lan->sim.run_for(seconds(1));
  ASSERT_GT(detected_at, 0u);
  const SimDuration latency = static_cast<SimDuration>(detected_at - crash_at);
  EXPECT_GE(latency, milliseconds(30));  // at least timeout minus one period
  EXPECT_LE(latency, milliseconds(60));  // and not much more than timeout
}

TEST_F(FdFixture, FiresExactlyOnce) {
  build();
  int fired = 0;
  s_failed = [&] { ++fired; };
  on_p->start();
  on_s->start();
  lan->primary->fail();
  lan->sim.run_for(seconds(5));
  EXPECT_EQ(fired, 1);
}

TEST_F(FdFixture, StopPreventsDetection) {
  build();
  int fired = 0;
  s_failed = [&] { ++fired; };
  on_p->start();
  on_s->start();
  lan->sim.run_for(milliseconds(100));
  on_s->stop();
  lan->primary->fail();
  lan->sim.run_for(seconds(2));
  EXPECT_EQ(fired, 0);
}

TEST_F(FdFixture, IgnoresHeartbeatsFromWrongPeer) {
  // Detector on S watches P; heartbeats from the client must not feed it.
  build(milliseconds(10), milliseconds(50));
  int fired = 0;
  s_failed = [&] { fired++; };
  on_s->start();
  // Only the *client* sends heartbeat-protocol datagrams to S.
  for (int i = 0; i < 100; ++i) {
    lan->sim.schedule_after(milliseconds(5) * i, [&] {
      lan->client->ip().send(ip::Proto::kHeartbeat, ip::Ipv4::any(),
                             lan->secondary->address(), to_bytes("HB"));
    });
  }
  lan->sim.run_for(seconds(1));
  EXPECT_EQ(fired, 1);  // P never spoke: declared failed despite client noise
  EXPECT_EQ(counter(*lan->secondary, "fd.heartbeats_received"), 0u);
}

TEST_F(FdFixture, SurvivesModerateHeartbeatLoss) {
  apps::TopologyParams lp;
  lp.medium.impairment.loss = 0.2;
  lp.medium.impairment.seed = 42;
  lan = apps::make_topology(lp);
  // Timeout of 10 periods tolerates long loss runs.
  build(milliseconds(10), milliseconds(100));
  int fired = 0;
  p_failed = [&] { ++fired; };
  s_failed = [&] { ++fired; };
  on_p->start();
  on_s->start();
  lan->sim.run_for(seconds(10));
  EXPECT_EQ(fired, 0);
}

TEST_F(FdFixture, MeshIdlesWithNoLivePeer) {
  // A survivor whose only peer is declared failed has nobody to
  // heartbeat: its send timer stops. A later watch() (a recruit) wakes it.
  build();
  on_p->start();
  on_s->start();
  lan->sim.run_for(milliseconds(100));
  lan->secondary->fail();
  lan->sim.run_for(milliseconds(200));
  ASSERT_TRUE(on_p->peer_failed(lan->secondary->address()));
  const std::uint64_t idle = counter(*lan->primary, "fd.heartbeats_sent");
  lan->sim.run_for(seconds(1));
  EXPECT_EQ(counter(*lan->primary, "fd.heartbeats_sent"), idle);
  EXPECT_EQ(lan->sim.pending(), 0u) << "an idle mesh must not keep a timer armed";

  on_p->watch(lan->client->address(), [] {});
  lan->sim.run_for(milliseconds(30));
  EXPECT_GT(counter(*lan->primary, "fd.heartbeats_sent"), idle);
}

TEST_F(FdFixture, MeshSurvivesWatchAfterStart) {
  // Regression: armed deadline callbacks capture a Peer*, and a watch()
  // issued after start() (reintegration) used to reallocate the peers
  // vector under them. With many late registrations every growth step is
  // exercised; all peers must still be declared exactly once, and the
  // early-armed timers must not touch freed storage.
  HeartbeatMesh mesh(*lan->primary, milliseconds(10), milliseconds(50));
  int fired = 0;
  mesh.watch(ip::Ipv4::parse("10.0.9.1"), [&] { ++fired; });
  mesh.start();
  for (int i = 2; i <= 30; ++i) {
    const std::string addr = "10.0.9." + std::to_string(i);
    mesh.watch(ip::Ipv4::parse(addr.c_str()), [&] { ++fired; });
  }
  lan->sim.run_for(seconds(1));
  EXPECT_EQ(fired, 30);
  EXPECT_EQ(mesh.peers_watched(), 30u);
  for (int i = 1; i <= 30; ++i) {
    const std::string addr = "10.0.9." + std::to_string(i);
    EXPECT_TRUE(mesh.peer_failed(ip::Ipv4::parse(addr.c_str()))) << addr;
  }
}

TEST_F(FdFixture, MeshLateWatchedPeerIsArmedImmediately) {
  // A silent peer registered after start() must still be detected: its
  // deadline arms at watch() time, not at its (never-arriving) first
  // heartbeat.
  HeartbeatMesh mesh(*lan->primary, milliseconds(10), milliseconds(50));
  mesh.start();
  lan->sim.run_for(milliseconds(100));
  SimTime declared_at = 0;
  const SimTime watched_at = lan->sim.now();
  mesh.watch(ip::Ipv4::parse("10.0.9.99"), [&] { declared_at = lan->sim.now(); });
  lan->sim.run_for(seconds(1));
  ASSERT_GT(declared_at, 0u);
  EXPECT_LE(declared_at - watched_at, static_cast<SimTime>(milliseconds(60)));
}

}  // namespace
}  // namespace tfo::core
