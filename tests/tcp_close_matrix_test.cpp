// The TCP close handshake as a matrix: initiator × pending data × loss ×
// simultaneity. Every cell must end with both endpoints in CLOSED, all
// data delivered, and the connection tables drained.
#include <gtest/gtest.h>

#include <cstdint>

#include "apps/topology.hpp"
#include "ip/datagram.hpp"
#include "test_util.hpp"

namespace tfo::tcp {
namespace {

using apps::Topology;
using apps::TopologyParams;
using apps::make_topology;
using test::run_until;

// gtest prints a parameter without a PrintTo overload as a byte dump, and
// that dump is part of the test name ctest registers. The padding is
// spelled out as zeroed members so the name holds no uninitialised bytes.
struct CloseParam {
  bool client_first;       // who calls close() first
  std::uint8_t pad0[7] = {};
  std::size_t client_data;  // bytes still being sent by the client
  std::size_t server_data;  // bytes still being sent by the server
  double loss;
  bool simultaneous;        // both close() in the same instant
  std::uint8_t pad1[7] = {};
  const char* label;
};

class CloseMatrix : public ::testing::TestWithParam<CloseParam> {};

TEST_P(CloseMatrix, BothSidesReachClosedWithAllData) {
  const CloseParam& p = GetParam();
  TopologyParams lp;
  lp.medium.impairment.loss = p.loss;
  lp.medium.impairment.seed = 77;
  lp.tcp.max_rto = seconds(2);
  auto lan = make_topology(lp);

  std::shared_ptr<Connection> server;
  lan->primary->tcp().listen(80, [&](std::shared_ptr<Connection> c) {
    server = std::move(c);
  });
  auto client = lan->client->tcp().connect(lan->primary->address(), 80,
                                           {.nodelay = true});
  ASSERT_TRUE(run_until(lan->sim, [&] {
    return server && client->state() == TcpState::kEstablished;
  }, seconds(30)));

  Bytes got_up, got_down;
  server->on_readable = [&] { server->recv(got_up); };
  client->on_readable = [&] { client->recv(got_down); };
  // Passive side closes in response to the peer's FIN (unless this cell
  // is a simultaneous close).
  if (!p.simultaneous) {
    if (p.client_first) {
      server->on_peer_fin = [&] { server->close(); };
    } else {
      client->on_peer_fin = [&] { client->close(); };
    }
  }

  if (p.client_data > 0) client->send(test::pattern_bytes(p.client_data, 1));
  if (p.server_data > 0) server->send(test::pattern_bytes(p.server_data, 2));

  if (p.simultaneous) {
    client->close();
    server->close();
  } else if (p.client_first) {
    client->close();
  } else {
    server->close();
  }

  ASSERT_TRUE(run_until(lan->sim, [&] {
    return client->state() == TcpState::kClosed &&
           server->state() == TcpState::kClosed;
  }, seconds(300)))
      << "client " << state_name(client->state()) << ", server "
      << state_name(server->state());

  // close() is graceful: all data queued before it must still arrive.
  EXPECT_EQ(got_up.size(), p.client_data);
  EXPECT_EQ(got_down.size(), p.server_data);
  if (p.client_data > 0) {
    EXPECT_EQ(got_up, test::pattern_bytes(p.client_data, 1));
  }
  if (p.server_data > 0) {
    EXPECT_EQ(got_down, test::pattern_bytes(p.server_data, 2));
  }

  // Connection tables drain (TIME_WAIT and deferred removals included).
  ASSERT_TRUE(run_until(lan->sim, [&] {
    return lan->client->tcp().connection_count() == 0 &&
           lan->primary->tcp().connection_count() == 0;
  }, seconds(60)));
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, CloseMatrix,
    ::testing::Values(
        CloseParam{.client_first = true, .client_data = 0, .server_data = 0,
                   .loss = 0.0, .simultaneous = false, .label = "client_first_idle"},
        CloseParam{.client_first = false, .client_data = 0, .server_data = 0,
                   .loss = 0.0, .simultaneous = false, .label = "server_first_idle"},
        CloseParam{.client_first = true, .client_data = 50000, .server_data = 0,
                   .loss = 0.0, .simultaneous = false, .label = "client_first_with_upload"},
        CloseParam{.client_first = true, .client_data = 0, .server_data = 50000,
                   .loss = 0.0, .simultaneous = false, .label = "client_first_with_download"},
        CloseParam{.client_first = false, .client_data = 50000, .server_data = 50000,
                   .loss = 0.0, .simultaneous = false, .label = "server_first_bidi"},
        CloseParam{.client_first = true, .client_data = 100000, .server_data = 100000,
                   .loss = 0.0, .simultaneous = false, .label = "client_first_bidi_large"},
        CloseParam{.client_first = true, .client_data = 0, .server_data = 0,
                   .loss = 0.0, .simultaneous = true, .label = "simultaneous_idle"},
        CloseParam{.client_first = true, .client_data = 20000, .server_data = 20000,
                   .loss = 0.0, .simultaneous = true, .label = "simultaneous_with_data"},
        CloseParam{.client_first = true, .client_data = 0, .server_data = 0,
                   .loss = 0.05, .simultaneous = false, .label = "client_first_lossy"},
        CloseParam{.client_first = false, .client_data = 0, .server_data = 0,
                   .loss = 0.05, .simultaneous = false, .label = "server_first_lossy"},
        CloseParam{.client_first = true, .client_data = 30000, .server_data = 30000,
                   .loss = 0.05, .simultaneous = false, .label = "bidi_lossy"},
        CloseParam{.client_first = true, .client_data = 10000, .server_data = 10000,
                   .loss = 0.10, .simultaneous = true, .label = "simultaneous_very_lossy"}),
    [](const ::testing::TestParamInfo<CloseParam>& info) { return info.param.label; });

// Abort (RST) interactions with pending data: the peer learns promptly
// and pending writes are dropped, never half-delivered as corruption.
TEST(CloseEdge, AbortDuringTransferResetsPeer) {
  auto lan = make_topology();
  std::shared_ptr<Connection> server;
  lan->primary->tcp().listen(80, [&](std::shared_ptr<Connection> c) {
    server = std::move(c);
  });
  auto client = lan->client->tcp().connect(lan->primary->address(), 80);
  ASSERT_TRUE(run_until(lan->sim, [&] {
    return server && client->state() == TcpState::kEstablished;
  }, seconds(30)));
  Bytes got;
  server->on_readable = [&] { server->recv(got); };
  CloseReason server_reason{};
  bool server_closed = false;
  server->on_closed = [&](CloseReason r) {
    server_reason = r;
    server_closed = true;
  };
  client->send(test::pattern_bytes(200000, 5));
  lan->sim.run_for(milliseconds(5));
  client->abort();
  ASSERT_TRUE(run_until(lan->sim, [&] { return server_closed; }, seconds(30)));
  EXPECT_EQ(server_reason, CloseReason::kReset);
  // Whatever did arrive was a correct prefix.
  const Bytes full = test::pattern_bytes(200000, 5);
  EXPECT_TRUE(std::equal(got.begin(), got.end(), full.begin()));
}

TEST(CloseEdge, CloseListenerStopsNewConnectionsOnly) {
  auto lan = make_topology();
  std::shared_ptr<Connection> server;
  lan->primary->tcp().listen(80, [&](std::shared_ptr<Connection> c) {
    server = std::move(c);
  });
  auto c1 = lan->client->tcp().connect(lan->primary->address(), 80, {.nodelay = true});
  ASSERT_TRUE(run_until(lan->sim, [&] {
    return server && c1->state() == TcpState::kEstablished;
  }, seconds(30)));
  lan->primary->tcp().close_listener(80);

  // The established connection still works...
  Bytes got;
  server->on_readable = [&] {
    Bytes b;
    server->recv(b);
    server->send(std::move(b));
  };
  c1->on_readable = [&] { c1->recv(got); };
  c1->send(to_bytes("still alive"));
  ASSERT_TRUE(run_until(lan->sim, [&] { return got.size() == 11; }, seconds(30)));

  // ...but a new connect is refused.
  auto c2 = lan->client->tcp().connect(lan->primary->address(), 80);
  CloseReason r2{};
  bool closed2 = false;
  c2->on_closed = [&](CloseReason r) {
    r2 = r;
    closed2 = true;
  };
  ASSERT_TRUE(run_until(lan->sim, [&] { return closed2; }, seconds(30)));
  EXPECT_EQ(r2, CloseReason::kRefused);
}

}  // namespace
}  // namespace tfo::tcp
