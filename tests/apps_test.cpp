// Tests for the application layer over plain (unreplicated) TCP: the
// deterministic web store and the active-mode FTP implementation.
#include <gtest/gtest.h>

#include "apps/echo.hpp"
#include "apps/ftp.hpp"
#include "apps/store.hpp"
#include "apps/topology.hpp"
#include "test_util.hpp"

namespace tfo::apps {
namespace {

using test::run_until;

struct AppsFixture : ::testing::Test {
  std::unique_ptr<Topology> lan = make_topology();
  sim::Simulator& sim() { return lan->sim; }
};

TEST_F(AppsFixture, StoreListBrowseBuy) {
  StoreServer server(lan->primary->tcp(), 8000);
  StoreClient client(lan->client->tcp(), lan->primary->address(), 8000);
  client.request("LIST");
  client.request("BROWSE grinder");
  client.request("BUY grinder 2");
  client.request("BUY grinder 1000");
  client.request("BROWSE nonsense");
  ASSERT_TRUE(run_until(sim(), [&] { return client.replies().size() >= 10; }));
  const auto& r = client.replies();
  // LIST: 5 items + END.
  EXPECT_EQ(r[0].rfind("ITEM espresso-machine", 0), 0u);
  EXPECT_EQ(r[5], "END");
  EXPECT_EQ(r[6], "ITEM grinder 8999 40");
  EXPECT_EQ(r[7], "OK 1 17998");
  EXPECT_EQ(r[8], "NOSTOCK");
  EXPECT_EQ(r[9], "NOITEM");
  EXPECT_EQ(server.orders_placed(), 1u);
}

TEST_F(AppsFixture, StoreStockIsPerConnection) {
  StoreServer server(lan->primary->tcp(), 8000);
  StoreClient a(lan->client->tcp(), lan->primary->address(), 8000);
  StoreClient b(lan->client->tcp(), lan->primary->address(), 8000);
  a.request("BUY scale 7");
  ASSERT_TRUE(run_until(sim(), [&] { return a.replies().size() >= 1; }));
  EXPECT_EQ(a.replies()[0].rfind("OK", 0), 0u);
  // A different connection still sees the full deterministic stock.
  b.request("BROWSE scale");
  ASSERT_TRUE(run_until(sim(), [&] { return b.replies().size() >= 1; }));
  EXPECT_EQ(b.replies()[0], "ITEM scale 2199 7");
}

TEST_F(AppsFixture, StoreQuitClosesConnection) {
  StoreServer server(lan->primary->tcp(), 8000);
  StoreClient client(lan->client->tcp(), lan->primary->address(), 8000);
  client.quit();
  ASSERT_TRUE(run_until(sim(), [&] { return client.closed(); }, seconds(30)));
  ASSERT_FALSE(client.replies().empty());
  EXPECT_EQ(client.replies().back(), "BYE");
}

struct FtpFixture : AppsFixture {
  std::unique_ptr<FtpServer> server;
  std::unique_ptr<FtpClient> client;

  void build() {
    server = std::make_unique<FtpServer>(lan->primary->tcp());
    server->add_file("hello.txt", to_bytes("hello ftp world"));
    server->add_file("big.bin", deterministic_payload(300 * 1024, 42));
    client = std::make_unique<FtpClient>(lan->client->tcp(), lan->primary->address());
  }

  bool login() {
    bool ok = false, done = false;
    client->login([&](bool r) {
      ok = r;
      done = true;
    });
    return run_until(sim(), [&] { return done; }, seconds(30)) && ok;
  }
};

TEST_F(FtpFixture, LoginSucceeds) {
  build();
  EXPECT_TRUE(login());
}

TEST_F(FtpFixture, CommandsBeforeLoginRejected) {
  build();
  // Drive the control channel manually: RETR before USER.
  bool got_530 = false;
  auto conn = lan->client->tcp().connect(lan->primary->address(), 21);
  std::string buf;
  conn->on_readable = [&] {
    Bytes d;
    conn->recv(d);
    buf += to_string(d);
    if (buf.find("530") != std::string::npos) got_530 = true;
  };
  conn->on_established = [&] { conn->send(to_bytes("RETR hello.txt\r\n")); };
  ASSERT_TRUE(run_until(sim(), [&] { return got_530; }, seconds(30)));
}

TEST_F(FtpFixture, GetSmallFile) {
  build();
  ASSERT_TRUE(login());
  Bytes content;
  bool ok = false, done = false;
  client->get("hello.txt", [&](bool r, Bytes b) {
    ok = r;
    content = std::move(b);
    done = true;
  });
  ASSERT_TRUE(run_until(sim(), [&] { return done; }, seconds(60)));
  EXPECT_TRUE(ok);
  EXPECT_EQ(to_string(content), "hello ftp world");
  EXPECT_EQ(server->transfers_completed(), 1u);
}

TEST_F(FtpFixture, GetLargeFile) {
  build();
  ASSERT_TRUE(login());
  Bytes content;
  bool done = false;
  client->get("big.bin", [&](bool, Bytes b) {
    content = std::move(b);
    done = true;
  });
  ASSERT_TRUE(run_until(sim(), [&] { return done; }, seconds(300)));
  EXPECT_EQ(content, deterministic_payload(300 * 1024, 42));
}

TEST_F(FtpFixture, GetMissingFileFails) {
  build();
  ASSERT_TRUE(login());
  bool ok = true, done = false;
  client->get("no-such-file", [&](bool r, Bytes) {
    ok = r;
    done = true;
  });
  ASSERT_TRUE(run_until(sim(), [&] { return done; }, seconds(30)));
  EXPECT_FALSE(ok);
}

TEST_F(FtpFixture, PutThenGetRoundTrip) {
  build();
  ASSERT_TRUE(login());
  const Bytes payload = deterministic_payload(80 * 1024, 7);
  bool put_ok = false, put_done = false;
  client->put("upload.bin", payload, [&](bool r) {
    put_ok = r;
    put_done = true;
  });
  ASSERT_TRUE(run_until(sim(), [&] { return put_done; }, seconds(120)));
  EXPECT_TRUE(put_ok);
  ASSERT_TRUE(server->files().contains("upload.bin"));
  EXPECT_EQ(server->files().at("upload.bin"), payload);

  Bytes back;
  bool get_done = false;
  client->get("upload.bin", [&](bool, Bytes b) {
    back = std::move(b);
    get_done = true;
  });
  ASSERT_TRUE(run_until(sim(), [&] { return get_done; }, seconds(120)));
  EXPECT_EQ(back, payload);
}

TEST_F(FtpFixture, SequentialTransfersReuseControlConnection) {
  build();
  ASSERT_TRUE(login());
  int completed = 0;
  std::function<void(int)> next = [&](int i) {
    if (i == 3) return;
    client->get("hello.txt", [&, i](bool ok, Bytes) {
      EXPECT_TRUE(ok);
      ++completed;
      next(i + 1);
    });
  };
  next(0);
  ASSERT_TRUE(run_until(sim(), [&] { return completed == 3; }, seconds(120)));
  EXPECT_EQ(server->transfers_completed(), 3u);
}

TEST_F(FtpFixture, WorksAcrossWan) {
  // The paper's Figure 6 environment: FTP across a router + WAN link.
  TopologyParams tp{.seed = 12, .hops = 1};
  tp.wan_link.propagation = milliseconds(10);
  tp.wan_link.bandwidth_bps = 8'000'000;
  auto wan = make_topology(tp);
  FtpServer srv(wan->primary->tcp());
  srv.add_file("wan.bin", deterministic_payload(50 * 1024, 3));
  FtpClient cli(wan->client->tcp(), wan->primary->address());
  bool login_done = false;
  cli.login([&](bool) { login_done = true; });
  ASSERT_TRUE(run_until(wan->sim, [&] { return login_done; }, seconds(30)));
  Bytes content;
  bool done = false;
  cli.get("wan.bin", [&](bool ok, Bytes b) {
    EXPECT_TRUE(ok);
    content = std::move(b);
    done = true;
  });
  ASSERT_TRUE(run_until(wan->sim, [&] { return done; }, seconds(300)));
  EXPECT_EQ(content, deterministic_payload(50 * 1024, 3));
}

}  // namespace
}  // namespace tfo::apps
