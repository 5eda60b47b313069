// Real applications on N-way replica chains: the web store and HTTP
// running 3-way replicated, surviving successive crashes.
#include <gtest/gtest.h>

#include "apps/http.hpp"
#include "apps/store.hpp"
#include "core/replica_chain.hpp"
#include "failover_fixture.hpp"

namespace tfo::core {
namespace {

using test::run_until;

struct ChainAppsFixture : ::testing::Test {
  std::unique_ptr<apps::Topology> lan;
  std::unique_ptr<apps::Host> backup2;
  std::vector<apps::Host*> servers;
  std::unique_ptr<ReplicaChain> chain;

  void build(std::uint16_t port) {
    lan = apps::make_topology();
    apps::HostParams hp;
    hp.name = "backup2";
    hp.addr = ip::Ipv4::parse("10.0.0.22");
    hp.seed = 102;
    backup2 = std::make_unique<apps::Host>(lan->sim, hp, *lan->wire);
    servers = {lan->primary.get(), lan->secondary.get(), backup2.get()};
    std::vector<apps::Host*> all = servers;
    all.push_back(lan->client.get());
    for (auto* a : all) {
      for (auto* b : all) {
        if (a != b) a->arp().add_static(b->address(), b->nic().mac());
      }
    }
    FailoverConfig cfg;
    cfg.ports = {port};
    chain = std::make_unique<ReplicaChain>(servers, cfg);
    chain->start();
  }
};

TEST_F(ChainAppsFixture, StoreSessionSurvivesTwoCrashes) {
  build(8000);
  std::vector<std::unique_ptr<apps::StoreServer>> stores;
  for (auto* s : servers) {
    stores.push_back(std::make_unique<apps::StoreServer>(s->tcp(), 8000));
  }
  apps::StoreClient customer(lan->client->tcp(), servers[0]->address(), 8000);

  customer.request("BUY grinder 1");
  ASSERT_TRUE(run_until(lan->sim, [&] { return customer.replies().size() >= 1; },
                        seconds(60)));
  EXPECT_EQ(customer.replies()[0], "OK 1 8999");

  chain->crash(0);
  customer.request("BUY grinder 1");
  ASSERT_TRUE(run_until(lan->sim, [&] { return customer.replies().size() >= 2; },
                        seconds(120)));
  EXPECT_EQ(customer.replies()[1], "OK 2 8999");

  chain->crash(1);
  customer.request("BROWSE grinder");
  customer.request("BUY grinder 1");
  ASSERT_TRUE(run_until(lan->sim, [&] { return customer.replies().size() >= 4; },
                        seconds(120)));
  EXPECT_EQ(customer.replies()[2], "ITEM grinder 8999 38");
  EXPECT_EQ(customer.replies()[3], "OK 3 8999");
  EXPECT_FALSE(customer.closed());
  EXPECT_EQ(chain->alive_count(), 1u);
}

TEST_F(ChainAppsFixture, HttpDownloadSurvivesHeadCrash) {
  build(80);
  const Bytes page = apps::deterministic_payload(400 * 1024, 9);
  std::vector<std::unique_ptr<apps::HttpServer>> webs;
  for (auto* s : servers) {
    auto web = std::make_unique<apps::HttpServer>(s->tcp(), 80);
    web->add_document("/big", page, "application/octet-stream");
    webs.push_back(std::move(web));
  }
  apps::HttpClient client(lan->client->tcp(), servers[0]->address());
  bool done = false, ok = false;
  apps::HttpClient::Response resp;
  client.get("/big", [&](bool k, apps::HttpClient::Response rr) {
    ok = k;
    resp = std::move(rr);
    done = true;
  });
  ASSERT_TRUE(run_until(lan->sim, [&] {
    return lan->client->tcp().connection_count() >= 1 &&
           lan->sim.now() > milliseconds(10);
  }, seconds(30)));
  chain->crash(0);
  ASSERT_TRUE(run_until(lan->sim, [&] { return done; }, seconds(300)));
  EXPECT_TRUE(ok);
  EXPECT_EQ(resp.status, 200);
  EXPECT_EQ(resp.body, page);
  // All three replicas (including the dead head, partially) saw the
  // request; the two survivors completed it.
  EXPECT_EQ(webs[1]->requests_served(), 1u);
  EXPECT_EQ(webs[2]->requests_served(), 1u);
}

TEST_F(ChainAppsFixture, SequentialHttpRequestsAcrossCrashes) {
  build(80);
  std::vector<std::unique_ptr<apps::HttpServer>> webs;
  for (auto* s : servers) {
    auto web = std::make_unique<apps::HttpServer>(s->tcp(), 80);
    web->add_document("/", to_bytes("alive"));
    webs.push_back(std::move(web));
  }
  auto fetch_ok = [&]() {
    apps::HttpClient client(lan->client->tcp(), servers[0]->address());
    bool done = false;
    int status = 0;
    client.get("/", [&](bool, apps::HttpClient::Response r2) {
      status = r2.status;
      done = true;
    });
    EXPECT_TRUE(run_until(lan->sim, [&] { return done; }, seconds(120)));
    return status == 200;
  };
  EXPECT_TRUE(fetch_ok());
  chain->crash(0);
  lan->sim.run_for(milliseconds(200));
  EXPECT_TRUE(fetch_ok());
  chain->crash(1);
  lan->sim.run_for(milliseconds(200));
  EXPECT_TRUE(fetch_ok());
}

}  // namespace
}  // namespace tfo::core
