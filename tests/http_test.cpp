// Tests for the HTTP/1.0 application — plain TCP and behind the failover
// bridge (the paper's §1 "replicated Web server" scenario).
#include <gtest/gtest.h>

#include "apps/http.hpp"
#include "core/replica_group.hpp"
#include "failover_fixture.hpp"

namespace tfo::apps {
namespace {

using test::run_until;

struct HttpFixture : ::testing::Test {
  std::unique_ptr<Topology> lan = make_topology();
  std::unique_ptr<HttpServer> server;

  void build() {
    server = std::make_unique<HttpServer>(lan->primary->tcp(), 80);
    server->add_document("/index.html", to_bytes("<html>hello</html>"));
    server->add_document("/big", deterministic_payload(200 * 1024, 77),
                         "application/octet-stream");
  }

  HttpClient::Response fetch(const std::string& path, bool* ok_out = nullptr) {
    HttpClient client(lan->client->tcp(), lan->primary->address());
    HttpClient::Response out;
    bool done = false, ok = false;
    client.get(path, [&](bool r, HttpClient::Response resp) {
      ok = r;
      out = std::move(resp);
      done = true;
    });
    EXPECT_TRUE(run_until(lan->sim, [&] { return done; }, seconds(120)));
    if (ok_out != nullptr) *ok_out = ok;
    return out;
  }
};

TEST_F(HttpFixture, GetSmallDocument) {
  build();
  bool ok = false;
  const auto resp = fetch("/index.html", &ok);
  EXPECT_TRUE(ok);
  EXPECT_EQ(resp.status, 200);
  EXPECT_EQ(to_string(resp.body), "<html>hello</html>");
  EXPECT_NE(resp.headers.find("Content-Type: text/html"), std::string::npos);
  EXPECT_EQ(server->requests_served(), 1u);
}

TEST_F(HttpFixture, GetLargeDocument) {
  build();
  const auto resp = fetch("/big");
  EXPECT_EQ(resp.status, 200);
  EXPECT_EQ(resp.body, deterministic_payload(200 * 1024, 77));
}

TEST_F(HttpFixture, NotFoundIs404) {
  build();
  const auto resp = fetch("/missing");
  EXPECT_EQ(resp.status, 404);
  EXPECT_EQ(server->responses_404(), 1u);
}

TEST_F(HttpFixture, UnsupportedMethodIs501) {
  build();
  auto conn = lan->client->tcp().connect(lan->primary->address(), 80, {.nodelay = true});
  Bytes raw;
  conn->on_established = [&] { conn->send(to_bytes("POST /x HTTP/1.0\r\n\r\n")); };
  conn->on_readable = [&] { conn->recv(raw); };
  ASSERT_TRUE(run_until(lan->sim, [&] {
    return to_string(raw).find("501") != std::string::npos;
  }, seconds(30)));
}

TEST_F(HttpFixture, ContentLengthMatchesBody) {
  build();
  const auto resp = fetch("/index.html");
  EXPECT_NE(resp.headers.find("Content-Length: 18"), std::string::npos);
}

TEST_F(HttpFixture, SequentialRequestsUseFreshConnections) {
  build();
  for (int i = 0; i < 5; ++i) {
    const auto resp = fetch("/index.html");
    EXPECT_EQ(resp.status, 200);
  }
  EXPECT_EQ(server->requests_served(), 5u);
}

TEST(HttpFailover, DownloadSurvivesPrimaryCrash) {
  core::FailoverConfig cfg;
  cfg.ports = {80};
  auto r = test::make_replicated({}, cfg, test::no_app);
  HttpServer web_p(r->primary().tcp(), 80);
  HttpServer web_s(r->secondary().tcp(), 80);
  const Bytes page = deterministic_payload(500 * 1024, 3);
  web_p.add_document("/app.js", page, "text/javascript");
  web_s.add_document("/app.js", page, "text/javascript");

  HttpClient client(r->client().tcp(), r->primary().address());
  bool done = false, ok = false;
  HttpClient::Response resp;
  client.get("/app.js", [&](bool k, HttpClient::Response rr) {
    ok = k;
    resp = std::move(rr);
    done = true;
  });
  // Crash mid-download.
  ASSERT_TRUE(run_until(r->sim(), [&] {
    return r->client().tcp().connection_count() >= 1 && r->sim().now() > milliseconds(5);
  }, seconds(30)));
  r->group->crash_primary();
  ASSERT_TRUE(run_until(r->sim(), [&] { return done; }, seconds(300)));
  EXPECT_TRUE(ok);
  EXPECT_EQ(resp.status, 200);
  EXPECT_EQ(resp.body, page);
}

TEST(HttpFailover, BothReplicasServeEveryRequest) {
  core::FailoverConfig cfg;
  cfg.ports = {80};
  auto r = test::make_replicated({}, cfg, test::no_app);
  HttpServer web_p(r->primary().tcp(), 80);
  HttpServer web_s(r->secondary().tcp(), 80);
  web_p.add_document("/", to_bytes("root"));
  web_s.add_document("/", to_bytes("root"));

  for (int i = 0; i < 3; ++i) {
    HttpClient client(r->client().tcp(), r->primary().address());
    bool done = false;
    client.get("/", [&](bool, HttpClient::Response) { done = true; });
    ASSERT_TRUE(run_until(r->sim(), [&] { return done; }, seconds(60)));
  }
  EXPECT_EQ(web_p.requests_served(), 3u);
  EXPECT_EQ(web_s.requests_served(), 3u);
}

}  // namespace
}  // namespace tfo::apps
