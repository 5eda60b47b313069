// Unit tests for the tfo::obs observability subsystem: registry handles,
// histogram statistics, the bounded timeline, and the JSON serializers
// whose shape OBSERVABILITY.md documents and scripts/check_bench_json.py
// validates.
#include <gtest/gtest.h>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/timeline.hpp"

namespace tfo::obs {
namespace {

tcp::ConnKey key_a() { return {ip::Ipv4{0x0a000001}, 80, ip::Ipv4{0x0a000002}, 40001}; }
tcp::ConnKey key_b() { return {ip::Ipv4{0x0a000001}, 80, ip::Ipv4{0x0a000003}, 40002}; }

TEST(Registry, HandlesAreStableAndNamed) {
  Registry reg;
  Counter& a = reg.counter("x.a");
  a.inc();
  Counter& b = reg.counter("x.b");
  b.inc(5);
  // Same name -> same object, also after other insertions (node storage).
  EXPECT_EQ(&a, &reg.counter("x.a"));
  EXPECT_EQ(reg.counter_value("x.a"), 1u);
  EXPECT_EQ(reg.counter_value("x.b"), 5u);
  EXPECT_EQ(reg.counter_value("never.registered"), 0u);
}

TEST(Registry, GaugeTracksHighWaterMark) {
  Registry reg;
  Gauge& g = reg.gauge("queue.depth");
  g.set(3);
  g.add(4);   // 7
  g.add(-6);  // 1
  EXPECT_EQ(g.value(), 1);
  EXPECT_EQ(g.max_value(), 7);
  EXPECT_EQ(reg.gauge_value("queue.depth"), 1);
}

TEST(Registry, SnapshotIsSortedByName) {
  Registry reg;
  reg.counter("z.last").inc();
  reg.counter("a.first").inc();
  reg.counter("m.middle").inc();
  reg.gauge("g2").set(2);
  reg.gauge("g1").set(1);
  const Snapshot snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 3u);
  EXPECT_EQ(snap.counters[0].first, "a.first");
  EXPECT_EQ(snap.counters[1].first, "m.middle");
  EXPECT_EQ(snap.counters[2].first, "z.last");
  ASSERT_EQ(snap.gauges.size(), 2u);
  EXPECT_EQ(snap.gauges[0].first, "g1");
}

TEST(Histogram, ExactStatsAndQuantiles) {
  Histogram h;
  for (std::uint64_t v : {1u, 2u, 4u, 8u, 100u}) h.observe(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 115u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 100u);
  EXPECT_DOUBLE_EQ(h.mean(), 23.0);
  // Quantiles come from power-of-two bucket upper bounds: monotone and
  // within a factor of two of the true order statistic.
  EXPECT_LE(h.quantile(0.5), h.quantile(0.99));
  EXPECT_GE(h.quantile(0.99), 64u);  // 100 lands in [64,128)
  EXPECT_LE(h.quantile(0.0), 2u);
}

TEST(Histogram, ZeroSampleGoesToBucketZero) {
  Histogram h;
  h.observe(0);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.buckets()[0], 1u);
}

TEST(EventLog, BoundedDropsOldest) {
  EventLog log(4);
  for (int i = 0; i < 10; ++i) {
    log.record(i, EventKind::kConnClosed, key_a(), std::to_string(i));
  }
  EXPECT_EQ(log.size(), 4u);
  EXPECT_EQ(log.recorded_total(), 10u);
  EXPECT_EQ(log.dropped(), 6u);
  EXPECT_EQ(log.events().front().detail, "6");  // oldest surviving
  EXPECT_EQ(log.events().back().detail, "9");
}

TEST(EventLog, FilterPreservesOrder) {
  EventLog log;
  log.record(1, EventKind::kConnCreated, key_a());
  log.record(2, EventKind::kConnClosed, key_a());
  log.record(3, EventKind::kConnCreated, key_b());
  const auto created = log.filter(EventKind::kConnCreated);
  ASSERT_EQ(created.size(), 2u);
  EXPECT_TRUE(created[0].conn == key_a());
  EXPECT_TRUE(created[1].conn == key_b());
}

// The snake_case names are the contract with scripts/check_bench_json.py
// (KNOWN_EVENTS) and OBSERVABILITY.md; renaming one breaks recorded
// artifacts, so the full mapping is pinned here.
TEST(EventKindNames, StableWireNames) {
  EXPECT_STREQ(to_string(EventKind::kConnCreated), "conn_created");
  EXPECT_STREQ(to_string(EventKind::kHandshakeMerged), "handshake_merged");
  EXPECT_STREQ(to_string(EventKind::kDivergence), "divergence");
  EXPECT_STREQ(to_string(EventKind::kConnClosed), "conn_closed");
  EXPECT_STREQ(to_string(EventKind::kTombstoneCreated), "tombstone_created");
  EXPECT_STREQ(to_string(EventKind::kTombstoneExpired), "tombstone_expired");
  EXPECT_STREQ(to_string(EventKind::kStrayFinAcked), "stray_fin_acked");
  EXPECT_STREQ(to_string(EventKind::kStrayFinSuppressed), "stray_fin_suppressed");
  EXPECT_STREQ(to_string(EventKind::kTakeoverStart), "takeover_start");
  EXPECT_STREQ(to_string(EventKind::kTakeoverComplete), "takeover_complete");
  EXPECT_STREQ(to_string(EventKind::kSecondaryFailed), "secondary_failed");
  EXPECT_STREQ(to_string(EventKind::kPeerDeclaredFailed), "peer_declared_failed");
  EXPECT_STREQ(to_string(EventKind::kHostFailed), "host_failed");
  EXPECT_STREQ(to_string(EventKind::kRouteAdvertSent), "route_advert_sent");
  EXPECT_STREQ(to_string(EventKind::kRouteConverged),
               "takeover.route_converged");
  EXPECT_STREQ(to_string(EventKind::kClientMigrated), "client_migrated");
}

TEST(Json, EscapesControlAndQuotes) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json_escape("x\ny\t"), "x\\ny\\t");
  EXPECT_EQ(json_escape(std::string("\x01", 1)), "\\u0001");
}

TEST(Json, WriterNestingAndCommas) {
  JsonWriter w;
  w.begin_object();
  w.key("a").value(std::uint64_t{1});
  w.key("b").begin_array().value("x").value("y").end_array();
  w.key("c").begin_object().key("d").value(true).end_object();
  w.end_object();
  EXPECT_EQ(w.str(), R"({"a":1,"b":["x","y"],"c":{"d":true}})");
}

TEST(Json, MetricsShapeMatchesSchema) {
  Registry reg;
  reg.counter("tcp.segments_sent").inc(7);
  reg.gauge("bridge.connections").set(2);
  reg.histogram("bridge.merged_payload_bytes").observe(8);
  const std::string j = metrics_json("primary", reg.snapshot());
  EXPECT_NE(j.find("\"host\":\"primary\""), std::string::npos);
  EXPECT_NE(j.find("\"tcp.segments_sent\":7"), std::string::npos);
  EXPECT_NE(j.find("\"value\":2"), std::string::npos);
  EXPECT_NE(j.find("\"max\":2"), std::string::npos);
  EXPECT_NE(j.find("\"p50\""), std::string::npos);
  EXPECT_NE(j.find("\"p99\""), std::string::npos);
}

TEST(Json, TimelineShapeMatchesSchema) {
  EventLog log;
  log.record(42, EventKind::kTakeoverStart, {}, "addr=10.0.0.1");
  log.record(43, EventKind::kConnCreated, key_a());
  const std::string j = timeline_json("secondary", log);
  EXPECT_NE(j.find("\"t_ns\":42"), std::string::npos);
  EXPECT_NE(j.find("\"event\":\"takeover_start\""), std::string::npos);
  EXPECT_NE(j.find("\"host\":\"secondary\""), std::string::npos);
  EXPECT_NE(j.find("\"detail\":\"addr=10.0.0.1\""), std::string::npos);
  // Keys are stored unformatted and printed on export; a host-scope
  // event's is empty.
  EXPECT_NE(j.find("\"conn\":\"\""), std::string::npos);
  EXPECT_NE(j.find("\"conn\":\"10.0.0.1:80<->10.0.0.2:40001\""), std::string::npos);
}

TEST(Hub, RegistryAndTimelineLiveTogether) {
  Hub hub;
  hub.registry.counter("k").inc();
  hub.timeline.record(1, EventKind::kConnCreated, key_a());
  EXPECT_EQ(hub.registry.counter_value("k"), 1u);
  EXPECT_EQ(hub.timeline.size(), 1u);
}

}  // namespace
}  // namespace tfo::obs
