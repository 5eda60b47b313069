// Tests for the frame tracer — and wire-level assertions about the
// failover bridge that only a tracer can make (e.g. "every segment the
// secondary emits during normal operation is addressed to the primary").
#include <gtest/gtest.h>

#include "apps/trace.hpp"
#include "failover_fixture.hpp"

namespace tfo::apps {
namespace {

using test::run_until;

TEST(FrameTracer, DecodesTcpSegments) {
  auto lan = make_topology();
  FrameTracer at_primary(lan->sim, lan->primary->nic());
  EchoServer echo(lan->primary->tcp(), 80);
  auto conn = lan->client->tcp().connect(lan->primary->address(), 80, {.nodelay = true});
  Bytes got;
  conn->on_established = [&] { conn->send(to_bytes("probe")); };
  conn->on_readable = [&] { conn->recv(got); };
  ASSERT_TRUE(run_until(lan->sim, [&] { return got.size() == 5; }));

  // The capture contains the client SYN and the 5-byte request.
  EXPECT_GE(at_primary.count([](const TraceRecord& r) {
    return r.has_tcp && (r.flags & tcp::Flags::kSyn) && !(r.flags & tcp::Flags::kAck);
  }), 1u);
  EXPECT_GE(at_primary.count([](const TraceRecord& r) {
    return r.has_tcp && r.payload_len == 5 && r.dst_port == 80;
  }), 1u);
  // Summaries render without crashing and mention the endpoints.
  EXPECT_NE(at_primary.dump().find("10.0.0.10"), std::string::npos);
}

TEST(FrameTracer, SeesArpTraffic) {
  apps::TopologyParams lp;
  lp.warm_arp = false;  // force a real ARP exchange
  auto lan = make_topology(lp);
  FrameTracer at_primary(lan->sim, lan->primary->nic());
  bool resolved = false;
  lan->client->arp().resolve(lan->primary->address(),
                             [&](net::MacAddress) { resolved = true; });
  ASSERT_TRUE(run_until(lan->sim, [&] { return resolved; }));
  EXPECT_GE(at_primary.count([](const TraceRecord& r) {
    return r.type == net::EtherType::kArp;
  }), 1u);
}

TEST(FrameTracer, PromiscuousCaptureFlagged) {
  auto r = test::make_replicated();
  FrameTracer at_secondary(r->sim(), r->secondary().nic());
  test::EchoDriver d(r->client(), r->primary().address(), test::kEchoPort, 2000, 500);
  ASSERT_TRUE(run_until(r->sim(), [&] { return d.done(); }));
  // The secondary's NIC captured client->primary frames promiscuously.
  EXPECT_GE(at_secondary.count([&](const TraceRecord& r2) {
    return !r2.to_us && r2.has_tcp && r2.dst_ip == r->primary().address();
  }), 2u);
}

// Wire-level §3.1 property: in fault-free operation, the secondary never
// transmits a frame addressed (at the IP layer) to the client — all its
// TCP output is diverted to the primary carrying the orig-dst option.
TEST(WireProperties, SecondaryNeverAddressesClientBeforeFailover) {
  auto r = test::make_replicated();
  FrameTracer at_client(r->sim(), r->client().nic());
  test::EchoDriver d(r->client(), r->primary().address(), test::kEchoPort, 20000, 2000);
  ASSERT_TRUE(run_until(r->sim(), [&] { return d.done(); }, seconds(120)));

  const auto from_secondary_to_client = at_client.count([&](const TraceRecord& rec) {
    return rec.has_ip && rec.src_ip == r->secondary().address() &&
           rec.dst_ip == r->client().address();
  });
  EXPECT_EQ(from_secondary_to_client, 0u);
}

// Wire-level §3.1 property: diverted segments carry the original
// destination as a TCP option.
TEST(WireProperties, DivertedSegmentsCarryOrigDstOption) {
  auto r = test::make_replicated();
  FrameTracer at_primary(r->sim(), r->primary().nic());
  test::EchoDriver d(r->client(), r->primary().address(), test::kEchoPort, 5000, 1000);
  ASSERT_TRUE(run_until(r->sim(), [&] { return d.done(); }, seconds(60)));

  const auto diverted = at_primary.count([&](const TraceRecord& rec) {
    return rec.has_tcp && rec.src_ip == r->secondary().address() &&
           rec.dst_ip == r->primary().address();
  });
  const auto diverted_with_option = at_primary.count([&](const TraceRecord& rec) {
    return rec.has_tcp && rec.src_ip == r->secondary().address() &&
           rec.dst_ip == r->primary().address() && rec.has_orig_dst_option;
  });
  EXPECT_GT(diverted, 0u);
  EXPECT_EQ(diverted, diverted_with_option);
}

// Wire-level §5 property: after takeover the secondary sources frames
// from the primary's IP address.
TEST(WireProperties, AfterTakeoverSecondarySpeaksAsPrimary) {
  auto r = test::make_replicated();
  test::EchoDriver d(r->client(), r->primary().address(), test::kEchoPort, 40000, 2000);
  ASSERT_TRUE(run_until(r->sim(), [&] { return d.received().size() > 10000; }));
  r->group->crash_primary();
  ASSERT_TRUE(run_until(r->sim(), [&] {
    return r->group->secondary_bridge().taken_over();
  }, seconds(10)));

  FrameTracer at_client(r->sim(), r->client().nic());
  ASSERT_TRUE(run_until(r->sim(), [&] { return d.done(); }, seconds(120)));
  EXPECT_GT(at_client.count([&](const TraceRecord& rec) {
    return rec.has_tcp && rec.src_ip == r->primary().address() &&
           rec.src_mac == r->secondary().nic().mac();
  }), 0u);
  // And never with its own (secondary) source address.
  EXPECT_EQ(at_client.count([&](const TraceRecord& rec) {
    return rec.has_ip && rec.src_ip == r->secondary().address();
  }), 0u);
}

}  // namespace
}  // namespace tfo::apps
