// GRO coalescer correctness.
//
// Unit half: synthetic IPv4/TCP frames driven straight through
// `gro_coalesce` — merge eligibility, PSH boundaries, the arrival-order
// adjacency rule, checksum verification (corrupt frames must never be
// folded into a merged segment), and byte-identical passthrough of
// ineligible traffic.
//
// Property half: an echo transfer with rx batching + GRO enabled delivers
// a byte-identical application stream to the legacy per-frame path,
// across seeds and across a §3.1 failover (the secondary's rewritten
// segments must still verify and coalesce correctly).
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/checksum.hpp"
#include "failover_fixture.hpp"
#include "net/gro.hpp"

namespace tfo {
namespace {

using test::kEchoPort;
using test::run_until;

constexpr std::uint8_t kAck = 0x10;
constexpr std::uint8_t kPsh = 0x08;
constexpr std::uint8_t kFin = 0x01;

std::uint8_t* put16(std::uint8_t* p, std::uint16_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 8);
  p[1] = static_cast<std::uint8_t>(v & 0xff);
  return p + 2;
}
std::uint8_t* put32(std::uint8_t* p, std::uint32_t v) {
  put16(p, static_cast<std::uint16_t>(v >> 16));
  put16(p + 2, static_cast<std::uint16_t>(v & 0xffff));
  return p + 4;
}

/// Crafts a checksum-correct IPv4/TCP frame (no options) carrying
/// `payload`.
net::RxFrame make_frame(std::uint32_t seq,
                        const Bytes& payload, std::uint8_t flags = kAck,
                        std::uint32_t ack = 1000, std::uint16_t window = 65535,
                        std::uint16_t sport = 4000, std::uint16_t dport = 5000) {
  const std::size_t tcp_len = 20 + payload.size();
  const std::size_t tot_len = 20 + tcp_len;
  wire::PacketBuffer buf = wire::PacketBuffer::alloc(tot_len, 0);
  std::uint8_t* ip = buf.mutable_data();
  std::memset(ip, 0, tot_len);
  ip[0] = 0x45;
  put16(ip + 2, static_cast<std::uint16_t>(tot_len));
  ip[8] = 64;  // TTL
  ip[9] = 6;   // TCP
  put32(ip + 12, 0x0a000001);  // 10.0.0.1
  put32(ip + 16, 0x0a00000a);  // 10.0.0.10
  put16(ip + 10, inet_checksum(BytesView(ip, 20)));

  std::uint8_t* tcp = ip + 20;
  put16(tcp, sport);
  put16(tcp + 2, dport);
  put32(tcp + 4, seq);
  put32(tcp + 8, ack);
  tcp[12] = 0x50;  // data offset 5
  tcp[13] = flags;
  put16(tcp + 14, window);
  if (!payload.empty()) std::memcpy(tcp + 20, payload.data(), payload.size());
  std::uint32_t pseudo = 0;
  for (int off : {12, 14, 16, 18})
    pseudo += (ip[off] << 8) | ip[off + 1];
  pseudo += 6 + static_cast<std::uint32_t>(tcp_len);
  put16(tcp + 16, static_cast<std::uint16_t>(
                      ~ones_complement_sum(BytesView(tcp, tcp_len), pseudo) &
                      0xffff));

  net::RxFrame rx;
  rx.frame.dst = net::MacAddress::from_id(10);
  rx.frame.src = net::MacAddress::from_id(1);
  rx.frame.type = net::EtherType::kIpv4;
  rx.frame.payload = std::move(buf);
  rx.to_us = true;
  return rx;
}

std::vector<net::RxFrame> coalesce(std::vector<net::RxFrame> in,
                                   net::GroStats& stats,
                                   net::GroParams params = {}) {
  std::vector<net::RxFrame> out;
  net::gro_coalesce(params, std::move(in), out, stats);
  return out;
}

/// The TCP payload bytes of a frame (follows the no-options headers).
Bytes tcp_payload(const net::EthernetFrame& f) {
  const std::uint8_t* p = f.payload.data();
  const std::size_t tot = (p[2] << 8) | p[3];
  return Bytes(p + 40, p + tot);
}

bool checksums_verify(const net::EthernetFrame& f) {
  const std::uint8_t* p = f.payload.data();
  if (ones_complement_sum(BytesView(p, 20)) != 0xffff) return false;
  const std::size_t tcp_len = ((p[2] << 8) | p[3]) - 20u;
  std::uint32_t pseudo = 0;
  for (int off : {12, 14, 16, 18}) pseudo += (p[off] << 8) | p[off + 1];
  pseudo += 6 + static_cast<std::uint32_t>(tcp_len);
  return ones_complement_sum(BytesView(p + 20, tcp_len), pseudo) == 0xffff;
}

TEST(Gro, CoalescesAbuttingRunIntoOneVerifiedFrame) {
  const Bytes a = test::pattern_bytes(500, 1);
  const Bytes b = test::pattern_bytes(300, 2);
  const Bytes c = test::pattern_bytes(200, 3);
  net::GroStats stats;
  auto out = coalesce({make_frame(1000, a), make_frame(1500, b),
                       make_frame(1800, c)},
                      stats);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(stats.coalesced, 2u);
  EXPECT_EQ(stats.frames_in, 3u);
  EXPECT_EQ(stats.frames_out, 1u);
  EXPECT_TRUE(checksums_verify(out[0].frame));
  Bytes merged = a;
  append(merged, b);
  append(merged, c);
  EXPECT_EQ(tcp_payload(out[0].frame), merged);
  // The merged header keeps the head's sequence number.
  const std::uint8_t* tcp = out[0].frame.payload.data() + 20;
  EXPECT_EQ((tcp[4] << 8 | tcp[5]), 0);
  EXPECT_EQ((tcp[6] << 8 | tcp[7]), 1000);
}

TEST(Gro, PshClosesTheRunButIsIncluded) {
  const Bytes a = test::pattern_bytes(100, 1);
  const Bytes b = test::pattern_bytes(100, 2);
  const Bytes c = test::pattern_bytes(100, 3);
  net::GroStats stats;
  auto out = coalesce({make_frame(0, a), make_frame(100, b, kAck | kPsh),
                       make_frame(200, c)},
                      stats);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(stats.coalesced, 1u);
  Bytes head = a;
  append(head, b);
  EXPECT_EQ(tcp_payload(out[0].frame), head);
  // PSH propagates to the merged header.
  EXPECT_NE(out[0].frame.payload.data()[20 + 13] & kPsh, 0);
  EXPECT_TRUE(checksums_verify(out[0].frame));
  EXPECT_EQ(tcp_payload(out[1].frame), c);
}

TEST(Gro, NonAdjacentArrivalsNeverMerge) {
  // a and b are TCP-contiguous, but a frame of another flow arrived
  // between them: the run breaks, and arrival order is kept.
  const Bytes a = test::pattern_bytes(100, 1);
  const Bytes x = test::pattern_bytes(100, 3);
  const Bytes b = test::pattern_bytes(100, 2);
  net::GroStats stats;
  auto out = coalesce({make_frame(0, a),
                       make_frame(0, x, kAck, 1000, 65535, 4001, 5000),
                       make_frame(100, b)},
                      stats);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(stats.coalesced, 0u);
  EXPECT_EQ(tcp_payload(out[0].frame), a);
  EXPECT_EQ(tcp_payload(out[1].frame), x);
  EXPECT_EQ(tcp_payload(out[2].frame), b);
}

TEST(Gro, SequenceGapBreaksRun) {
  const Bytes a = test::pattern_bytes(100, 1);
  const Bytes b = test::pattern_bytes(100, 2);
  net::GroStats stats;
  auto out = coalesce({make_frame(0, a), make_frame(150, b)}, stats);
  EXPECT_EQ(out.size(), 2u);
  EXPECT_EQ(stats.coalesced, 0u);
}

TEST(Gro, DifferentFlowsDoNotMerge) {
  const Bytes a = test::pattern_bytes(100, 1);
  const Bytes b = test::pattern_bytes(100, 2);
  net::GroStats stats;
  auto out = coalesce({make_frame(0, a, kAck, 1000, 65535, 4000, 5000),
                       make_frame(100, b, kAck, 1000, 65535, 4001, 5000)},
                      stats);
  EXPECT_EQ(out.size(), 2u);
  EXPECT_EQ(stats.coalesced, 0u);
}

TEST(Gro, CorruptFrameIsNeverFoldedIn) {
  const Bytes a = test::pattern_bytes(100, 1);
  const Bytes b = test::pattern_bytes(100, 2);
  const Bytes c = test::pattern_bytes(100, 3);
  std::vector<net::RxFrame> in = {make_frame(0, a), make_frame(100, b),
                                  make_frame(200, c)};
  // Flip a payload byte of the middle frame without fixing its checksum.
  in[1].frame.payload.mutable_data()[45] ^= 0xff;
  const Bytes corrupted_wire(in[1].frame.payload.data(),
                             in[1].frame.payload.data() + in[1].frame.payload.size());
  net::GroStats stats;
  auto out = coalesce(std::move(in), stats);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(stats.coalesced, 0u);
  EXPECT_EQ(stats.bad_checksum, 1u);
  // The corrupt frame passes through byte-identical: corruption is the
  // TCP layer's to detect and drop, never GRO's to launder.
  const Bytes through(out[1].frame.payload.data(),
                      out[1].frame.payload.data() + out[1].frame.payload.size());
  EXPECT_EQ(through, corrupted_wire);
}

TEST(Gro, PureAcksAndNonTcpPassThrough) {
  net::GroStats stats;
  net::RxFrame pure_ack = make_frame(0, {});
  net::RxFrame arp;
  arp.frame.type = net::EtherType::kArp;
  arp.frame.payload = wire::PacketBuffer::alloc(28, 0);
  auto out = coalesce([&] {
    std::vector<net::RxFrame> v;
    v.push_back(std::move(pure_ack));
    v.push_back(std::move(arp));
    return v;
  }(), stats);
  EXPECT_EQ(out.size(), 2u);
  EXPECT_EQ(stats.coalesced, 0u);
  EXPECT_EQ(stats.bad_checksum, 0u);
}

TEST(Gro, FinBearingSegmentsPassThrough) {
  const Bytes a = test::pattern_bytes(100, 1);
  const Bytes b = test::pattern_bytes(100, 2);
  net::GroStats stats;
  auto out = coalesce(
      {make_frame(0, a), make_frame(100, b, kAck | kPsh | kFin)}, stats);
  // FIN is not a mergeable flag set: the segment must survive unmodified
  // so connection teardown sequencing is untouched by batching.
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(stats.coalesced, 0u);
  EXPECT_NE(out[1].frame.payload.data()[20 + 13] & kFin, 0);
}

TEST(Gro, MaxMergedCapsRunLength) {
  std::vector<net::RxFrame> in;
  std::uint32_t seq = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    in.push_back(make_frame(seq, test::pattern_bytes(100, i)));
    seq += 100;
  }
  net::GroStats stats;
  net::GroParams params;
  params.max_merged = 4;
  auto out = coalesce(std::move(in), stats, params);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(stats.coalesced, 6u);
  EXPECT_EQ(tcp_payload(out[0].frame).size(), 400u);
  EXPECT_EQ(tcp_payload(out[1].frame).size(), 400u);
  EXPECT_TRUE(checksums_verify(out[0].frame));
  EXPECT_TRUE(checksums_verify(out[1].frame));
}

// ------------------------------------------------------------- property

apps::LanParams batching_params(std::uint64_t seed, bool batching) {
  apps::LanParams lp;
  lp.seed = seed;
  lp.tcp.max_rto = seconds(5);
  if (batching) {
    lp.nic.rx_batch_max = 8;
    lp.nic.rx_batch_window = microseconds(150);
  }
  return lp;
}

/// Runs a steady-state echo transfer and returns the received stream.
Bytes run_steady(std::uint64_t seed, bool batching, std::uint64_t* coalesced) {
  auto r = test::make_replicated_lan(batching_params(seed, batching));
  test::EchoDriver d(r->client(), r->primary().address(), kEchoPort, 120000, 8192);
  EXPECT_TRUE(run_until(r->sim(), [&] { return d.done(); }, seconds(300)));
  EXPECT_TRUE(d.verify());
  if (coalesced != nullptr)
    *coalesced = r->client().nic().gro_stats().coalesced +
                 r->primary().nic().gro_stats().coalesced;
  return d.received();
}

TEST(GroProperty, BatchedStreamIsByteIdenticalAcrossSeeds) {
  for (std::uint64_t seed : {11u, 12u, 13u}) {
    std::uint64_t coalesced = 0;
    const Bytes plain = run_steady(seed, false, nullptr);
    const Bytes batched = run_steady(seed, true, &coalesced);
    EXPECT_EQ(plain, batched) << "seed " << seed;
    // The property run must actually exercise the merge path.
    EXPECT_GT(coalesced, 0u) << "seed " << seed;
  }
}

TEST(GroProperty, FailoverRewritePathSurvivesCoalescing) {
  // Mid-transfer primary crash: the secondary's §3.1 header-rewritten
  // segments flow through the same batch+GRO path and must still verify,
  // coalesce, and complete the stream intact.
  for (std::uint64_t seed : {21u, 22u}) {
    auto r = test::make_replicated_lan(batching_params(seed, true));
    test::EchoDriver d(r->client(), r->primary().address(), kEchoPort, 90000,
                       8192);
    ASSERT_TRUE(run_until(r->sim(), [&] { return d.received().size() > 30000; },
                          seconds(300)))
        << "seed " << seed;
    r->group->crash_primary();
    ASSERT_TRUE(run_until(r->sim(), [&] { return d.done(); }, seconds(600)))
        << "seed " << seed;
    EXPECT_TRUE(d.verify()) << "seed " << seed;
  }
}

TEST(GroProperty, BatchingDeliversFewerStackInvocations) {
  // The point of the exercise: one batch, one processing charge. The
  // batched run must hand the stack strictly fewer (bigger) frames.
  auto run = [](bool batching) {
    auto r = test::make_replicated_lan(batching_params(31, batching));
    test::EchoDriver d(r->client(), r->primary().address(), kEchoPort, 120000,
                       8192);
    EXPECT_TRUE(run_until(r->sim(), [&] { return d.done(); }, seconds(300)));
    EXPECT_TRUE(d.verify());
    return r->client().nic().gro_stats();
  };
  const net::GroStats plain = run(false);
  const net::GroStats batched = run(true);
  EXPECT_EQ(plain.frames_in, 0u);  // legacy path never touches GRO
  EXPECT_GT(batched.frames_in, 0u);
  EXPECT_LT(batched.frames_out, batched.frames_in);
}

}  // namespace
}  // namespace tfo
