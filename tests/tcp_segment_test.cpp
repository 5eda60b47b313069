// Unit tests for the TCP segment wire format: round trips, options,
// pseudo-header checksums, and the bridge's incremental checksum patch
// after an address rewrite (paper §3.1).
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "tcp/segment.hpp"
#include "test_util.hpp"

namespace tfo::tcp {
namespace {

const ip::Ipv4 kSrc = ip::Ipv4::parse("10.0.0.10");
const ip::Ipv4 kDst = ip::Ipv4::parse("10.0.0.1");

using test::wire_of;

/// The segment's wire bytes in a packet buffer, the form the stack parses.
wire::PacketBuffer buffer_of(BytesView bytes) {
  return wire::PacketBuffer::copy_of(bytes);
}

TcpSegment sample() {
  TcpSegment s;
  s.src_port = 4242;
  s.dst_port = 80;
  s.seq = 0xdeadbeef;
  s.ack = 0x01020304;
  s.flags = Flags::kAck | Flags::kPsh;
  s.window = 8192;
  s.payload = to_bytes("GET / HTTP/1.0\r\n\r\n");
  return s;
}

TEST(TcpSegment, RoundTripPlain) {
  const TcpSegment s = sample();
  const Bytes wire = wire_of(s, kSrc, kDst);
  auto back = TcpSegment::parse(buffer_of(wire), kSrc, kDst);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->src_port, s.src_port);
  EXPECT_EQ(back->dst_port, s.dst_port);
  EXPECT_EQ(back->seq, s.seq);
  EXPECT_EQ(back->ack, s.ack);
  EXPECT_EQ(back->flags, s.flags);
  EXPECT_EQ(back->window, s.window);
  EXPECT_EQ(back->payload, s.payload);
  EXPECT_FALSE(back->mss.has_value());
  EXPECT_FALSE(back->orig_dst.has_value());
}

TEST(TcpSegment, RoundTripWithMssOption) {
  TcpSegment s = sample();
  s.flags = Flags::kSyn;
  s.mss = 1460;
  s.payload.clear();
  auto back = TcpSegment::parse(buffer_of(wire_of(s, kSrc, kDst)), kSrc, kDst);
  ASSERT_TRUE(back.has_value());
  ASSERT_TRUE(back->mss.has_value());
  EXPECT_EQ(*back->mss, 1460);
  EXPECT_TRUE(back->syn());
}

TEST(TcpSegment, RoundTripWithOrigDstOption) {
  TcpSegment s = sample();
  s.orig_dst = ip::Ipv4::parse("192.168.1.10");
  auto back = TcpSegment::parse(buffer_of(wire_of(s, kSrc, kDst)), kSrc, kDst);
  ASSERT_TRUE(back.has_value());
  ASSERT_TRUE(back->orig_dst.has_value());
  EXPECT_EQ(back->orig_dst->str(), "192.168.1.10");
}

TEST(TcpSegment, BothOptionsTogether) {
  TcpSegment s = sample();
  s.mss = 536;
  s.orig_dst = ip::Ipv4::parse("1.2.3.4");
  auto back = TcpSegment::parse(buffer_of(wire_of(s, kSrc, kDst)), kSrc, kDst);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back->mss, 536);
  EXPECT_EQ(back->orig_dst->v, ip::Ipv4::parse("1.2.3.4").v);
  EXPECT_EQ(back->payload, s.payload);
}

// Golden bytes, written out by hand from RFC 793 (checksum computed
// independently): all three options and an odd-length payload, so the
// option padding and the checksum's trailing-byte pad are both covered.
TEST(TcpSegment, GoldenBytesWithAllOptions) {
  TcpSegment s = sample();
  s.mss = 1460;
  s.orig_dst = ip::Ipv4::parse("192.168.1.10");
  s.migrate_from = ip::Ipv4::parse("10.0.0.99");
  s.payload = to_bytes("abc");
  const Bytes want = {
      0x10, 0x92, 0x00, 0x50,  // ports 4242 -> 80
      0xde, 0xad, 0xbe, 0xef,  // seq
      0x01, 0x02, 0x03, 0x04,  // ack
      0x90, 0x18, 0x20, 0x00,  // data offset 9 words, ACK|PSH, window 8192
      0xf7, 0xea, 0x00, 0x00,  // checksum, urgent pointer
      0x02, 0x04, 0x05, 0xb4,  // MSS 1460
      0xfd, 0x06, 0xc0, 0xa8, 0x01, 0x0a,  // orig-dst 192.168.1.10
      0xfc, 0x06, 0x0a, 0x00, 0x00, 0x63,  // migrate-from 10.0.0.99
      0x61, 0x62, 0x63,                    // "abc"
  };
  EXPECT_EQ(wire_of(s, kSrc, kDst), want);
  const auto back = TcpSegment::parse(buffer_of(want), kSrc, kDst);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->mss, s.mss);
  EXPECT_EQ(back->orig_dst, s.orig_dst);
  EXPECT_EQ(back->migrate_from, s.migrate_from);
  EXPECT_EQ(back->payload, s.payload);
}

TEST(TcpSegment, ChecksumCoversPseudoHeader) {
  const TcpSegment s = sample();
  const Bytes wire = wire_of(s, kSrc, kDst);
  // Same bytes, different claimed endpoints: checksum must fail.
  EXPECT_FALSE(
      TcpSegment::parse(buffer_of(wire), kSrc, ip::Ipv4::parse("10.0.0.2")).has_value());
  EXPECT_FALSE(
      TcpSegment::parse(buffer_of(wire), ip::Ipv4::parse("9.9.9.9"), kDst).has_value());
}

TEST(TcpSegment, PayloadCorruptionDetected) {
  const TcpSegment s = sample();
  Bytes wire = wire_of(s, kSrc, kDst);
  wire[wire.size() - 1] ^= 0xff;
  EXPECT_FALSE(TcpSegment::parse(buffer_of(wire), kSrc, kDst).has_value());
}

TEST(TcpSegment, TruncatedRejected) {
  Bytes tiny(10, 0);
  EXPECT_FALSE(TcpSegment::parse(buffer_of(tiny), kSrc, kDst).has_value());
}

TEST(TcpSegment, SegLenCountsSynAndFin) {
  TcpSegment s;
  s.flags = Flags::kSyn;
  EXPECT_EQ(s.seg_len(), 1u);
  s.flags = Flags::kSyn | Flags::kFin;
  s.payload = Bytes(10, 0);
  EXPECT_EQ(s.seg_len(), 12u);
}

// The §3.1 mechanism: rewrite an address in the pseudo-header and patch
// the checksum incrementally instead of recomputing it.
TEST(TcpSegment, IncrementalPatchAfterDstRewrite) {
  Rng rng(3);
  for (int trial = 0; trial < 100; ++trial) {
    TcpSegment s = sample();
    s.seq = rng.next_u32();
    Bytes random(rng.uniform(0, 300));
    for (auto& b : random) b = static_cast<std::uint8_t>(rng.next_u32());
    s.payload = random;

    const ip::Ipv4 new_dst{rng.next_u32()};
    wire::PacketBuffer wire = buffer_of(wire_of(s, kSrc, kDst));
    patch_checksum_for_address_change(wire, kDst, new_dst);
    // Must now verify against the *new* pseudo-header...
    EXPECT_TRUE(TcpSegment::parse(wire, kSrc, new_dst).has_value()) << trial;
    // ...and equal a from-scratch serialization's checksum.
    const Bytes fresh = wire_of(s, kSrc, new_dst);
    EXPECT_EQ(get_u16(wire.view(), TcpSegment::kChecksumOffset),
              get_u16(fresh, TcpSegment::kChecksumOffset))
        << trial;
  }
}

TEST(TcpSegment, IncrementalPatchAfterSrcRewrite) {
  TcpSegment s = sample();
  const ip::Ipv4 new_src = ip::Ipv4::parse("10.0.0.2");
  wire::PacketBuffer wire = buffer_of(wire_of(s, kSrc, kDst));
  patch_checksum_for_address_change(wire, kSrc, new_src);
  EXPECT_TRUE(TcpSegment::parse(wire, new_src, kDst).has_value());
}

TEST(TcpSegment, SummaryMentionsFlags) {
  TcpSegment s = sample();
  s.flags |= Flags::kSyn;
  const std::string txt = s.summary();
  EXPECT_NE(txt.find("SYN"), std::string::npos);
  EXPECT_NE(txt.find("ack="), std::string::npos);
}

}  // namespace
}  // namespace tfo::tcp
