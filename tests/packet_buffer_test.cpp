// Tests for the zero-copy wire buffer pipeline:
//   * PacketBuffer ownership semantics — sharing, copy-on-write, offset
//     trims, in-place header prepends, Ethernet-padding appends, and the
//     pool that recycles a buffer's header with its block (counted with
//     the benchmark's allocator, linked into this test);
//   * the serializers (TcpSegment::take_wire, IpDatagram::to_wire): their
//     bytes are pinned to digests recorded from the former copying
//     serializers, and they parse back to the values written;
//   * the §3.1 property: an in-place incremental checksum patch after an
//     address rewrite agrees with a full pseudo-header recompute, across
//     randomized segments and the one's-complement zero edge cases;
//   * Ethernet minimum-frame regression: a runt TCP segment is padded on
//     the wire and the padding is trimmed away by the IP total_length on
//     parse, leaving the TCP checksum valid.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "counting_alloc.hpp"
#include "ip/datagram.hpp"
#include "net/frame.hpp"
#include "net/medium.hpp"
#include "net/nic.hpp"
#include "sim/simulator.hpp"
#include "tcp/segment.hpp"
#include "test_util.hpp"
#include "wire/packet_buffer.hpp"

namespace tfo::wire {
namespace {

Bytes seq_bytes(std::size_t n, std::uint8_t start = 0) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = static_cast<std::uint8_t>(start + i);
  return b;
}

TEST(PacketBuffer, AllocZeroFilledWithReserves) {
  PacketBuffer b = PacketBuffer::alloc(10);
  EXPECT_EQ(b.size(), 10u);
  EXPECT_EQ(b.headroom(), PacketBuffer::kDefaultHeadroom);
  EXPECT_GE(b.tailroom(), PacketBuffer::kDefaultTailroom);
  for (std::size_t i = 0; i < b.size(); ++i) EXPECT_EQ(b[i], 0u) << i;
}

TEST(PacketBuffer, AdoptionKeepsBytesNoHeadroom) {
  const Bytes src = seq_bytes(5);
  PacketBuffer b{Bytes(src)};
  EXPECT_EQ(b.headroom(), 0u);
  EXPECT_EQ(to_bytes(b), src);
}

TEST(PacketBuffer, CopySharesStorage) {
  PacketBuffer a = PacketBuffer::copy_of(seq_bytes(64));
  const std::uint64_t shares_before = buffer_stats().shares;
  PacketBuffer b = a;
  EXPECT_EQ(a.data(), b.data());  // same bytes, not a copy
  EXPECT_FALSE(a.unique());
  EXPECT_FALSE(b.unique());
  EXPECT_EQ(buffer_stats().shares, shares_before + 1);
}

TEST(PacketBuffer, MutationCopiesOnWrite) {
  PacketBuffer a = PacketBuffer::copy_of(seq_bytes(16));
  PacketBuffer b = a;
  b[3] = 0xff;  // non-const access unshares first
  EXPECT_NE(a.data(), b.data());
  EXPECT_EQ(a[3], 3u);  // original untouched
  EXPECT_EQ(b[3], 0xffu);
  EXPECT_TRUE(a.unique());
  EXPECT_TRUE(b.unique());
}

TEST(PacketBuffer, TrimsAreOffsetOnlyAndSafeWhenShared) {
  PacketBuffer a = PacketBuffer::copy_of(seq_bytes(20));
  PacketBuffer b = a;
  b.trim_front(5);
  b.trim_to(10);
  EXPECT_EQ(b.size(), 10u);
  EXPECT_EQ(b.data(), a.data() + 5);  // still the same storage
  EXPECT_EQ(b[0], 5u);
  EXPECT_EQ(to_bytes(a), seq_bytes(20));  // untouched
}

TEST(PacketBuffer, PrependUsesHeadroomInPlace) {
  PacketBuffer b = PacketBuffer::copy_of(seq_bytes(8));
  const std::uint8_t* payload_at = b.data();
  const std::uint64_t allocs_before = buffer_stats().allocations;
  std::uint8_t* h = b.prepend(20);
  EXPECT_EQ(buffer_stats().allocations, allocs_before);  // no new storage
  EXPECT_EQ(h, payload_at - 20);
  EXPECT_EQ(b.size(), 28u);
  EXPECT_EQ(b.data() + 20, payload_at);  // payload bytes never moved
  EXPECT_EQ(b[20], 0u);
  EXPECT_EQ(b[27], 7u);
}

TEST(PacketBuffer, PrependOnSharedStorageLeavesSiblingIntact) {
  PacketBuffer a = PacketBuffer::copy_of(seq_bytes(8));
  PacketBuffer b = a;  // shares storage — and conceptually "owns" the bytes
  std::uint8_t* h = b.prepend(4);
  for (int i = 0; i < 4; ++i) h[i] = 0xee;
  EXPECT_EQ(to_bytes(a), seq_bytes(8));  // sibling sees no header bytes
  EXPECT_EQ(b.size(), 12u);
  EXPECT_EQ(b[4], 0u);
}

TEST(PacketBuffer, AppendZeroFillsInTailroom) {
  PacketBuffer b = PacketBuffer::copy_of(seq_bytes(10));
  const std::uint8_t* at = b.data();
  const std::uint64_t allocs_before = buffer_stats().allocations;
  std::uint8_t* t = b.append(36);  // within kDefaultTailroom
  EXPECT_EQ(buffer_stats().allocations, allocs_before);
  EXPECT_EQ(b.data(), at);
  EXPECT_EQ(b.size(), 46u);
  for (int i = 0; i < 36; ++i) EXPECT_EQ(t[i], 0u) << i;
}

TEST(PacketBuffer, UnshareDetaches) {
  PacketBuffer a = PacketBuffer::copy_of(seq_bytes(12));
  PacketBuffer b = a;
  b.unshare();
  EXPECT_TRUE(a.unique());
  EXPECT_TRUE(b.unique());
  EXPECT_NE(a.data(), b.data());
  EXPECT_EQ(a, b);  // contents equal
}

/// Block bytes one allocation of `len` payload bytes reserves.
std::uint64_t block_bytes_for(std::size_t len) {
  const BufferStats before = buffer_stats();
  PacketBuffer b = PacketBuffer::alloc(len);
  EXPECT_EQ(buffer_stats().allocations, before.allocations + 1);
  return buffer_stats().allocated_bytes - before.allocated_bytes;
}

// A header-only buffer (a pure ACK: 96 B headroom + 46 B tailroom) takes a
// small block, a full-MSS segment an MTU block, a multi-segment payload a
// jumbo one;
// net.alloc.bytes counts the block, not the request.
TEST(PacketBuffer, AllocationTakesItsSizeClass) {
  EXPECT_EQ(block_bytes_for(0), kSmallBlockBytes);
  EXPECT_EQ(block_bytes_for(kSmallBlockBytes - PacketBuffer::kDefaultHeadroom -
                            PacketBuffer::kDefaultTailroom),
            kSmallBlockBytes);
  EXPECT_EQ(block_bytes_for(1460), 2048u);
  EXPECT_EQ(block_bytes_for(20 * 1460), 64u * 1024);
}

// A small buffer grown past its block by a prepend or an append moves to
// a larger block with its bytes intact, and sharing still copies on write.
TEST(PacketBuffer, SmallBufferGrowsPastItsBlock) {
  PacketBuffer a = PacketBuffer::copy_of(seq_bytes(40));
  ASSERT_TRUE(a.unique());
  const std::size_t hdr = PacketBuffer::kDefaultHeadroom + 200;  // past the block
  std::memset(a.prepend(hdr), 0xaa, hdr);
  ASSERT_EQ(a.size(), hdr + 40);
  EXPECT_GT(a.headroom() + a.size() + a.tailroom(), kSmallBlockBytes);
  EXPECT_EQ(a[0], 0xaau);
  EXPECT_EQ(a[hdr], 0u);
  EXPECT_EQ(a[hdr + 39], 39u);

  PacketBuffer b = PacketBuffer::copy_of(seq_bytes(40));
  std::uint8_t* t = b.append(300);  // past the tailroom and the block
  ASSERT_EQ(b.size(), 340u);
  EXPECT_GT(b.headroom() + b.size() + b.tailroom(), kSmallBlockBytes);
  for (int i = 0; i < 300; ++i) ASSERT_EQ(t[i], 0u) << i;
  EXPECT_EQ(b[39], 39u);

  PacketBuffer sibling = b;
  sibling[0] = 0xff;  // copy-on-write
  EXPECT_EQ(b[0], 0u);
  EXPECT_EQ(sibling[0], 0xffu);
  EXPECT_EQ(to_bytes(sibling).size(), 340u);
  EXPECT_TRUE(b.unique());
}

// Freeing more small buffers than the pool retains leaves the pool at its
// bound: a burst of short packets does not become resident heap.
TEST(PacketBuffer, SmallPoolKeepsAtMostItsBound) {
  std::vector<PacketBuffer> burst;
  for (std::size_t i = 0; i < kSmallPoolMaxBlocks + 500; ++i) {
    burst.push_back(PacketBuffer::alloc(16));
  }
  burst.clear();
  EXPECT_EQ(pooled_small_blocks(), kSmallPoolMaxBlocks);
  // Reuse drains the pool without a fresh block.
  PacketBuffer again = PacketBuffer::alloc(16);
  EXPECT_EQ(pooled_small_blocks(), kSmallPoolMaxBlocks - 1);
}

// A released buffer's storage goes back to its pool whole — the header
// that holds the reference count and the block together — so a warm pool
// serves the next buffer of that class, and shares of it, with no heap
// allocation at all.
TEST(PacketBuffer, HeaderIsRecycledWithItsBlock) {
  for (const std::size_t len : {std::size_t{16}, std::size_t{1460}}) {
    PacketBuffer first = PacketBuffer::alloc(len);
    const std::uint8_t* block = first.data();
    first.clear();
    const std::uint64_t allocs = bench::heap_stats().allocs;
    PacketBuffer again = PacketBuffer::alloc(len);
    PacketBuffer share = again;
    PacketBuffer moved = std::move(share);
    EXPECT_EQ(bench::heap_stats().allocs, allocs) << len << "-byte buffer";
    EXPECT_EQ(again.data(), block) << len << "-byte buffer";
    EXPECT_EQ(moved.data(), block);
  }
}

// A pool miss is one heap allocation: the header holding the reference
// count sits in front of the bytes, in the same block.
TEST(PacketBuffer, FreshBlockIsOneAllocation) {
  for (const std::size_t len : {std::size_t{16}, std::size_t{1460}, std::size_t{20000}}) {
    // Hold every block the class's pool can serve, then one more: a miss.
    std::vector<PacketBuffer> held;
    held.reserve(kSmallPoolMaxBlocks + 1);  // no class pools more blocks
    std::uint64_t grew = 0;
    while (grew == 0 && held.size() < held.capacity()) {
      const std::uint64_t allocs = bench::heap_stats().allocs;
      held.push_back(PacketBuffer::alloc(len));
      grew = bench::heap_stats().allocs - allocs;
    }
    EXPECT_EQ(grew, 1u) << len << "-byte buffer";
  }
}

// The handle counts its shares itself: unique() turns true again once the
// other handles are gone, whether they were released, moved from or
// reassigned, and a write through a share still copies first.
TEST(PacketBuffer, UniqueTracksEveryHandle) {
  PacketBuffer a = PacketBuffer::copy_of(seq_bytes(32));
  {
    PacketBuffer b = a;
    PacketBuffer c;
    c = b;
    EXPECT_FALSE(a.unique());
    PacketBuffer d = std::move(c);
    EXPECT_FALSE(a.unique());
    b = PacketBuffer::copy_of(seq_bytes(8));  // drops b's share of a
    EXPECT_TRUE(b.unique());
    d[0] = 0xee;  // d and a shared: d copies on write and lets go of a
    EXPECT_NE(d.data(), a.data());
    EXPECT_EQ(a[0], 0u);
    EXPECT_TRUE(a.unique());
    d = a;
    d = d;  // self-assignment keeps the share
    EXPECT_FALSE(a.unique());
  }
  EXPECT_TRUE(a.unique());
  const std::uint8_t* before = a.data();
  a[1] = 0xdd;  // unique again: writes in place
  EXPECT_EQ(a.data(), before);
}

}  // namespace
}  // namespace tfo::wire

namespace tfo::tcp {
namespace {

const ip::Ipv4 kSrc = ip::Ipv4::parse("10.0.0.10");
const ip::Ipv4 kDst = ip::Ipv4::parse("10.0.0.1");

TcpSegment random_segment(Rng& rng) {
  TcpSegment s;
  s.src_port = static_cast<std::uint16_t>(rng.next_u32());
  s.dst_port = static_cast<std::uint16_t>(rng.next_u32());
  s.seq = rng.next_u32();
  s.ack = rng.next_u32();
  s.flags = Flags::kAck | (rng.bernoulli(0.3) ? Flags::kPsh : 0);
  s.window = static_cast<std::uint16_t>(rng.next_u32());
  if (rng.bernoulli(0.3)) s.mss = static_cast<std::uint16_t>(rng.next_u32());
  if (rng.bernoulli(0.3)) s.orig_dst = ip::Ipv4{rng.next_u32()};
  Bytes payload(rng.uniform(0, 200));
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng.next_u32());
  s.payload = payload;
  return s;
}

// The recorded digests below were taken from the copying serializers
// (TcpSegment::serialize / IpDatagram::serialize) at commit e33e7f4, the
// byte-identical reference these in-place writers replaced. They move only
// with an intended change to the wire format; re-record them only then.

// take_wire() (in-place header prepend into the payload's headroom)
// produces the recorded bytes, and parsing them then writing the result
// gives the same bytes again.
TEST(WireIdentity, TcpTakeWireMatchesSerialize) {
  constexpr std::uint64_t kRecordedDigest = 0x52743803c8e5b905ull;
  Rng rng(11);
  test::Fnv1a digest;
  for (int trial = 0; trial < 200; ++trial) {
    TcpSegment s = random_segment(rng);
    wire::PacketBuffer w = s.take_wire(kSrc, kDst);
    EXPECT_TRUE(s.payload.empty());  // consumed
    digest.bytes(w.view());
    const auto back = TcpSegment::parse(w, kSrc, kDst);
    ASSERT_TRUE(back.has_value()) << trial;
    EXPECT_EQ(test::wire_of(*back, kSrc, kDst), to_bytes(w)) << trial;
  }
  EXPECT_EQ(digest.h, kRecordedDigest);
}

TEST(WireIdentity, IpToWireMatchesSerialize) {
  constexpr std::uint64_t kRecordedDigest = 0x2bd07f6698262099ull;
  Rng rng(12);
  test::Fnv1a digest;
  for (int trial = 0; trial < 200; ++trial) {
    ip::IpDatagram d;
    d.src = ip::Ipv4{rng.next_u32()};
    d.dst = ip::Ipv4{rng.next_u32()};
    d.proto = rng.bernoulli(0.5) ? ip::Proto::kTcp : ip::Proto::kHeartbeat;
    d.ttl = static_cast<std::uint8_t>(rng.uniform(1, 255));
    d.id = static_cast<std::uint16_t>(rng.next_u32());
    Bytes payload(rng.uniform(0, 300));
    for (auto& b : payload) b = static_cast<std::uint8_t>(rng.next_u32());
    d.payload = payload;
    wire::PacketBuffer w = d.to_wire();
    digest.bytes(w.view());
    const auto back = ip::IpDatagram::parse(w);
    ASSERT_TRUE(back.has_value()) << trial;
    EXPECT_EQ(test::wire_of(*back), to_bytes(w)) << trial;
  }
  EXPECT_EQ(digest.h, kRecordedDigest);
}

// The composite tx path — TCP header then IP header prepended into the
// same payload allocation — produces the recorded bytes and performs no
// additional storage allocation once the payload exists.
TEST(WireIdentity, CompositeTcpInIpSingleAllocation) {
  constexpr std::uint64_t kRecordedDigest = 0xc70c0254a6d9b703ull;
  Rng rng(13);
  TcpSegment s = random_segment(rng);
  // As the tx path builds a payload: fresh storage with default headroom.
  s.payload = wire::PacketBuffer::copy_of(s.payload.view());

  const std::uint64_t allocs_before = wire::buffer_stats().allocations;
  ip::IpDatagram d;
  d.src = kSrc;
  d.dst = kDst;
  d.id = 7;
  d.payload = s.take_wire(kSrc, kDst);
  wire::PacketBuffer w = d.to_wire();
  EXPECT_EQ(wire::buffer_stats().allocations, allocs_before);

  test::Fnv1a digest;
  digest.bytes(w.view());
  EXPECT_EQ(digest.h, kRecordedDigest);
}

// §3.1 property: patching the checksum in place on the shared wire buffer
// after a destination rewrite yields a segment that (a) verifies against
// the new pseudo-header, (b) carries the same checksum a from-scratch
// serialization would (modulo the documented 0x0000/0xFFFF equivalence),
// and (c) never corrupts another holder of the same storage.
TEST(ChecksumProperty, InPlacePatchEqualsRecompute) {
  Rng rng(17);
  for (int trial = 0; trial < 300; ++trial) {
    TcpSegment s = random_segment(rng);
    TcpSegment fresh_copy = s;
    const ip::Ipv4 new_dst{rng.next_u32()};

    wire::PacketBuffer wire = s.take_wire(kSrc, kDst);
    wire::PacketBuffer pending = wire;  // a second holder, e.g. an rx delivery
    const Bytes pending_before = to_bytes(pending);

    patch_checksum_for_address_change(wire, kDst, new_dst);

    // (a) verifies under the new pseudo-header.
    EXPECT_TRUE(TcpSegment::parse(wire, kSrc, new_dst).has_value()) << trial;
    // (b) agrees with a full recompute, except incremental never emits
    // 0x0000 (it says 0xFFFF instead; both verify).
    const Bytes fresh = test::wire_of(fresh_copy, kSrc, new_dst);
    const std::uint16_t got = get_u16(wire, TcpSegment::kChecksumOffset);
    const std::uint16_t want = get_u16(fresh, TcpSegment::kChecksumOffset);
    EXPECT_TRUE(got == want || (got == 0xffff && want == 0x0000))
        << trial << " got=" << got << " want=" << want;
    // (c) copy-on-write protected the sharing holder.
    EXPECT_EQ(to_bytes(pending), pending_before) << trial;
  }
}

// Engineers the one's-complement zero edge cases explicitly: a segment
// whose full checksum is 0x0000, patched away from and back toward the
// address where that happens.
TEST(ChecksumProperty, ZeroChecksumEdgeCases) {
  TcpSegment s;
  s.src_port = 1000;
  s.dst_port = 2000;
  s.seq = 42;
  s.ack = 43;
  s.flags = Flags::kAck;
  s.window = 100;

  // Choose the last two payload bytes so the wire for (kSrc, kDst) has
  // checksum 0x0000: with the field zeroed the checksum is ~S, and
  // setting the field to 0xffff - S makes the folded sum 0xffff.
  Bytes payload(32, 0);
  s.payload = payload;
  const Bytes probe = test::wire_of(s, kSrc, kDst);
  const std::uint16_t ck = get_u16(probe, TcpSegment::kChecksumOffset);
  const std::uint16_t fill = static_cast<std::uint16_t>(
      0xffff - static_cast<std::uint16_t>(~ck & 0xffff));
  payload[30] = static_cast<std::uint8_t>(fill >> 8);
  payload[31] = static_cast<std::uint8_t>(fill & 0xff);
  s.payload = payload;
  ASSERT_EQ(get_u16(test::wire_of(s, kSrc, kDst), TcpSegment::kChecksumOffset),
            0x0000);

  const ip::Ipv4 other = ip::Ipv4::parse("172.16.5.5");

  // Away from the zero point: old checksum is 0x0000; the patched segment
  // must verify under the new destination.
  {
    TcpSegment away = s;
    wire::PacketBuffer w = away.take_wire(kSrc, kDst);
    patch_checksum_for_address_change(w, kDst, other);
    EXPECT_TRUE(TcpSegment::parse(w, kSrc, other).has_value());
  }

  // Toward the zero point: a full recompute would say 0x0000; the
  // incremental patch is normalized to 0xFFFF and must still verify.
  {
    TcpSegment toward = s;
    wire::PacketBuffer w = toward.take_wire(kSrc, other);
    patch_checksum_for_address_change(w, other, kDst);
    EXPECT_NE(get_u16(w, TcpSegment::kChecksumOffset), 0x0000);
    EXPECT_EQ(get_u16(w, TcpSegment::kChecksumOffset), 0xffff);
    EXPECT_TRUE(TcpSegment::parse(w, kSrc, kDst).has_value());
  }
}

// Ethernet minimum-frame regression: a runt TCP-in-IP frame is physically
// padded to 46 payload bytes by the sending NIC, and the receiver's IP
// parse trims the padding via total_length, leaving the TCP checksum
// valid over exactly the original segment.
TEST(EthernetPadding, RuntFrameRoundTripsThroughPadding) {
  sim::Simulator sim;
  net::SharedMediumParams mp;
  net::SharedMedium medium(sim, mp);
  net::NicParams np;
  net::Nic a(sim, "a", net::MacAddress::from_id(1), np);
  net::Nic b(sim, "b", net::MacAddress::from_id(2), np);

  wire::PacketBuffer delivered;
  std::size_t wire_payload_len = 0;
  b.set_rx_handler([&](const net::EthernetFrame& f, bool) {
    wire_payload_len = f.payload.size();
    delivered = f.payload;
  });
  a.attach(medium);
  b.attach(medium);

  TcpSegment s;
  s.src_port = 5;
  s.dst_port = 6;
  s.flags = Flags::kAck;
  s.payload = to_bytes("hi");  // 2 bytes: 20 TCP + 20 IP + 2 = 42 < 46

  ip::IpDatagram d;
  d.src = kSrc;
  d.dst = kDst;
  d.payload = s.take_wire(kSrc, kDst);
  const std::size_t true_len = d.total_length();
  ASSERT_LT(true_len, net::EthernetFrame::kMinPayload);

  net::EthernetFrame f;
  f.dst = b.mac();
  f.type = net::EtherType::kIpv4;
  f.payload = d.to_wire();
  a.send(std::move(f));
  sim.run();

  // Physically padded on the wire...
  ASSERT_EQ(wire_payload_len, net::EthernetFrame::kMinPayload);
  // ...trimmed back by IP total_length on parse...
  auto dgram = ip::IpDatagram::parse(delivered);
  ASSERT_TRUE(dgram.has_value());
  EXPECT_EQ(ip::IpDatagram::kHeaderBytes + dgram->payload.size(), true_len);
  // ...and the TCP checksum verifies over exactly the unpadded segment.
  auto seg = TcpSegment::parse(dgram->payload, dgram->src, dgram->dst);
  ASSERT_TRUE(seg.has_value());
  EXPECT_EQ(to_bytes(seg->payload), to_bytes("hi"));
}

}  // namespace
}  // namespace tfo::tcp
