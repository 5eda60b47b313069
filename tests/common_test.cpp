// Unit tests for src/common: sequence arithmetic, checksums (including the
// paper's incremental update), stats, and byte helpers.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "common/byte_ring.hpp"
#include "common/bytes.hpp"
#include "common/chunked_vector.hpp"
#include "common/checksum.hpp"
#include "common/flat_map.hpp"
#include "common/rng.hpp"
#include "common/seq32.hpp"
#include "common/stats.hpp"

namespace tfo {
namespace {

// ---------------------------------------------------------------- seq32

TEST(Seq32, BasicOrdering) {
  EXPECT_TRUE(seq_lt(1, 2));
  EXPECT_TRUE(seq_le(2, 2));
  EXPECT_TRUE(seq_gt(3, 2));
  EXPECT_FALSE(seq_lt(2, 2));
}

TEST(Seq32, WrapAroundOrdering) {
  // 0xfffffff0 is "before" 0x10 on the circle.
  EXPECT_TRUE(seq_lt(0xfffffff0u, 0x10u));
  EXPECT_TRUE(seq_gt(0x10u, 0xfffffff0u));
  EXPECT_EQ(seq_diff(0x10u, 0xfffffff0u), 0x20);
}

TEST(Seq32, AddWraps) {
  EXPECT_EQ(seq_add(0xffffffffu, 1), 0u);
  EXPECT_EQ(seq_add(0xfffffff0u, 0x20), 0x10u);
  EXPECT_EQ(seq_add(5u, -10), 0xfffffffbu);
}

TEST(Seq32, MinMax) {
  EXPECT_EQ(seq_max(0xfffffff0u, 0x10u), 0x10u);
  EXPECT_EQ(seq_min(0xfffffff0u, 0x10u), 0xfffffff0u);
}

TEST(SeqUnwrapper, MonotoneAcrossWrap) {
  SeqUnwrapper u(0xffffff00u);
  EXPECT_EQ(u.unwrap_advance(0xffffff00u), 0u);
  EXPECT_EQ(u.unwrap_advance(0xffffffffu), 0xffu);
  EXPECT_EQ(u.unwrap_advance(0x00000010u), 0x110u);
  // Older value still maps below.
  EXPECT_EQ(u.unwrap(0xfffffff0u), 0xf0u);
  EXPECT_EQ(u.wrap(0x110u), 0x00000010u);
}

TEST(SeqUnwrapper, LongStream) {
  SeqUnwrapper u(0);
  std::uint64_t off = 0;
  Seq32 s = 0;
  for (int i = 0; i < 1000; ++i) {
    off += 0x10000000ull;  // quarter of the space per step, wraps many times
    s = seq_add(s, 0x10000000);
    EXPECT_EQ(u.unwrap_advance(s), off);
  }
}

// ------------------------------------------------------------- checksum

TEST(Checksum, KnownVector) {
  // RFC 1071 example: 00 01 f2 03 f4 f5 f6 f7 -> sum 0xddf2, ck ~0x220d.
  Bytes data = {0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
  EXPECT_EQ(ones_complement_sum(data), 0xddf2);
  EXPECT_EQ(inet_checksum(data), static_cast<std::uint16_t>(~0xddf2 & 0xffff));
}

TEST(Checksum, OddLength) {
  Bytes data = {0x01, 0x02, 0x03};
  // Padded: 0x0102 + 0x0300 = 0x0402.
  EXPECT_EQ(ones_complement_sum(data), 0x0402);
}

TEST(Checksum, VerifyRoundTrip) {
  Rng rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    // Even lengths only: a checksum field must sit on a 16-bit boundary,
    // as it does in every real header.
    Bytes data(2 * rng.uniform(1, 100));
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_u32());
    // Append the checksum; total must verify to zero.
    const std::uint16_t ck = inet_checksum(data);
    Bytes with_ck = data;
    put_u16(with_ck, ck);
    EXPECT_EQ(inet_checksum(with_ck), 0) << "trial " << trial;
  }
}

TEST(Checksum, IncrementalUpdate16MatchesRecompute) {
  Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    Bytes data(64);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_u32());
    const std::uint16_t old_ck = inet_checksum(data);
    const std::size_t word = 2 * rng.uniform(0, 31);
    const std::uint16_t old_w = get_u16(data, word);
    const std::uint16_t new_w = static_cast<std::uint16_t>(rng.next_u32());
    set_u16(data, word, new_w);
    EXPECT_EQ(checksum_update16(old_ck, old_w, new_w), inet_checksum(data))
        << "trial " << trial;
  }
}

TEST(Checksum, IncrementalUpdate32MatchesRecompute) {
  Rng rng(8);
  for (int trial = 0; trial < 200; ++trial) {
    Bytes data(64);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_u32());
    const std::uint16_t old_ck = inet_checksum(data);
    const std::size_t off = 4 * rng.uniform(0, 15);
    const std::uint32_t old_v = get_u32(data, off);
    const std::uint32_t new_v = rng.next_u32();
    set_u32(data, off, new_v);
    EXPECT_EQ(checksum_update32(old_ck, old_v, new_v), inet_checksum(data))
        << "trial " << trial;
  }
}

TEST(Checksum, IncrementalUpdateNeverEmitsNegativeZero) {
  // One's-complement zero has two encodings, and RFC 1624 eqn. 3 cannot
  // always pick the one a full recompute would: the all-zero header has
  // full checksum 0xFFFF, but rewriting a zero word to zero pushes the
  // raw formula to 0x0000 — which a receiver summing the wire bytes
  // would reject. checksum_update16 must normalize that away.
  Bytes data(20, 0);
  const std::uint16_t full = inet_checksum(data);
  EXPECT_EQ(full, 0xffff);
  EXPECT_EQ(checksum_update16(full, 0, 0), 0xffff);
  EXPECT_EQ(checksum_update32(full, 0, 0), 0xffff);
}

TEST(Checksum, IncrementalRewritesVerifyLikeFullRecompute) {
  // Property, over chains of random 16/32-bit header rewrites (zero words
  // biased in, to sit on the ±0 boundary): the incrementally maintained
  // checksum (a) is never the forbidden 0x0000 encoding, (b) agrees with
  // the full recompute except in the provably ambiguous case where the
  // full sum is -0, and (c) — the property receivers actually depend on —
  // the header always verifies with the incremental value in place.
  Rng rng(4242);
  for (int trial = 0; trial < 2000; ++trial) {
    Bytes data(40);
    const bool sparse = rng.uniform(0, 3) == 0;  // mostly-zero headers
    for (auto& b : data) {
      b = sparse ? 0 : static_cast<std::uint8_t>(rng.next_u32());
    }
    std::uint16_t inc = inet_checksum(data);
    const int rewrites = static_cast<int>(rng.uniform(1, 4));
    for (int i = 0; i < rewrites; ++i) {
      const bool zero_biased = rng.uniform(0, 2) == 0;
      if (rng.uniform(0, 1) == 0) {
        const std::size_t off = 2 * rng.uniform(0, 19);
        const std::uint16_t old_w = get_u16(data, off);
        const std::uint16_t new_w =
            zero_biased ? 0 : static_cast<std::uint16_t>(rng.next_u32());
        set_u16(data, off, new_w);
        inc = checksum_update16(inc, old_w, new_w);
      } else {
        const std::size_t off = 4 * rng.uniform(0, 9);
        const std::uint32_t old_v = get_u32(data, off);
        const std::uint32_t new_v = zero_biased ? 0 : rng.next_u32();
        set_u32(data, off, new_v);
        inc = checksum_update32(inc, old_v, new_v);
      }
    }
    const std::uint16_t full = inet_checksum(data);
    EXPECT_NE(inc, 0x0000) << "trial " << trial;
    EXPECT_TRUE(inc == full || (full == 0x0000 && inc == 0xffff))
        << "trial " << trial << " inc=" << inc << " full=" << full;
    // Receiver-side check: header bytes plus the checksum sum to -0.
    Bytes wire = data;
    put_u16(wire, inc);
    EXPECT_EQ(inet_checksum(wire), 0) << "trial " << trial;
  }
}

// ----------------------------------------------------------------- stats

TEST(Sampler, MedianMaxPercentile) {
  Sampler s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.min(), 1);
  EXPECT_DOUBLE_EQ(s.max(), 100);
  EXPECT_NEAR(s.median(), 50.5, 1e-9);
  EXPECT_NEAR(s.percentile(90), 90.1, 1e-9);
  EXPECT_NEAR(s.mean(), 50.5, 1e-9);
}

TEST(Sampler, AddAfterReadResorts) {
  Sampler s;
  s.add(10);
  EXPECT_DOUBLE_EQ(s.median(), 10);
  s.add(0);
  EXPECT_DOUBLE_EQ(s.min(), 0);
}

TEST(TextTable, RendersAlignedColumns) {
  TextTable t({"a", "long-header"});
  t.add_row({"xxxx", "1"});
  const std::string out = t.render();
  EXPECT_NE(out.find("| a    | long-header |"), std::string::npos);
  EXPECT_NE(out.find("| xxxx | 1           |"), std::string::npos);
  // Width counts code points, not bytes: "§" is two bytes, one column.
  TextTable u({"label", "n"});
  u.add_row({"§3.1", "1"});
  u.add_row({"ascii", "2"});
  const std::string uout = u.render();
  EXPECT_NE(uout.find("| §3.1  | 1 |"), std::string::npos);
  EXPECT_NE(uout.find("| ascii | 2 |"), std::string::npos);
}

// -------------------------------------------------------------- ByteRing

Bytes iota_bytes(std::size_t n, std::uint8_t first) {
  Bytes b(n);
  std::iota(b.begin(), b.end(), first);
  return b;
}

Bytes ring_contents(const ByteRing& r) {
  Bytes out(r.size());
  r.copy_out(0, r.size(), out.data());
  return out;
}

TEST(ByteRing, IsTwentyFourBytes) {
  // A pointer and three 32-bit counters; storm holds ~100k connections
  // with two rings each.
  if constexpr (sizeof(void*) == 8) {
    EXPECT_EQ(sizeof(ByteRing), 24u);
  }
}

TEST(ByteRing, AppendAndCopyOutAcrossTheWrap) {
  ByteRing r;
  r.append(iota_bytes(8, 0));  // [0..8), capacity 8
  EXPECT_EQ(r.capacity(), 8u);
  r.consume(5);                // [5..8) at storage [5, 8)
  r.append(iota_bytes(4, 8));  // [8..12) wraps to storage [0, 4)
  EXPECT_EQ(r.capacity(), 8u);
  EXPECT_EQ(ring_contents(r), iota_bytes(7, 5));
  std::uint8_t straddle[3] = {};
  r.copy_out(2, 3, straddle);  // storage 7, 0, 1
  EXPECT_EQ(Bytes(straddle, straddle + 3), iota_bytes(3, 7));
  std::uint8_t after[2] = {};
  r.copy_out(4, 2, after);     // wholly past the wrap
  EXPECT_EQ(Bytes(after, after + 2), iota_bytes(2, 9));
}

TEST(ByteRing, GrowthWhileWrappedKeepsOrder) {
  ByteRing r;
  r.append(iota_bytes(8, 0));
  r.consume(5);
  r.append(iota_bytes(4, 8));  // wrapped: 7 bytes in 8
  r.append(iota_bytes(5, 12));
  EXPECT_EQ(r.capacity(), 14u);  // 7 + max(7, 5), as vector::insert grows
  EXPECT_EQ(ring_contents(r), iota_bytes(12, 5));
}

TEST(ByteRing, ConsumeToEmptyKeepsCapacity) {
  ByteRing r;
  r.append(iota_bytes(10, 0));
  r.consume(3);
  r.consume(7);
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(r.capacity(), 10u);
  r.append(iota_bytes(10, 20));  // fits again without growing
  EXPECT_EQ(r.capacity(), 10u);
  EXPECT_EQ(ring_contents(r), iota_bytes(10, 20));
}

TEST(ByteRing, ReleaseFreesStorage) {
  ByteRing r;
  r.append(iota_bytes(100, 0));
  r.consume(100);
  r.release();
  EXPECT_EQ(r.capacity(), 0u);
  EXPECT_TRUE(r.empty());
  r.append(iota_bytes(3, 1));
  EXPECT_EQ(r.capacity(), 3u);
  EXPECT_EQ(ring_contents(r), iota_bytes(3, 1));
}

TEST(ByteRing, TracksVectorCapacityAndContents) {
  // The ring replaced vectors that grew by insert at the back and shrank
  // by erase at the front; it must reserve the same bytes at every step,
  // and append_to must grow its target as one insert would.
  Rng rng(17);
  ByteRing ring;
  Bytes vec;
  Bytes ring_out, vec_out;
  std::uint8_t next = 0;
  for (int step = 0; step < 4000; ++step) {
    const auto n = static_cast<std::size_t>(rng.uniform(0, 700));
    switch (rng.uniform(0, 2)) {
      case 0: {
        const Bytes src = iota_bytes(n, next);
        next = static_cast<std::uint8_t>(next + n);
        ring.append(src);
        vec.insert(vec.end(), src.begin(), src.end());
        break;
      }
      case 1: {
        const std::size_t k = std::min(n, vec.size());
        ring.consume(k);
        vec.erase(vec.begin(), vec.begin() + static_cast<long>(k));
        break;
      }
      default: {
        const std::size_t k = std::min(n, vec.size());
        ring.append_to(ring_out, k);
        vec_out.insert(vec_out.end(), vec.begin(), vec.begin() + static_cast<long>(k));
        ring.consume(k);
        vec.erase(vec.begin(), vec.begin() + static_cast<long>(k));
        ASSERT_EQ(ring_out.capacity(), vec_out.capacity()) << "step " << step;
        break;
      }
    }
    ASSERT_EQ(ring.size(), vec.size()) << "step " << step;
    ASSERT_EQ(ring.capacity(), vec.capacity()) << "step " << step;
    if (!vec.empty()) {
      const auto off = static_cast<std::size_t>(rng.uniform(0, vec.size() - 1));
      const std::size_t len = std::min<std::size_t>(vec.size() - off, 97);
      Bytes part(len);
      ring.copy_out(off, len, part.data());
      ASSERT_TRUE(std::equal(part.begin(), part.end(), vec.begin() + static_cast<long>(off)))
          << "step " << step;
    }
  }
  EXPECT_EQ(ring_out, vec_out);
}

// --------------------------------------------------------- ChunkedVector

TEST(ChunkedVector, GrowthNeverMovesAnElement) {
  ChunkedVector<std::uint64_t> v;
  EXPECT_EQ(v.emplace_back(), 0u);
  std::uint64_t* first = &v[0];
  *first = 42;
  for (std::uint32_t i = 1; i < 3 * ChunkedVector<std::uint64_t>::kChunk + 5; ++i) {
    ASSERT_EQ(v.emplace_back(), i);
    ASSERT_EQ(v[i], 0u) << "fresh elements are value-initialised";
    v[i] = i;
  }
  EXPECT_EQ(&v[0], first);
  EXPECT_EQ(v[0], 42u);
  EXPECT_EQ(v.size(), 3 * ChunkedVector<std::uint64_t>::kChunk + 5);
  EXPECT_EQ(v[ChunkedVector<std::uint64_t>::kChunk], ChunkedVector<std::uint64_t>::kChunk);
}

// ----------------------------------------------------------------- bytes

// FlatMap marks an empty slot by a stored hash of 0, so a key whose hash
// is 0 is stored as 1. It must still be found, erased and carried through
// every rehash -- and sit exactly where a key hashing to 1 would, so slot
// (and iteration) order is what it was with a per-slot flag.
struct ZeroHash {
  std::size_t operator()(int) const { return 0; }
};
struct OneHash {
  std::size_t operator()(int) const { return 1; }
};

TEST(FlatMap, KeyHashingToZeroIsStoredProbedAndRehashed) {
  FlatMap<int, int, ZeroHash> zero;
  FlatMap<int, int, OneHash> one;
  constexpr int kKeys = 100;  // every key collides: several rehashes
  for (int k = 0; k < kKeys; ++k) {
    EXPECT_TRUE(zero.try_emplace(k, 10 * k).second);
    one.try_emplace(k, 10 * k);
  }
  EXPECT_GE(zero.capacity(), 128u);
  ASSERT_EQ(zero.size(), static_cast<std::size_t>(kKeys));
  for (int k = 0; k < kKeys; ++k) {
    const int* v = zero.find_value(k);
    ASSERT_NE(v, nullptr) << k;
    EXPECT_EQ(*v, 10 * k);
  }
  for (int k = 0; k < kKeys; k += 2) {
    EXPECT_TRUE(zero.erase(k));
    one.erase(k);
  }
  EXPECT_FALSE(zero.erase(0));
  EXPECT_EQ(zero.size(), static_cast<std::size_t>(kKeys / 2));
  for (int k = 0; k < kKeys; ++k) EXPECT_EQ(zero.contains(k), k % 2 == 1) << k;

  std::vector<int> zero_order, one_order;
  zero.for_each([&](int k, int) { zero_order.push_back(k); });
  one.for_each([&](int k, int) { one_order.push_back(k); });
  EXPECT_EQ(zero_order, one_order);
  EXPECT_EQ(zero_order.size(), static_cast<std::size_t>(kKeys / 2));

  zero.reserve(4 * kKeys);  // one more rehash, after the erases
  for (int k = 1; k < kKeys; k += 2) EXPECT_EQ(*zero.find_value(k), 10 * k);
}

TEST(Bytes, BigEndianRoundTrip) {
  Bytes b;
  put_u16(b, 0x1234);
  put_u32(b, 0xdeadbeef);
  EXPECT_EQ(get_u16(b, 0), 0x1234);
  EXPECT_EQ(get_u32(b, 2), 0xdeadbeefu);
  set_u32(b, 2, 0x01020304);
  EXPECT_EQ(get_u32(b, 2), 0x01020304u);
}

TEST(Bytes, StringConversions) {
  const Bytes b = to_bytes("hello");
  EXPECT_EQ(to_string(b), "hello");
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(5), b(5);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, ForkIsIndependent) {
  Rng a(5);
  Rng child = a.fork();
  EXPECT_NE(a.next_u64(), child.next_u64());
}

}  // namespace
}  // namespace tfo
