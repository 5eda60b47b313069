// Unit and property tests for the bridge output queues (§3.2/§3.4).
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/output_queue.hpp"
#include "counting_alloc.hpp"

namespace tfo::core {
namespace {

Bytes seq_bytes(std::uint64_t offset, std::size_t n) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = static_cast<std::uint8_t>((offset + i) * 131 + 7);
  }
  return b;
}

TEST(OutputQueue, InsertAndExtract) {
  OutputQueue q;
  ASSERT_TRUE(q.insert(10, seq_bytes(10, 5)));
  EXPECT_EQ(q.total_bytes(), 5u);
  EXPECT_EQ(q.contiguous_at(10), 5u);
  EXPECT_EQ(q.contiguous_at(12), 3u);
  EXPECT_EQ(q.contiguous_at(15), 0u);
  EXPECT_EQ(q.contiguous_at(9), 0u);
  const Bytes got = to_bytes(q.extract(10, 5));
  EXPECT_EQ(got, seq_bytes(10, 5));
  EXPECT_TRUE(q.empty());
}

TEST(OutputQueue, PartialExtractLeavesRemainder) {
  OutputQueue q;
  ASSERT_TRUE(q.insert(0, seq_bytes(0, 10)));
  EXPECT_EQ(q.extract(0, 4), seq_bytes(0, 4));
  EXPECT_EQ(q.contiguous_at(4), 6u);
  EXPECT_EQ(q.total_bytes(), 6u);
  EXPECT_EQ(q.extract(4, 6), seq_bytes(4, 6));
}

TEST(OutputQueue, ExtractFromMiddleSplitsRun) {
  OutputQueue q;
  ASSERT_TRUE(q.insert(0, seq_bytes(0, 10)));
  EXPECT_EQ(q.extract(3, 4), seq_bytes(3, 4));
  EXPECT_EQ(q.contiguous_at(0), 3u);
  EXPECT_EQ(q.contiguous_at(7), 3u);
  EXPECT_EQ(q.contiguous_at(3), 0u);
  EXPECT_EQ(q.total_bytes(), 6u);
}

TEST(OutputQueue, AdjacentRunsMerge) {
  OutputQueue q;
  ASSERT_TRUE(q.insert(0, seq_bytes(0, 5)));
  ASSERT_TRUE(q.insert(5, seq_bytes(5, 5)));
  EXPECT_EQ(q.contiguous_at(0), 10u);
}

TEST(OutputQueue, OverlappingIdenticalInsertIsIdempotent) {
  OutputQueue q;
  ASSERT_TRUE(q.insert(0, seq_bytes(0, 10)));
  ASSERT_TRUE(q.insert(3, seq_bytes(3, 10)));  // overlap, same content
  EXPECT_EQ(q.contiguous_at(0), 13u);
  EXPECT_EQ(q.total_bytes(), 13u);
}

TEST(OutputQueue, GapThenFill) {
  OutputQueue q;
  ASSERT_TRUE(q.insert(0, seq_bytes(0, 3)));
  ASSERT_TRUE(q.insert(10, seq_bytes(10, 3)));
  EXPECT_EQ(q.contiguous_at(0), 3u);
  EXPECT_EQ(q.min_offset(), 0u);
  EXPECT_EQ(q.max_end(), 13u);
  ASSERT_TRUE(q.insert(3, seq_bytes(3, 7)));  // fills the gap exactly
  EXPECT_EQ(q.contiguous_at(0), 13u);
}

TEST(OutputQueue, DivergenceDetected) {
  OutputQueue q;
  ASSERT_TRUE(q.insert(0, seq_bytes(0, 10)));
  Bytes bad = seq_bytes(5, 5);
  bad[2] ^= 0xff;
  EXPECT_FALSE(q.insert(5, bad));
  // Queue unchanged by the failed insert.
  EXPECT_EQ(q.total_bytes(), 10u);
  EXPECT_EQ(q.extract(0, 10), seq_bytes(0, 10));
}

TEST(OutputQueue, DropBelow) {
  OutputQueue q;
  ASSERT_TRUE(q.insert(0, seq_bytes(0, 10)));
  ASSERT_TRUE(q.insert(20, seq_bytes(20, 5)));
  q.drop_below(5);
  EXPECT_EQ(q.contiguous_at(0), 0u);
  EXPECT_EQ(q.contiguous_at(5), 5u);
  EXPECT_EQ(q.total_bytes(), 10u);
  q.drop_below(100);
  EXPECT_TRUE(q.empty());
}

TEST(OutputQueue, LargeOffsets) {
  OutputQueue q;
  const std::uint64_t base = 0xffffffff00ull;  // beyond 32-bit space
  ASSERT_TRUE(q.insert(base, seq_bytes(base, 100)));
  EXPECT_EQ(q.contiguous_at(base + 50), 50u);
  EXPECT_EQ(q.extract(base, 100), seq_bytes(base, 100));
}

// Property: inserting random (possibly overlapping, always consistent)
// fragments of a stream and then extracting from the front reproduces the
// stream exactly — the invariant the bridge merge relies on.
class OutputQueueProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OutputQueueProperty, RandomFragmentsReassemble) {
  Rng rng(GetParam());
  OutputQueue q;
  const std::uint64_t stream_len = 2000;
  // Cover the stream with random fragments.
  std::vector<bool> covered(stream_len, false);
  while (std::find(covered.begin(), covered.end(), false) != covered.end()) {
    const std::uint64_t off = rng.uniform(0, stream_len - 1);
    const std::size_t len =
        static_cast<std::size_t>(rng.uniform(1, std::min<std::uint64_t>(64, stream_len - off)));
    ASSERT_TRUE(q.insert(off, seq_bytes(off, len)));
    for (std::uint64_t i = off; i < off + len; ++i) covered[i] = true;
  }
  EXPECT_EQ(q.total_bytes(), stream_len);
  EXPECT_EQ(q.contiguous_at(0), stream_len);
  // Extract in random-sized chunks from the front.
  std::uint64_t pos = 0;
  while (pos < stream_len) {
    const std::size_t n = static_cast<std::size_t>(
        rng.uniform(1, std::min<std::uint64_t>(97, stream_len - pos)));
    EXPECT_EQ(q.extract(pos, n), seq_bytes(pos, n));
    pos += n;
  }
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.total_bytes(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OutputQueueProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// Property: a single corrupted fragment is always caught, regardless of
// how it overlaps existing content.
class DivergenceProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DivergenceProperty, CorruptOverlapAlwaysCaught) {
  Rng rng(GetParam() * 977);
  for (int trial = 0; trial < 50; ++trial) {
    OutputQueue q;
    ASSERT_TRUE(q.insert(100, seq_bytes(100, 200)));
    const std::uint64_t off = rng.uniform(100, 280);
    const std::size_t len = static_cast<std::size_t>(rng.uniform(1, 40));
    Bytes frag = seq_bytes(off, len);
    // Corrupt one byte that overlaps the existing [100, 300) run.
    const std::uint64_t overlap_end = std::min<std::uint64_t>(off + len, 300);
    const std::size_t idx = static_cast<std::size_t>(rng.uniform(0, overlap_end - off - 1));
    frag[idx] ^= 0x01;
    EXPECT_FALSE(q.insert(off, frag)) << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DivergenceProperty, ::testing::Values(1, 2, 3, 4));

// ---------------------------------------------------------- coalescing

TEST(OutputQueue, AbuttingRunsCoalesceIntoOne) {
  // Three runs inserted back-to-front, each exactly abutting the next:
  // the queue must store them as a single run (contiguous_at spans all).
  OutputQueue q;
  ASSERT_TRUE(q.insert(20, seq_bytes(20, 10)));
  ASSERT_TRUE(q.insert(10, seq_bytes(10, 10)));
  ASSERT_TRUE(q.insert(0, seq_bytes(0, 10)));
  EXPECT_EQ(q.contiguous_at(0), 30u);
  EXPECT_EQ(q.total_bytes(), 30u);
  EXPECT_EQ(q.min_offset(), 0u);
  EXPECT_EQ(q.max_end(), 30u);
}

TEST(OutputQueue, InsertBridgingTwoRunsCoalescesAll) {
  // [0,5) and [8,12) exist; inserting [4,9) touches both ends and must
  // union everything into [0,12) with correct totals.
  OutputQueue q;
  ASSERT_TRUE(q.insert(0, seq_bytes(0, 5)));
  ASSERT_TRUE(q.insert(8, seq_bytes(8, 4)));
  EXPECT_EQ(q.total_bytes(), 9u);
  ASSERT_TRUE(q.insert(4, seq_bytes(4, 5)));
  EXPECT_EQ(q.contiguous_at(0), 12u);
  EXPECT_EQ(q.total_bytes(), 12u);
  EXPECT_EQ(q.extract(0, 12), seq_bytes(0, 12));
}

TEST(OutputQueue, InsertAbuttingOnlyLeftDoesNotBridgeGap) {
  OutputQueue q;
  ASSERT_TRUE(q.insert(0, seq_bytes(0, 5)));
  ASSERT_TRUE(q.insert(10, seq_bytes(10, 5)));
  ASSERT_TRUE(q.insert(5, seq_bytes(5, 3)));  // abuts left run only
  EXPECT_EQ(q.contiguous_at(0), 8u);
  EXPECT_EQ(q.contiguous_at(10), 5u);
  EXPECT_EQ(q.total_bytes(), 13u);
}

// ------------------------------------------------------ gauge binding

TEST(OutputQueue, GaugesTrackTotalsByDelta) {
  obs::Gauge bytes, depth;
  {
    OutputQueue q;
    q.bind_gauges(&bytes, &depth);
    ASSERT_TRUE(q.insert(0, seq_bytes(0, 10)));
    ASSERT_TRUE(q.insert(20, seq_bytes(20, 5)));
    EXPECT_EQ(bytes.value(), 15);
    EXPECT_EQ(depth.value(), 2);
    q.drop_below(5);
    EXPECT_EQ(bytes.value(), 10);
    (void)q.extract(20, 5);
    EXPECT_EQ(bytes.value(), 5);
    EXPECT_EQ(depth.value(), 1);
    EXPECT_EQ(bytes.max_value(), 15);
  }
  // Destruction retires the queue's remaining contribution.
  EXPECT_EQ(bytes.value(), 0);
  EXPECT_EQ(depth.value(), 0);
}

TEST(OutputQueue, SharedGaugeAggregatesAcrossQueues) {
  obs::Gauge bytes;
  OutputQueue a, b;
  a.bind_gauges(&bytes, nullptr);
  b.bind_gauges(&bytes, nullptr);
  ASSERT_TRUE(a.insert(0, seq_bytes(0, 7)));
  ASSERT_TRUE(b.insert(0, seq_bytes(0, 3)));
  EXPECT_EQ(bytes.value(), 10);
  a.clear();
  EXPECT_EQ(bytes.value(), 3);
}

// ----------------------------------------------------- run storage

TEST(OutputQueue, SteadyStateAllocatesNothing) {
  // The merge's pattern: P's queue one segment ahead of S's, plus a
  // duplicate insert (pass 1 only), an extract from the middle of a run
  // (a split), one from its front, and drop_below removing the rest.
  // Once the buffer pool and the spare run vectors are warm, none of it
  // allocates.
  constexpr std::size_t kLen = 1000;
  const wire::PacketBuffer chunk = wire::PacketBuffer::copy_of(seq_bytes(0, kLen));
  OutputQueue p, s;
  obs::Gauge bytes, depth;
  p.bind_gauges(&bytes, &depth);
  s.bind_gauges(&bytes, &depth);
  bool ok = p.insert(1, chunk);
  const auto cycle = [&](std::uint64_t i) {
    const std::uint64_t off = 1 + i * kLen;
    ok &= p.insert(off + kLen, chunk);
    ok &= s.insert(off, chunk);
    ok &= s.insert(off, chunk);
    ok &= p.extract(off + 300, 400) == s.extract(off + 300, 400);
    ok &= p.extract(off, 300) == s.extract(off, 300);
    p.drop_below(off + kLen);
    s.drop_below(off + kLen);
    ok &= s.empty() && p.total_bytes() == kLen;
  };
  std::uint64_t i = 0;
  for (; i < 100; ++i) cycle(i);
  const std::uint64_t allocs = bench::heap_stats().allocs;
  for (; i < 2100; ++i) cycle(i);
  EXPECT_EQ(bench::heap_stats().allocs, allocs);
  EXPECT_TRUE(ok);
  EXPECT_EQ(bytes.value(), static_cast<std::int64_t>(kLen));
  EXPECT_EQ(depth.value(), 1);
}

TEST(OutputQueue, IdleQueueHoldsNoStorage) {
  OutputQueue q;
  EXPECT_EQ(q.storage_capacity(), 0u);
  ASSERT_TRUE(q.insert(0, seq_bytes(0, 10)));
  ASSERT_TRUE(q.insert(20, seq_bytes(20, 10)));
  EXPECT_GE(q.storage_capacity(), 2u);
  // Drained by extract: the run vector goes back to the spare list.
  (void)q.extract(0, 10);
  EXPECT_GT(q.storage_capacity(), 0u);
  (void)q.extract(20, 10);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.storage_capacity(), 0u);
  // Drained by drop_below, and by clear.
  ASSERT_TRUE(q.insert(40, seq_bytes(40, 10)));
  q.drop_below(50);
  EXPECT_EQ(q.storage_capacity(), 0u);
  ASSERT_TRUE(q.insert(60, seq_bytes(60, 10)));
  q.clear();
  EXPECT_EQ(q.storage_capacity(), 0u);
  // A failed (divergent) insert into an empty queue takes no storage.
  ASSERT_TRUE(q.insert(70, seq_bytes(70, 10)));
  Bytes bad = seq_bytes(75, 10);
  bad[0] ^= 0xff;
  EXPECT_FALSE(q.insert(75, bad));
  (void)q.extract(70, 10);
  EXPECT_EQ(q.storage_capacity(), 0u);
}

TEST(OutputQueue, InsertInFrontOfTheHead) {
  // After front extractions the live runs start part-way into the run
  // vector; an insert below them lands in front, in offset order.
  OutputQueue q;
  for (std::uint64_t off = 100; off < 160; off += 10) {
    ASSERT_TRUE(q.insert(off, seq_bytes(off, 10)));
  }
  EXPECT_EQ(q.extract(100, 10), seq_bytes(100, 10));
  EXPECT_EQ(q.extract(110, 10), seq_bytes(110, 10));
  ASSERT_TRUE(q.insert(50, seq_bytes(50, 10)));
  ASSERT_TRUE(q.insert(30, seq_bytes(30, 10)));
  ASSERT_TRUE(q.insert(60, seq_bytes(60, 70)));  // fills [60, 120)
  EXPECT_EQ(q.min_offset(), 30u);
  EXPECT_EQ(q.contiguous_at(50), 110u);
  EXPECT_EQ(q.total_bytes(), 120u);
  EXPECT_EQ(q.extract(50, 110), seq_bytes(50, 110));
  EXPECT_EQ(q.extract(30, 10), seq_bytes(30, 10));
  EXPECT_TRUE(q.empty());
}

// ------------------------------------------- interleaved-operation fuzz

// Property: under random interleavings of insert / extract / drop_below,
// the queue agrees with a flat-buffer oracle on total_bytes, contiguous
// runs, and extracted content. This is the bookkeeping the bridge gauges
// publish, so drift here would silently corrupt the metrics too.
class OutputQueueFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OutputQueueFuzz, MatchesFlatBufferOracle) {
  Rng rng(GetParam() * 7919 + 13);
  constexpr std::uint64_t kStream = 1024;
  OutputQueue q;
  obs::Gauge gauge_bytes, gauge_depth;
  q.bind_gauges(&gauge_bytes, &gauge_depth);
  std::vector<bool> present(kStream, false);  // oracle: which offsets held

  auto oracle_total = [&] {
    return static_cast<std::size_t>(
        std::count(present.begin(), present.end(), true));
  };
  auto oracle_contig = [&](std::uint64_t off) {
    std::size_t n = 0;
    while (off + n < kStream && present[off + n]) ++n;
    return n;
  };

  auto insert = [&](std::uint64_t off, std::size_t len) {
    ASSERT_TRUE(q.insert(off, seq_bytes(off, len)));
    for (std::uint64_t i = off; i < off + len; ++i) present[i] = true;
  };

  for (int step = 0; step < 600; ++step) {
    const std::uint64_t dice = rng.uniform(0, 12);
    if (dice < 5) {  // insert a consistent fragment
      const std::uint64_t off = rng.uniform(0, kStream - 1);
      insert(off, static_cast<std::size_t>(
                      rng.uniform(1, std::min<std::uint64_t>(48, kStream - off))));
    } else if (dice == 5 && !q.empty() && q.min_offset() > 0) {
      // Insert wholly in front of the lowest run (the queue's head).
      const std::uint64_t lo = q.min_offset();
      const std::uint64_t off = rng.uniform(0, lo - 1);
      insert(off, static_cast<std::size_t>(
                      rng.uniform(1, std::min<std::uint64_t>(48, lo - off))));
    } else if (dice == 6) {
      // Drain, then insert below where the drained queue started.
      const std::uint64_t lo = q.empty() ? kStream : q.min_offset();
      q.drop_below(kStream);
      std::fill(present.begin(), present.end(), false);
      ASSERT_TRUE(q.empty());
      ASSERT_EQ(q.storage_capacity(), 0u);
      const std::uint64_t off = rng.uniform(0, std::max<std::uint64_t>(lo, 1) - 1);
      insert(off, static_cast<std::size_t>(
                      rng.uniform(1, std::min<std::uint64_t>(48, kStream - off))));
    } else if (dice == 7) {
      // Split a run in the middle: bytes stay present on both sides.
      const std::uint64_t probe = rng.uniform(1, kStream - 1);
      const std::size_t avail = oracle_contig(probe);
      if (present[probe - 1] && avail >= 2) {
        const std::size_t n = static_cast<std::size_t>(
            rng.uniform(1, static_cast<std::uint64_t>(avail - 1)));
        ASSERT_EQ(q.extract(probe, n), seq_bytes(probe, n));
        for (std::uint64_t i = probe; i < probe + n; ++i) present[i] = false;
      }
    } else if (dice < 11) {  // extract a prefix of some present run
      const std::uint64_t probe = rng.uniform(0, kStream - 1);
      const std::size_t avail = oracle_contig(probe);
      ASSERT_EQ(q.contiguous_at(probe), avail) << "probe " << probe;
      if (avail > 0) {
        const std::size_t n = static_cast<std::size_t>(
            rng.uniform(1, static_cast<std::uint64_t>(avail)));
        ASSERT_EQ(q.extract(probe, n), seq_bytes(probe, n));
        for (std::uint64_t i = probe; i < probe + n; ++i) present[i] = false;
      }
    } else {  // drop everything below a random offset
      const std::uint64_t off = rng.uniform(0, kStream);
      q.drop_below(off);
      for (std::uint64_t i = 0; i < off && i < kStream; ++i) present[i] = false;
    }

    ASSERT_EQ(q.total_bytes(), oracle_total()) << "step " << step;
    ASSERT_EQ(q.empty(), oracle_total() == 0) << "step " << step;
    if (q.empty()) {
      ASSERT_EQ(q.storage_capacity(), 0u) << "step " << step;
    }
    ASSERT_EQ(gauge_bytes.value(),
              static_cast<std::int64_t>(q.total_bytes())) << "step " << step;
    // Spot-check run boundaries at random probes.
    for (int p = 0; p < 4; ++p) {
      const std::uint64_t probe = rng.uniform(0, kStream - 1);
      ASSERT_EQ(q.contiguous_at(probe), oracle_contig(probe))
          << "step " << step << " probe " << probe;
    }
  }
  // Drain and confirm the content is exactly the oracle's.
  for (std::uint64_t off = 0; off < kStream; ++off) {
    if (!present[off]) continue;
    const std::size_t n = oracle_contig(off);
    ASSERT_EQ(q.extract(off, n), seq_bytes(off, n));
    for (std::uint64_t i = off; i < off + n; ++i) present[i] = false;
  }
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(gauge_bytes.value(), 0);
  EXPECT_EQ(gauge_depth.value(), 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OutputQueueFuzz,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

}  // namespace
}  // namespace tfo::core
