// Experiment E3: micro-benchmarks of the hot paths (google-benchmark).
//
//  * full Internet checksum vs the paper's incremental update (§3.1) —
//    the reason the bridge patches instead of recomputing;
//  * TCP segment serialize/parse;
//  * OutputQueue insert/extract (the §3.2 merge data structure);
//  * simulator event throughput.
#include <benchmark/benchmark.h>

#include "common/checksum.hpp"
#include "core/output_queue.hpp"
#include "sim/simulator.hpp"
#include "tcp/segment.hpp"

namespace {

using namespace tfo;

Bytes make_payload(std::size_t n) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = static_cast<std::uint8_t>(i * 31);
  return b;
}

/// Wire bytes of a segment, leaving the caller's copy intact.
wire::PacketBuffer wire_of(tcp::TcpSegment s, ip::Ipv4 src, ip::Ipv4 dst) {
  return s.take_wire(src, dst);
}

void BM_ChecksumFull(benchmark::State& state) {
  const Bytes data = make_payload(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(inet_checksum(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_ChecksumFull)->Arg(64)->Arg(536)->Arg(1460);

void BM_ChecksumIncrementalUpdate(benchmark::State& state) {
  // The §3.1 address rewrite: one 32-bit pseudo-header field changes.
  std::uint16_t ck = 0x1234;
  std::uint32_t a = 0x0a000001, b = 0x0a000002;
  for (auto _ : state) {
    ck = checksum_update32(ck, a, b);
    benchmark::DoNotOptimize(ck);
    std::swap(a, b);
  }
}
BENCHMARK(BM_ChecksumIncrementalUpdate);

void BM_SegmentSerialize(benchmark::State& state) {
  tcp::TcpSegment seg;
  seg.src_port = 7777;
  seg.dst_port = 49152;
  seg.seq = 123456;
  seg.ack = 654321;
  seg.flags = tcp::Flags::kAck;
  seg.window = 65535;
  seg.payload = make_payload(static_cast<std::size_t>(state.range(0)));
  const ip::Ipv4 src = ip::Ipv4::parse("10.0.0.1");
  const ip::Ipv4 dst = ip::Ipv4::parse("10.0.0.10");
  for (auto _ : state) {
    benchmark::DoNotOptimize(wire_of(seg, src, dst));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_SegmentSerialize)->Arg(0)->Arg(1460);

void BM_SegmentParse(benchmark::State& state) {
  tcp::TcpSegment seg;
  seg.src_port = 7777;
  seg.dst_port = 49152;
  seg.flags = tcp::Flags::kAck;
  seg.payload = make_payload(1460);
  const ip::Ipv4 src = ip::Ipv4::parse("10.0.0.1");
  const ip::Ipv4 dst = ip::Ipv4::parse("10.0.0.10");
  const Bytes wire = wire::to_bytes(wire_of(seg, src, dst));
  for (auto _ : state) {
    benchmark::DoNotOptimize(tcp::TcpSegment::parse(wire, src, dst));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 1460);
}
BENCHMARK(BM_SegmentParse);

void BM_OutputQueueMatchCycle(benchmark::State& state) {
  // The steady-state §3.2 merge: insert a segment's bytes from each
  // replica, extract the matched run.
  const std::size_t n = 1460;
  const Bytes payload = make_payload(n);
  core::OutputQueue p, s;
  std::uint64_t off = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.insert(off, payload));
    benchmark::DoNotOptimize(s.insert(off, payload));
    benchmark::DoNotOptimize(p.extract(off, n));
    benchmark::DoNotOptimize(s.extract(off, n));
    off += n;
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_OutputQueueMatchCycle);

void BM_OutputQueueFragmented(benchmark::State& state) {
  // Worst-ish case: many small out-of-order runs that later coalesce.
  const std::size_t runs = static_cast<std::size_t>(state.range(0));
  const Bytes piece = make_payload(64);
  for (auto _ : state) {
    core::OutputQueue q;
    for (std::size_t i = 0; i < runs; ++i) {
      // Even offsets first, then odd: maximal fragmentation then merge.
      const std::uint64_t off = (i % 2 == 0 ? i : runs - i) * 128;
      benchmark::DoNotOptimize(q.insert(off, piece));
    }
    benchmark::DoNotOptimize(q.total_bytes());
  }
}
BENCHMARK(BM_OutputQueueFragmented)->Arg(64)->Arg(512);

void BM_SimulatorEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    int count = 0;
    for (int i = 0; i < 1000; ++i) {
      sim.schedule_at(static_cast<SimTime>(i), [&count] { ++count; });
    }
    sim.run();
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SimulatorEventThroughput);

void BM_SimulatorTimerChurn(benchmark::State& state) {
  // Schedule-then-cancel, the RTO-timer pattern on every ACK.
  sim::Simulator sim;
  for (auto _ : state) {
    const auto id = sim.schedule_after(1'000'000, [] {});
    sim.cancel(id);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimulatorTimerChurn);

}  // namespace

BENCHMARK_MAIN();
