// Shared helpers for the test suite.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>

#include "common/bytes.hpp"
#include "common/time.hpp"
#include "ip/datagram.hpp"
#include "sim/simulator.hpp"
#include "tcp/segment.hpp"

namespace tfo::test {

/// Runs the simulator until `pred` holds or `timeout` elapses. Returns
/// true if the predicate became true.
inline bool run_until(sim::Simulator& sim, const std::function<bool()>& pred,
                      SimDuration timeout = seconds(60)) {
  const SimTime deadline = sim.now() + static_cast<SimTime>(timeout);
  while (!pred()) {
    if (sim.now() > deadline || sim.pending() == 0) return pred();
    sim.step();
  }
  return true;
}

/// Deterministic pseudo-random payload of length n (seeded by `seed`).
/// Eight interleaved LCG lanes break the serial multiply-add dependency
/// (bulk benches generate tens of MB through here); the output is
/// byte-identical to the scalar recurrence x = x*1664525 + 1013904223.
inline Bytes pattern_bytes(std::size_t n, std::uint32_t seed = 0) {
  constexpr std::uint32_t kA = 1664525u, kC = 1013904223u;
  // f^8 jump constants: f^k(x) = A_k*x + C_k with A_{i+1} = a*A_i,
  // C_{i+1} = a*C_i + c.
  constexpr auto jump = [] {
    std::uint32_t a = 1, c = 0;
    for (int i = 0; i < 8; ++i) {
      a *= kA;
      c = c * kA + kC;
    }
    return std::pair<std::uint32_t, std::uint32_t>{a, c};
  }();
  Bytes b(n);
  std::uint32_t lane[8];
  std::uint32_t x = seed * 2654435761u + 12345u;
  for (auto& l : lane) {
    x = x * kA + kC;
    l = x;
  }
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    for (int j = 0; j < 8; ++j) {
      b[i + j] = static_cast<std::uint8_t>(lane[j] >> 24);
      lane[j] = lane[j] * jump.first + jump.second;
    }
  }
  // The tail (fewer than 8 bytes) takes one byte from each lane in turn.
  for (const std::uint32_t l : lane) {
    if (i == n) break;
    b[i++] = static_cast<std::uint8_t>(l >> 24);
  }
  return b;
}

/// Wire bytes of a segment or datagram, leaving the caller's copy intact.
inline Bytes wire_of(tcp::TcpSegment s, ip::Ipv4 src, ip::Ipv4 dst) {
  return wire::to_bytes(s.take_wire(src, dst));
}
inline Bytes wire_of(ip::IpDatagram d) { return wire::to_bytes(d.to_wire()); }

/// 64-bit FNV-1a, fed incrementally: the digest recorded traces and wire
/// bytes are pinned to.
struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ull;

  void byte(std::uint8_t b) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  /// The low `n` bytes of `v`, little-endian.
  void le(std::uint64_t v, int n) {
    for (int i = 0; i < n; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  /// A length-prefixed byte string (4-byte little-endian length).
  void bytes(BytesView b) {
    le(b.size(), 4);
    for (const std::uint8_t c : b) byte(c);
  }
};

}  // namespace tfo::test
