// The 4-tuple identifying a TCP connection (§7.1: "a TCP connection is
// uniquely identified by the 4-tuple").
#pragma once

#include <charconv>
#include <cstdint>
#include <iterator>
#include <functional>
#include <string>

#include "ip/addr.hpp"

namespace tfo::tcp {

struct ConnKey {
  ip::Ipv4 local_ip;
  std::uint16_t local_port = 0;
  ip::Ipv4 remote_ip;
  std::uint16_t remote_port = 0;

  friend bool operator==(const ConnKey&, const ConnKey&) = default;
  /// Lexicographic field order: a stable, hash-independent total order for
  /// sweeps whose visiting order must not depend on hash-table slot order.
  friend auto operator<=>(const ConnKey&, const ConnKey&) = default;

  ConnKey reversed() const { return {remote_ip, remote_port, local_ip, local_port}; }

  /// "a.b.c.d:p<->e.f.g.h:q". Formatted in place with std::to_chars: one
  /// allocation and no stream or printf machinery (timeline export formats
  /// one per connection event).
  std::string str() const {
    char buf[48];  // two 15-char addresses, two 5-digit ports and ":<->:"
    char* p = buf;
    // Each number goes through a 5-char scratch first: to_chars into the
    // tail of `buf` would leave the compiler unable to bound `p`.
    const auto num = [&](unsigned v) {
      char digits[5];
      const char* end = std::to_chars(std::begin(digits), std::end(digits), v).ptr;
      for (const char* d = digits; d != end; ++d) *p++ = *d;
    };
    const auto addr_port = [&](ip::Ipv4 a, std::uint16_t port) {
      for (int shift = 24; shift >= 0; shift -= 8) {
        num((a.v >> shift) & 0xffu);
        *p++ = shift > 0 ? '.' : ':';
      }
      num(port);
    };
    addr_port(local_ip, local_port);
    for (char c : {'<', '-', '>'}) *p++ = c;
    addr_port(remote_ip, remote_port);
    return std::string(buf, p);
  }
};

/// 64-bit mixed hash over the packed 4-tuple. The demux tables probe on
/// this for every segment, so it must spread keys that differ only in the
/// low port bits (the storm workload: thousands of connections between the
/// same two addresses, consecutive ephemeral ports) — the old ×31 combiner
/// put those in adjacent buckets and degraded open addressing to linear
/// scans. splitmix64 finalizer: every input bit avalanches.
struct ConnKeyHash {
  std::size_t operator()(const ConnKey& k) const noexcept {
    std::uint64_t x = (static_cast<std::uint64_t>(k.local_ip.v) << 32) |
                      (static_cast<std::uint64_t>(k.local_port) << 16) |
                      k.remote_port;
    x ^= static_cast<std::uint64_t>(k.remote_ip.v) * 0x9E3779B97F4A7C15ull;
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ull;
    x ^= x >> 27;
    x *= 0x94D049BB133111EBull;
    x ^= x >> 31;
    return static_cast<std::size_t>(x);
  }
};

}  // namespace tfo::tcp

template <>
struct std::hash<tfo::tcp::ConnKey> {
  std::size_t operator()(const tfo::tcp::ConnKey& k) const noexcept {
    return tfo::tcp::ConnKeyHash{}(k);
  }
};
