// Byte-sequence helpers shared by every layer of the stack.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace tfo {

/// The universal payload type: a contiguous, owned run of octets.
using Bytes = std::vector<std::uint8_t>;

/// A non-owning view of octets.
using BytesView = std::span<const std::uint8_t>;

/// Builds a Bytes from arbitrary text (useful for line-based app protocols).
inline Bytes to_bytes(std::string_view s) {
  return Bytes(s.begin(), s.end());
}

/// Interprets a byte run as text.
inline std::string to_string(BytesView b) {
  return std::string(reinterpret_cast<const char*>(b.data()), b.size());
}

/// Appends `src` to `dst`.
inline void append(Bytes& dst, BytesView src) {
  dst.insert(dst.end(), src.begin(), src.end());
}

/// Big-endian field writers into raw memory. Serializers pre-size their
/// output (or claim headroom in a wire::PacketBuffer) and write fields at
/// known offsets through these — no per-byte push_back growth on the hot
/// path. Each returns the position just past the written field so header
/// builders can chain them cursor-style.
inline std::uint8_t* write_u8(std::uint8_t* p, std::uint8_t v) {
  *p = v;
  return p + 1;
}
inline std::uint8_t* write_u16(std::uint8_t* p, std::uint16_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 8);
  p[1] = static_cast<std::uint8_t>(v);
  return p + 2;
}
inline std::uint8_t* write_u32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 24);
  p[1] = static_cast<std::uint8_t>(v >> 16);
  p[2] = static_cast<std::uint8_t>(v >> 8);
  p[3] = static_cast<std::uint8_t>(v);
  return p + 4;
}
inline std::uint8_t* write_u64(std::uint8_t* p, std::uint64_t v) {
  return write_u32(write_u32(p, static_cast<std::uint32_t>(v >> 32)),
                   static_cast<std::uint32_t>(v));
}

/// Legacy growth-style writers, kept for cold paths (app-level protocol
/// builders); wire-format serializers use the bulk writers above.
inline void put_u8(Bytes& b, std::uint8_t v) { b.push_back(v); }
inline void put_u16(Bytes& b, std::uint16_t v) {
  const std::uint8_t w[2] = {static_cast<std::uint8_t>(v >> 8),
                             static_cast<std::uint8_t>(v)};
  b.insert(b.end(), w, w + 2);
}
inline void put_u32(Bytes& b, std::uint32_t v) {
  const std::uint8_t w[4] = {
      static_cast<std::uint8_t>(v >> 24), static_cast<std::uint8_t>(v >> 16),
      static_cast<std::uint8_t>(v >> 8), static_cast<std::uint8_t>(v)};
  b.insert(b.end(), w, w + 4);
}

inline void put_u64(Bytes& b, std::uint64_t v) {
  put_u32(b, static_cast<std::uint32_t>(v >> 32));
  put_u32(b, static_cast<std::uint32_t>(v));
}

inline std::uint8_t get_u8(BytesView b, std::size_t off) { return b[off]; }
inline std::uint16_t get_u16(BytesView b, std::size_t off) {
  return static_cast<std::uint16_t>((b[off] << 8) | b[off + 1]);
}
inline std::uint32_t get_u32(BytesView b, std::size_t off) {
  return (static_cast<std::uint32_t>(b[off]) << 24) |
         (static_cast<std::uint32_t>(b[off + 1]) << 16) |
         (static_cast<std::uint32_t>(b[off + 2]) << 8) |
         static_cast<std::uint32_t>(b[off + 3]);
}

inline std::uint64_t get_u64(BytesView b, std::size_t off) {
  return (static_cast<std::uint64_t>(get_u32(b, off)) << 32) | get_u32(b, off + 4);
}

/// Overwrites a big-endian u16 in place (header field rewrite).
inline void set_u16(Bytes& b, std::size_t off, std::uint16_t v) {
  b[off] = static_cast<std::uint8_t>(v >> 8);
  b[off + 1] = static_cast<std::uint8_t>(v);
}

/// Overwrites a big-endian u32 in place (header field rewrite).
inline void set_u32(Bytes& b, std::size_t off, std::uint32_t v) {
  b[off] = static_cast<std::uint8_t>(v >> 24);
  b[off + 1] = static_cast<std::uint8_t>(v >> 16);
  b[off + 2] = static_cast<std::uint8_t>(v >> 8);
  b[off + 3] = static_cast<std::uint8_t>(v);
}

}  // namespace tfo
