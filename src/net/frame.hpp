// Ethernet II frames and wire-time accounting.
#pragma once

#include <algorithm>
#include <cstdint>

#include "common/bytes.hpp"
#include "net/mac.hpp"
#include "wire/packet_buffer.hpp"

namespace tfo::net {

/// EtherType values used by the stack.
enum class EtherType : std::uint16_t {
  kIpv4 = 0x0800,
  kArp = 0x0806,
};

struct EthernetFrame {
  MacAddress dst;
  MacAddress src;
  EtherType type = EtherType::kIpv4;
  /// Shared wire buffer: copying a frame (fan-out to N receivers, NIC rx
  /// scheduling) shares the storage instead of duplicating the bytes.
  wire::PacketBuffer payload;

  static constexpr std::size_t kHeaderBytes = 14;   // dst + src + ethertype
  static constexpr std::size_t kCrcBytes = 4;
  static constexpr std::size_t kMinPayload = 46;    // 64-byte minimum frame
  /// Preamble + SFD (8) and inter-frame gap (12): occupy the wire but
  /// carry no frame data.
  static constexpr std::size_t kWireOverheadBytes = 20;

  /// Octets of frame proper on the wire (header + padded payload + CRC).
  std::size_t frame_bytes() const {
    return kHeaderBytes + std::max(payload.size(), kMinPayload) + kCrcBytes;
  }

  /// Octet-equivalents of wire occupancy, including preamble and IFG.
  std::size_t wire_bytes() const { return frame_bytes() + kWireOverheadBytes; }
};

}  // namespace tfo::net
