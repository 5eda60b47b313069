// TCP segment wire format (RFC 793), including the options this system
// needs: Maximum Segment Size (RFC 879) and the failover bridge's
// "original destination" option — the paper's §3.1 mechanism by which the
// secondary marks diverted segments with the address of the client they
// were really meant for.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "common/bytes.hpp"
#include "common/seq32.hpp"
#include "ip/addr.hpp"
#include "wire/packet_buffer.hpp"

namespace tfo::tcp {

struct Flags {
  static constexpr std::uint8_t kFin = 0x01;
  static constexpr std::uint8_t kSyn = 0x02;
  static constexpr std::uint8_t kRst = 0x04;
  static constexpr std::uint8_t kPsh = 0x08;
  static constexpr std::uint8_t kAck = 0x10;
};

struct TcpSegment {
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  Seq32 seq = 0;
  Seq32 ack = 0;
  std::uint8_t flags = 0;
  std::uint16_t window = 0;
  /// MSS option; present on SYN segments.
  std::optional<std::uint16_t> mss;
  /// Original-destination option (experimental kind 253): carried on
  /// segments the secondary bridge diverts to the primary so the primary
  /// bridge can recover the client address (§3.1).
  std::optional<ip::Ipv4> orig_dst;
  /// Migrate-from option (experimental kind 252): Mosh-style client
  /// mobility. A client that changed IP address mid-connection stamps its
  /// *previous* address on outgoing segments until the peer answers the
  /// new one; receivers rekey the connection after a sequence
  /// plausibility check (never on RST or SYN).
  std::optional<ip::Ipv4> migrate_from;
  /// Shared wire buffer: on rx a zero-copy slice of the arriving frame;
  /// on tx built once with headroom so serialization prepends in place.
  wire::PacketBuffer payload;

  bool syn() const { return flags & Flags::kSyn; }
  bool fin() const { return flags & Flags::kFin; }
  bool rst() const { return flags & Flags::kRst; }
  bool has_ack() const { return flags & Flags::kAck; }
  bool psh() const { return flags & Flags::kPsh; }

  /// Sequence space the segment occupies (payload + SYN + FIN).
  std::uint32_t seg_len() const {
    return static_cast<std::uint32_t>(payload.size()) + (syn() ? 1 : 0) +
           (fin() ? 1 : 0);
  }

  std::size_t header_bytes() const;

  /// Serializes with a valid checksum over the RFC 793 pseudo-header for
  /// the given IP endpoints: prepends the TCP header into the payload
  /// buffer's headroom — in place when the storage is exclusively owned —
  /// and returns the buffer. Consumes the payload (empty afterwards); take
  /// the wire of a copy to keep the segment.
  wire::PacketBuffer take_wire(ip::Ipv4 src_ip, ip::Ipv4 dst_ip);

  /// Parses and verifies the checksum against the pseudo-header. Returns
  /// nullopt on malformed input or checksum mismatch. Zero-copy: the
  /// returned segment's payload is a slice of `wire`'s storage past the
  /// TCP header.
  static std::optional<TcpSegment> parse(const wire::PacketBuffer& wire,
                                         ip::Ipv4 src_ip, ip::Ipv4 dst_ip);

  /// Byte offset of the 16-bit checksum field within a serialized segment
  /// (for in-place incremental fix-up after address rewrites).
  static constexpr std::size_t kChecksumOffset = 16;

  /// Human-readable one-liner for logs ("SYN seq=.. ack=.. len=..").
  std::string summary() const;
};

/// Patches the TCP checksum inside a serialized segment after one of the
/// pseudo-header IP addresses changed — the paper's incremental checksum
/// fix ("subtract the original bytes ... add the new bytes", §3.1). It
/// unshares first (copy-on-write) so a snooped frame whose storage a
/// pending delivery still references is never corrupted, then patches the
/// two checksum bytes in place — no parse→mutate→re-serialize round trip.
void patch_checksum_for_address_change(wire::PacketBuffer& tcp_wire,
                                       ip::Ipv4 old_addr, ip::Ipv4 new_addr);

}  // namespace tfo::tcp
