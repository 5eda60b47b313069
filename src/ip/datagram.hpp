// IPv4 datagrams: structured form plus wire serialization with a real
// RFC 791 header checksum.
#pragma once

#include <cstdint>
#include <optional>

#include "common/bytes.hpp"
#include "ip/addr.hpp"
#include "wire/packet_buffer.hpp"

namespace tfo::ip {

/// IP protocol numbers the stack demultiplexes.
enum class Proto : std::uint8_t {
  /// Control messages (fragmentation-needed for PMTUD; see ip/icmp.hpp).
  kIcmp = 1,
  kTcp = 6,
  /// Fault-detector heartbeats (an unassigned experimental number).
  kHeartbeat = 200,
  /// Host-route advertisements for routed takeover (ip/route_advert.hpp).
  kRouteAdvert = 201,
};

struct IpDatagram {
  Ipv4 src;
  Ipv4 dst;
  Proto proto = Proto::kTcp;
  std::uint8_t ttl = 64;
  std::uint16_t id = 0;
  /// Shared wire buffer: on rx this is a zero-copy slice of the frame the
  /// datagram arrived in; on tx its headroom receives the IP header.
  wire::PacketBuffer payload;

  static constexpr std::size_t kHeaderBytes = 20;

  std::size_t total_length() const { return kHeaderBytes + payload.size(); }

  /// Serializes header (with its checksum) + payload: prepends the IP
  /// header into the payload buffer's headroom (in place when the storage
  /// is exclusively owned) and returns the buffer. Consumes the payload —
  /// the datagram's payload is empty afterwards.
  wire::PacketBuffer to_wire();

  /// Parses a wire datagram; verifies the header checksum and length.
  /// Returns nullopt on malformed input. Zero-copy: the returned
  /// datagram's payload is a slice of `wire`'s storage (trimmed to
  /// total_length, so Ethernet minimum-frame padding is dropped here).
  static std::optional<IpDatagram> parse(const wire::PacketBuffer& wire);
};

}  // namespace tfo::ip
