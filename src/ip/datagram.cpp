#include "ip/datagram.hpp"

#include "common/checksum.hpp"

namespace tfo::ip {

namespace {
/// Writes the 20-byte header (checksum included) for a datagram whose
/// total length is `tot_len` into `h`.
void write_header(std::uint8_t* h, const IpDatagram& d, std::size_t tot_len) {
  std::uint8_t* p = h;
  p = write_u8(p, 0x45);  // version 4, IHL 5
  p = write_u8(p, 0);     // TOS
  p = write_u16(p, static_cast<std::uint16_t>(tot_len));
  p = write_u16(p, d.id);
  p = write_u16(p, 0);  // flags/fragment: never fragmented (MSS <= MTU)
  p = write_u8(p, d.ttl);
  p = write_u8(p, static_cast<std::uint8_t>(d.proto));
  p = write_u16(p, 0);  // checksum placeholder
  p = write_u32(p, d.src.v);
  write_u32(p, d.dst.v);
  const std::uint16_t ck =
      inet_checksum(BytesView(h, IpDatagram::kHeaderBytes));
  write_u16(h + 10, ck);
}
}  // namespace

wire::PacketBuffer IpDatagram::to_wire() {
  const std::size_t tot_len = total_length();
  wire::PacketBuffer w = std::move(payload);
  payload.clear();
  std::uint8_t* h = w.prepend(kHeaderBytes);
  write_header(h, *this, tot_len);
  return w;
}

namespace {
/// Header validation; fills every field except the payload. Returns the
/// trimmed payload length, or nullopt.
std::optional<std::size_t> parse_header(BytesView wire, IpDatagram& d) {
  if (wire.size() < IpDatagram::kHeaderBytes) return std::nullopt;
  if (get_u8(wire, 0) != 0x45) return std::nullopt;  // no options supported
  const std::uint16_t tot_len = get_u16(wire, 2);
  if (tot_len < IpDatagram::kHeaderBytes || tot_len > wire.size()) {
    return std::nullopt;
  }
  if (inet_checksum(wire.subspan(0, IpDatagram::kHeaderBytes)) != 0) {
    return std::nullopt;
  }
  d.id = get_u16(wire, 4);
  d.ttl = get_u8(wire, 8);
  d.proto = static_cast<Proto>(get_u8(wire, 9));
  d.src = Ipv4{get_u32(wire, 12)};
  d.dst = Ipv4{get_u32(wire, 16)};
  return tot_len - IpDatagram::kHeaderBytes;
}
}  // namespace

std::optional<IpDatagram> IpDatagram::parse(const wire::PacketBuffer& wire) {
  IpDatagram d;
  const auto payload_len = parse_header(wire.view(), d);
  if (!payload_len) return std::nullopt;
  // Zero-copy: slice the arriving buffer past the header and drop any
  // Ethernet minimum-frame padding via total_length.
  d.payload = wire;
  d.payload.trim_front(kHeaderBytes);
  d.payload.trim_to(*payload_len);
  return d;
}

}  // namespace tfo::ip
