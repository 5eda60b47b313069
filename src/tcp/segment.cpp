#include "tcp/segment.hpp"

#include <sstream>

#include "common/checksum.hpp"

namespace tfo::tcp {

namespace {

constexpr std::uint8_t kOptEnd = 0;
constexpr std::uint8_t kOptNop = 1;
constexpr std::uint8_t kOptMss = 2;
constexpr std::uint8_t kOptMigrateFrom = 252;  // experimental (RFC 4727 range)
constexpr std::uint8_t kOptOrigDst = 253;      // experimental (RFC 4727 range)

/// One's-complement sum of the RFC 793 pseudo-header, computed directly
/// from the field values — no 12-byte scratch allocation per segment.
std::uint32_t pseudo_header_sum(ip::Ipv4 src, ip::Ipv4 dst,
                                std::size_t tcp_len) {
  std::uint32_t sum = 0;
  sum += src.v >> 16;
  sum += src.v & 0xffff;
  sum += dst.v >> 16;
  sum += dst.v & 0xffff;
  sum += 6;  // zero byte + protocol (TCP)
  sum += static_cast<std::uint32_t>(tcp_len) & 0xffff;
  while (sum >> 16) sum = (sum & 0xffff) + (sum >> 16);
  return sum;
}

/// Writes the TCP header (checksum placeholder zero) for `s` into `h`.
void write_header(std::uint8_t* h, const TcpSegment& s, std::size_t hdr) {
  std::uint8_t* p = h;
  p = write_u16(p, s.src_port);
  p = write_u16(p, s.dst_port);
  p = write_u32(p, s.seq);
  p = write_u32(p, s.ack);
  p = write_u8(p, static_cast<std::uint8_t>((hdr / 4) << 4));  // data offset
  p = write_u8(p, s.flags);
  p = write_u16(p, s.window);
  p = write_u16(p, 0);  // checksum placeholder
  p = write_u16(p, 0);  // urgent pointer (unused)
  if (s.mss) {
    p = write_u8(p, kOptMss);
    p = write_u8(p, 4);
    p = write_u16(p, *s.mss);
  }
  if (s.orig_dst) {
    p = write_u8(p, kOptOrigDst);
    p = write_u8(p, 6);
    p = write_u32(p, s.orig_dst->v);
  }
  if (s.migrate_from) {
    p = write_u8(p, kOptMigrateFrom);
    p = write_u8(p, 6);
    p = write_u32(p, s.migrate_from->v);
  }
  while (p < h + hdr) p = write_u8(p, kOptEnd);
}

/// Checksums a serialized segment in place: sum over pseudo-header + wire
/// with the placeholder at zero, result written at kChecksumOffset.
void finish_checksum(std::uint8_t* wire, std::size_t wire_len, ip::Ipv4 src_ip,
                     ip::Ipv4 dst_ip) {
  const std::uint32_t ph_sum = pseudo_header_sum(src_ip, dst_ip, wire_len);
  const std::uint16_t ck = static_cast<std::uint16_t>(
      ~ones_complement_sum(BytesView(wire, wire_len), ph_sum) & 0xffff);
  write_u16(wire + TcpSegment::kChecksumOffset, ck);
}

}  // namespace

std::size_t TcpSegment::header_bytes() const {
  std::size_t opts = 0;
  if (mss) opts += 4;
  if (orig_dst) opts += 6;
  if (migrate_from) opts += 6;
  // Pad options to a 32-bit boundary.
  opts = (opts + 3) & ~std::size_t{3};
  return 20 + opts;
}

wire::PacketBuffer TcpSegment::take_wire(ip::Ipv4 src_ip, ip::Ipv4 dst_ip) {
  const std::size_t hdr = header_bytes();
  wire::PacketBuffer w = std::move(payload);
  payload.clear();
  std::uint8_t* h = w.prepend(hdr);
  write_header(h, *this, hdr);
  finish_checksum(h, w.size(), src_ip, dst_ip);
  return w;
}

namespace {

/// Header + options parse; everything except the payload. Returns the
/// header length, or nullopt on malformed input or checksum mismatch.
std::optional<std::size_t> parse_header(BytesView wire, ip::Ipv4 src_ip,
                                        ip::Ipv4 dst_ip, TcpSegment& seg) {
  if (wire.size() < 20) return std::nullopt;
  const std::size_t hdr = static_cast<std::size_t>(wire[12] >> 4) * 4;
  if (hdr < 20 || hdr > wire.size()) return std::nullopt;

  // Verify checksum: one's-complement sum over pseudo-header + segment
  // must fold to 0xffff (i.e. inet checksum over both is 0).
  const std::uint32_t ph_sum = pseudo_header_sum(src_ip, dst_ip, wire.size());
  if (static_cast<std::uint16_t>(~ones_complement_sum(wire, ph_sum) & 0xffff) != 0) {
    return std::nullopt;
  }

  seg.src_port = get_u16(wire, 0);
  seg.dst_port = get_u16(wire, 2);
  seg.seq = get_u32(wire, 4);
  seg.ack = get_u32(wire, 8);
  seg.flags = wire[13];
  seg.window = get_u16(wire, 14);

  std::size_t off = 20;
  while (off < hdr) {
    const std::uint8_t kind = wire[off];
    if (kind == kOptEnd) break;
    if (kind == kOptNop) {
      ++off;
      continue;
    }
    if (off + 1 >= hdr) return std::nullopt;
    const std::uint8_t len = wire[off + 1];
    if (len < 2 || off + len > hdr) return std::nullopt;
    switch (kind) {
      case kOptMss:
        if (len != 4) return std::nullopt;
        seg.mss = get_u16(wire, off + 2);
        break;
      case kOptOrigDst:
        if (len != 6) return std::nullopt;
        seg.orig_dst = ip::Ipv4{get_u32(wire, off + 2)};
        break;
      case kOptMigrateFrom:
        if (len != 6) return std::nullopt;
        seg.migrate_from = ip::Ipv4{get_u32(wire, off + 2)};
        break;
      default:
        break;  // unknown options are skipped
    }
    off += len;
  }
  return hdr;
}

}  // namespace

std::optional<TcpSegment> TcpSegment::parse(const wire::PacketBuffer& wire,
                                            ip::Ipv4 src_ip, ip::Ipv4 dst_ip) {
  TcpSegment seg;
  const auto hdr = parse_header(wire.view(), src_ip, dst_ip, seg);
  if (!hdr) return std::nullopt;
  // Zero-copy: the payload is a slice of the arriving buffer.
  seg.payload = wire;
  seg.payload.trim_front(*hdr);
  return seg;
}

std::string TcpSegment::summary() const {
  std::ostringstream os;
  if (syn()) os << "SYN ";
  if (fin()) os << "FIN ";
  if (rst()) os << "RST ";
  os << "seq=" << seq;
  if (has_ack()) os << " ack=" << ack;
  os << " win=" << window << " len=" << payload.size();
  if (mss) os << " mss=" << *mss;
  if (orig_dst) os << " odst=" << orig_dst->str();
  if (migrate_from) os << " mfrom=" << migrate_from->str();
  return os.str();
}

void patch_checksum_for_address_change(wire::PacketBuffer& tcp_wire,
                                       ip::Ipv4 old_addr, ip::Ipv4 new_addr) {
  if (tcp_wire.size() < 20) return;
  const std::uint16_t old_ck = get_u16(tcp_wire, TcpSegment::kChecksumOffset);
  const std::uint16_t new_ck = checksum_update32(old_ck, old_addr.v, new_addr.v);
  // mutable_data() is the copy-on-write gate: exclusive storage patches in
  // place (the paper's two-byte fix-up); shared storage is unshared first.
  write_u16(tcp_wire.mutable_data() + TcpSegment::kChecksumOffset, new_ck);
}

}  // namespace tfo::tcp
