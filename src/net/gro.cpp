#include "net/gro.hpp"

#include <cstring>

#include "common/checksum.hpp"

namespace tfo::net {

namespace {

// Raw IPv4/TCP offsets (no-options headers only; anything fancier is
// ineligible and passes through untouched).
constexpr std::size_t kIpHdr = 20;
constexpr std::size_t kTcpHdr = 20;
constexpr std::uint8_t kFlagPsh = 0x08;
constexpr std::uint8_t kFlagAck = 0x10;

std::uint16_t get16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>((p[0] << 8) | p[1]);
}
std::uint32_t get32(const std::uint8_t* p) {
  return (static_cast<std::uint32_t>(p[0]) << 24) |
         (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) | p[3];
}

/// One's-complement sum of the RFC 793 pseudo-header read straight from
/// the IP header bytes (src @12, dst @16).
std::uint32_t pseudo_sum(const std::uint8_t* ip, std::size_t tcp_len) {
  std::uint32_t sum = 0;
  sum += get16(ip + 12);
  sum += get16(ip + 14);
  sum += get16(ip + 16);
  sum += get16(ip + 18);
  sum += 6;  // zero byte + protocol (TCP)
  sum += static_cast<std::uint32_t>(tcp_len) & 0xffff;
  return sum;
}

/// A structurally merge-eligible frame, checksum-verified, with pointers
/// into the frame's own payload storage (valid until the frame moves).
struct Candidate {
  const std::uint8_t* ip = nullptr;   // 20-byte IPv4 header
  const std::uint8_t* tcp = nullptr;  // TCP header + payload
  std::size_t payload_len = 0;        // TCP payload bytes
  std::uint32_t seq = 0;
  std::uint32_t ack = 0;
  std::uint16_t payload_sum = 0;  // folded one's-complement sum of payload
  std::uint16_t window = 0;
  bool psh = false;
};

/// Rotating a one's-complement sum by one byte is ×2^8 mod (2^16 - 1):
/// the contribution of a byte run that lands at an odd offset.
std::uint16_t swap16(std::uint16_t v) {
  return static_cast<std::uint16_t>((v >> 8) | (v << 8));
}

/// Parses a frame into a merge candidate. Returns false when ineligible
/// (must pass through untouched); bumps `bad_checksum` when the only
/// reason is a checksum that does not verify.
bool parse_candidate(const EthernetFrame& f, Candidate& c, GroStats& stats) {
  if (f.type != EtherType::kIpv4) return false;
  const std::uint8_t* p = f.payload.data();
  const std::size_t n = f.payload.size();
  if (n < kIpHdr + kTcpHdr) return false;
  if (p[0] != 0x45) return false;            // IPv4, no IP options
  if (get16(p + 6) != 0) return false;       // no fragmentation
  if (p[9] != 6) return false;               // TCP
  const std::size_t tot_len = get16(p + 2);  // trims Ethernet runt padding
  if (tot_len < kIpHdr + kTcpHdr || tot_len > n) return false;
  const std::uint8_t* tcp = p + kIpHdr;
  const std::size_t tcp_len = tot_len - kIpHdr;
  if ((tcp[12] >> 4) != 5) return false;     // no TCP options (SYN, divert)
  const std::uint8_t flags = tcp[13];
  if (flags != kFlagAck && flags != (kFlagAck | kFlagPsh)) return false;
  if (get16(tcp + 18) != 0) return false;    // urgent pointer unused
  if (tcp_len == kTcpHdr) return false;      // pure ACKs pass through
  // Both checksums must verify before these bytes may be folded into a
  // merged segment whose checksums are recomputed from scratch.
  if (ones_complement_sum(BytesView(p, kIpHdr)) != 0xffff) {
    ++stats.bad_checksum;
    return false;
  }
  // Split the verification sum at the header/payload boundary: the
  // payload's contribution is reused verbatim when the merged segment's
  // checksum is composed (one's-complement sums concatenate, 2^16 ≡ 1).
  const std::uint16_t hdr_sum =
      ones_complement_sum(BytesView(tcp, kTcpHdr), pseudo_sum(p, tcp_len));
  const std::uint16_t payload_sum =
      ones_complement_sum(BytesView(tcp + kTcpHdr, tcp_len - kTcpHdr));
  std::uint32_t total = std::uint32_t{hdr_sum} + payload_sum;
  while (total >> 16) total = (total & 0xffff) + (total >> 16);
  if (total != 0xffff) {
    ++stats.bad_checksum;
    return false;
  }
  c.ip = p;
  c.tcp = tcp;
  c.payload_len = tcp_len - kTcpHdr;
  c.seq = get32(tcp + 4);
  c.ack = get32(tcp + 8);
  c.payload_sum = payload_sum;
  c.window = get16(tcp + 14);
  c.psh = (flags & kFlagPsh) != 0;
  return true;
}

/// True when `c` extends the run headed by `head` whose next expected
/// sequence number is `next_seq`: same flow (MACs, addresses, ports), same
/// ack and window, contiguous payload.
bool continues_run(const EthernetFrame& head_frame, const Candidate& head,
                   std::uint32_t next_seq, const EthernetFrame& f,
                   const Candidate& c) {
  return f.dst == head_frame.dst && f.src == head_frame.src &&
         std::memcmp(c.ip + 12, head.ip + 12, 8) == 0 &&  // src + dst addr
         std::memcmp(c.tcp, head.tcp, 4) == 0 &&          // src + dst port
         c.seq == next_seq && c.ack == head.ack && c.window == head.window;
}

}  // namespace

void gro_coalesce(const GroParams& params, std::vector<RxFrame>&& in,
                  std::vector<RxFrame>& out, GroStats& stats) {
  stats.frames_in += in.size();

  // The active run: indices into `in` plus each member's parsed view
  // (pointers stay valid — frames are not moved until their run flushes).
  std::vector<std::size_t> run;
  std::vector<Candidate> cands;
  std::uint32_t next_seq = 0;
  std::size_t run_payload = 0;

  auto flush = [&] {
    if (run.empty()) return;
    if (run.size() == 1) {
      // Runs of one pass through byte-identical — no re-serialization.
      // Its checksums verified during candidate parsing, so the stack
      // need not walk the payload again (CHECKSUM_UNNECESSARY).
      in[run.front()].frame.checksums_verified = true;
      out.push_back(std::move(in[run.front()]));
      ++stats.frames_out;
      run.clear();
      cands.clear();
      return;
    }
    // Build the merged segment: payloads back to back, then the head's
    // TCP and IP headers prepended with length/flags/checksums patched.
    const Candidate& head = cands.front();
    wire::PacketBuffer buf =
        wire::PacketBuffer::alloc(run_payload, wire::PacketBuffer::kDefaultHeadroom);
    std::uint8_t* w = buf.mutable_data();
    for (const Candidate& c : cands) {
      std::memcpy(w, c.tcp + kTcpHdr, c.payload_len);
      w += c.payload_len;
    }
    const std::size_t tcp_len = kTcpHdr + run_payload;
    std::uint8_t* tcp = buf.prepend(kTcpHdr);
    std::memcpy(tcp, head.tcp, kTcpHdr);
    if (cands.back().psh) tcp[13] |= kFlagPsh;
    write_u16(tcp + 16, 0);
    // Compose the checksum from the members' already-verified payload sums
    // instead of re-walking the merged bytes; a member landing at an odd
    // byte offset contributes its sum rotated one byte.
    std::uint32_t sum = pseudo_sum(head.ip, tcp_len);
    sum += ones_complement_sum(BytesView(tcp, kTcpHdr));
    bool odd = false;
    for (const Candidate& c : cands) {
      sum += odd ? swap16(c.payload_sum) : c.payload_sum;
      odd ^= (c.payload_len & 1) != 0;
    }
    while (sum >> 16) sum = (sum & 0xffff) + (sum >> 16);
    write_u16(tcp + 16, static_cast<std::uint16_t>(~sum & 0xffff));
    std::uint8_t* ip = buf.prepend(kIpHdr);
    std::memcpy(ip, head.ip, kIpHdr);
    write_u16(ip + 2, static_cast<std::uint16_t>(kIpHdr + tcp_len));
    write_u16(ip + 10, 0);
    write_u16(ip + 10, inet_checksum(BytesView(ip, kIpHdr)));

    const RxFrame& head_rx = in[run.front()];
    RxFrame merged;
    merged.frame.dst = head_rx.frame.dst;
    merged.frame.src = head_rx.frame.src;
    merged.frame.type = EtherType::kIpv4;
    merged.frame.payload = std::move(buf);
    // Every member verified and the merged checksums are correct by
    // construction: the stack may skip its own verification pass.
    merged.frame.checksums_verified = true;
    merged.to_us = head_rx.to_us;
    out.push_back(std::move(merged));
    ++stats.frames_out;
    stats.coalesced += run.size() - 1;
    run.clear();
    cands.clear();
  };

  for (std::size_t i = 0; i < in.size(); ++i) {
    Candidate c;
    if (!parse_candidate(in[i].frame, c, stats)) {
      flush();
      out.push_back(std::move(in[i]));
      ++stats.frames_out;
      continue;
    }
    // The run grows only with the very next frame in arrival order: any
    // frame in between has already flushed it.
    if (!run.empty() && run.size() < params.max_merged &&
        run_payload + c.payload_len <= params.max_payload &&
        continues_run(in[run.front()].frame, cands.front(), next_seq,
                      in[i].frame, c)) {
      run.push_back(i);
      cands.push_back(c);
      run_payload += c.payload_len;
      next_seq += static_cast<std::uint32_t>(c.payload_len);
      // PSH marks a delivery boundary: include it, then close the run.
      if (c.psh) flush();
      continue;
    }
    flush();
    run.push_back(i);
    cands.push_back(c);
    run_payload = c.payload_len;
    next_seq = c.seq + static_cast<std::uint32_t>(c.payload_len);
    if (c.psh) flush();  // a PSH segment can head a run but never grow one
  }
  flush();
}

}  // namespace tfo::net
