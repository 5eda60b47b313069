#include "apps/attacker.hpp"

#include <cstring>

#include "common/bytes.hpp"
#include "common/logging.hpp"
#include "ip/icmp.hpp"
#include "tcp/segment.hpp"

namespace tfo::apps {

using tcp::Flags;

Attacker::Attacker(Host& host, AttackerConfig cfg)
    : host_(host), cfg_(std::move(cfg)), rng_(cfg_.seed) {
  if (cfg_.kinds.empty()) {
    cfg_.kinds = {AttackKind::kBlindRst, AttackKind::kBlindSyn,
                  AttackKind::kBlindData, AttackKind::kAckProbe,
                  AttackKind::kIcmpFrag};
  }
  if (cfg_.hb_spoof_src.is_any()) cfg_.hb_spoof_src = cfg_.spoof_src;
  ctr_injected_ = &host_.obs().registry.counter("attacker.injected");
}

Attacker::~Attacker() { alive_.reset(); }

void Attacker::start() {
  done_ = false;
  end_ = host_.simulator().now() +
         static_cast<SimTime>(cfg_.duration);
  TFO_LOG(kInfo, "attacker") << host_.name() << ": attacking "
                             << cfg_.victim.str() << ":" << cfg_.victim_port
                             << " as " << cfg_.spoof_src.str() << " at "
                             << cfg_.rate << "/s";
  schedule_next();
}

void Attacker::schedule_next() {
  if (host_.simulator().now() >= end_ || cfg_.rate <= 0.0) {
    done_ = true;
    return;
  }
  const SimDuration gap =
      std::max<SimDuration>(1, static_cast<SimDuration>(1e9 / cfg_.rate));
  host_.simulator().schedule_after(gap,
                                   [this, w = std::weak_ptr<bool>(alive_)] {
    if (w.expired()) return;
    inject_one();
    schedule_next();
  });
}

Seq32 Attacker::guess_seq() {
  if (cfg_.seq_hint) {
    const std::uint32_t spread = std::max<std::uint32_t>(cfg_.seq_spread, 1);
    const auto off = static_cast<std::uint32_t>(rng_.uniform(0, 2ull * spread));
    return *cfg_.seq_hint + off - spread;
  }
  // Classic blind sweep: stride the whole space so some guess eventually
  // lands in any window — the defense must hold for the lucky ones too.
  sweep_seq_ += cfg_.seq_stride;
  return sweep_seq_;
}

Seq32 Attacker::guess_ack() {
  if (cfg_.ack_hint) {
    const std::uint32_t spread = std::max<std::uint32_t>(cfg_.seq_spread, 1);
    const auto off = static_cast<std::uint32_t>(rng_.uniform(0, 2ull * spread));
    return *cfg_.ack_hint + off - spread;
  }
  return rng_.next_u32();
}

std::uint16_t Attacker::guess_port() {
  return static_cast<std::uint16_t>(rng_.uniform(cfg_.port_lo, cfg_.port_hi));
}

void Attacker::inject_one() {
  const AttackKind kind = cfg_.kinds[injected_ % cfg_.kinds.size()];
  const std::uint16_t port = guess_port();
  switch (kind) {
    case AttackKind::kBlindRst:
      send_tcp(Flags::kRst, port, guess_seq(), 0, 0);
      break;
    case AttackKind::kBlindSyn:
      send_tcp(Flags::kSyn, port, guess_seq(), 0, 0);
      break;
    case AttackKind::kBlindData:
      send_tcp(Flags::kAck | Flags::kPsh, port, guess_seq(), guess_ack(), 512);
      break;
    case AttackKind::kAckProbe:
      send_tcp(Flags::kAck, port, guess_seq(), guess_ack(), 0);
      break;
    case AttackKind::kIcmpFrag:
      send_icmp(port);
      break;
    case AttackKind::kForgedHeartbeat:
      send_heartbeat();
      break;
  }
  ++injected_;
  ++by_kind_[static_cast<std::size_t>(kind)];
  ctr_injected_->inc();
}

void Attacker::send_tcp(std::uint8_t flags, std::uint16_t src_port, Seq32 seq,
                        Seq32 ack, std::size_t payload_bytes) {
  tcp::TcpSegment seg;
  seg.src_port = src_port;
  seg.dst_port = cfg_.victim_port;
  seg.seq = seq;
  seg.flags = flags;
  if (flags & Flags::kAck) seg.ack = ack;
  seg.window = 65535;
  if (payload_bytes > 0) {
    seg.payload = wire::PacketBuffer::alloc(payload_bytes);
    std::memset(seg.payload.mutable_data(), 0x41, payload_bytes);
  }
  // The IP layer stamps whatever source we claim: blind spoofing.
  host_.ip().send(ip::Proto::kTcp, cfg_.spoof_src, cfg_.victim,
                  seg.take_wire(cfg_.spoof_src, cfg_.victim));
}

void Attacker::send_icmp(std::uint16_t src_port) {
  // Forged "fragmentation needed" quoting victim→client traffic we never
  // saw: the quoted sequence number is a guess, the claimed MTU absurd.
  ip::IcmpMessage msg;
  msg.type = ip::kIcmpDestUnreachable;
  msg.code = ip::kIcmpFragNeeded;
  msg.mtu = cfg_.icmp_mtu;
  msg.quoted_src = cfg_.victim;
  msg.quoted_dst = cfg_.spoof_src;
  msg.quoted_src_port = cfg_.victim_port;
  msg.quoted_dst_port = src_port;
  msg.quoted_seq = static_cast<std::uint32_t>(guess_seq());
  host_.ip().send(ip::Proto::kIcmp, ip::Ipv4::any(), cfg_.victim,
                  wire::PacketBuffer::copy_of(msg.serialize()));
}

void Attacker::send_heartbeat() {
  // Forged liveness: correct shape ("HB", plausible k), wrong key — the
  // nonce chain is seeded with a secret the attacker does not hold, so
  // this must land in fault.hb_auth_failed, never re-arm a deadline.
  const std::uint64_t k =
      static_cast<std::uint64_t>(host_.simulator().now()) +
      rng_.uniform(0, 1'000'000'000ull);
  Bytes b = to_bytes("HB");
  put_u64(b, k);
  put_u64(b, cfg_.hb_seed_guess ^ rng_.next_u64());
  host_.ip().send(ip::Proto::kHeartbeat, cfg_.hb_spoof_src, cfg_.victim,
                  wire::PacketBuffer::copy_of(b));
}

}  // namespace tfo::apps
