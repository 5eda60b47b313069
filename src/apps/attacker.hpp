// Off-path adversary (the RFC 5961 threat model): a host that injects
// spoofed segments it has no business sending — it never sees the
// victim's traffic, so every sequence number, port, and nonce is a
// guess. Attachable to any topology (shared medium or behind a router);
// the IP layer stamps whatever source address the attacker claims, which
// is exactly the blind-spoofing capability the hardening in src/tcp and
// src/core must withstand.
//
// Attack repertoire:
//   * blind RST sweeps — teardown attempts striding the sequence space
//     (RFC 5961 §3: only an exact RCV.NXT match may kill a connection);
//   * blind SYNs — in-window SYNs against synchronized connections
//     (§4: must elicit a challenge ACK, never a teardown);
//   * blind data injection — payload at guessed offsets (§5 ACK check
//     plus receive-window check dispose of it);
//   * ACK-window probing — pure ACKs sweeping the ACK space to locate
//     SND.UNA (§5.2: old ACKs die silently, future ACKs are challenged);
//   * forged ICMP fragmentation-needed — PMTUD quench attacks (the TCP
//     layer validates the quoted sequence against in-flight data and
//     clamps at min_pmtu);
//   * forged heartbeats — fault-detector liveness spoofing with a wrong
//     nonce seed (fault.hb_auth_failed).
//
// Everything is driven by a seeded Rng: the same config and seed inject
// the identical attack stream, so same-seed runs stay bit-identical with
// an attacker in the topology.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "apps/host.hpp"
#include "common/rng.hpp"
#include "common/time.hpp"

namespace tfo::apps {

enum class AttackKind : std::uint8_t {
  kBlindRst = 0,
  kBlindSyn,
  kBlindData,
  kAckProbe,
  kIcmpFrag,
  kForgedHeartbeat,
};
inline constexpr std::size_t kAttackKinds = 6;

struct AttackerConfig {
  /// Destination of the injected traffic (e.g. the service address).
  ip::Ipv4 victim;
  /// Claimed source — the endpoint being impersonated (e.g. the client).
  ip::Ipv4 spoof_src;
  /// Server-side port of the connections under attack.
  std::uint16_t victim_port = 80;
  /// Claimed-source port guessing range. The deterministic ephemeral
  /// allocator hands out ports from 49152 up, so a narrow range here
  /// models an attacker that has already guessed the 4-tuple — the
  /// hardest case for the sequence-number defenses.
  std::uint16_t port_lo = 49152;
  std::uint16_t port_hi = 49160;

  /// Attacks to run; injections cycle through this list. Empty means
  /// every kind except forged heartbeats.
  std::vector<AttackKind> kinds;

  /// Injection rate (segments/s) and attack window from start().
  double rate = 2000.0;
  SimDuration duration = seconds(1);

  /// Blind sweeps stride the 32-bit sequence space by this much per
  /// injection (the classic windows-per-scan RST attack shape).
  std::uint32_t seq_stride = 8192;
  /// When set, guesses cluster uniformly within ±seq_spread of the hint
  /// instead of sweeping — models a partially informed attacker.
  std::optional<Seq32> seq_hint;
  std::uint32_t seq_spread = 1u << 20;
  /// Separate hint for the ACK field (the victim's *send* space is a
  /// different sequence circle than its receive space). Unset: random.
  std::optional<Seq32> ack_hint;

  /// Claimed source for forged heartbeats (a replica address); any()
  /// disables nothing — it is simply what the forgery claims. The nonce
  /// is derived from hb_seed_guess, which a real attacker does not know.
  ip::Ipv4 hb_spoof_src;
  std::uint64_t hb_seed_guess = 0xbad5eed;

  /// MTU claimed by forged ICMP fragmentation-needed messages.
  std::uint32_t icmp_mtu = 68;

  std::uint64_t seed = 99;
};

class Attacker {
 public:
  Attacker(Host& host, AttackerConfig cfg);
  Attacker(const Attacker&) = delete;
  Attacker& operator=(const Attacker&) = delete;
  ~Attacker();

  /// Begins injecting at the current sim time.
  void start();
  bool done() const { return done_; }

  std::uint64_t injected() const { return injected_; }
  std::uint64_t injected(AttackKind k) const {
    return by_kind_[static_cast<std::size_t>(k)];
  }

 private:
  void schedule_next();
  void inject_one();
  Seq32 guess_seq();
  Seq32 guess_ack();
  std::uint16_t guess_port();
  void send_tcp(std::uint8_t flags, std::uint16_t src_port, Seq32 seq, Seq32 ack,
                std::size_t payload_bytes);
  void send_icmp(std::uint16_t src_port);
  void send_heartbeat();

  Host& host_;
  AttackerConfig cfg_;
  Rng rng_;
  SimTime end_ = 0;
  bool done_ = true;
  std::uint64_t injected_ = 0;
  std::array<std::uint64_t, kAttackKinds> by_kind_{};
  std::uint32_t sweep_seq_ = 0;
  /// Liveness sentinel: scheduled injections may outlive the attacker.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
  obs::Counter* ctr_injected_ = nullptr;
};

}  // namespace tfo::apps
