// Shared pieces of the attack-soak harness: the off-path adversary
// profile matrix and the oracle-checked scenario runner. Used by
// tests/attack_soak_test.cpp and bench/bench_attack.cpp so the bench
// exercises exactly the profiles the regression tests pin — a red oracle
// in the bench reproduces under the soak test with the same seed.
//
// The threat model (PROTOCOL.md §9): a blind off-path attacker who knows
// the service 4-tuple (addresses, service port, and the deterministic
// ephemeral-port range) but none of the sequence numbers or the
// heartbeat key. The oracles assert the strongest property the RFC 5961
// defenses give: the attack stream is absorbed — challenged, rate
// limited, or dropped at the bridges — while the legitimate transfer
// completes byte-identical with zero attacker-caused teardowns.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "apps/attacker.hpp"
#include "impairment_util.hpp"

namespace tfo::test {

struct AttackProfile {
  std::string name;
  std::vector<apps::AttackKind> kinds;
  double rate = 4000.0;
  /// Informed attackers aim sequence guesses near the live connection's
  /// windows (a partial-information adversary) — the hard case for the
  /// challenge-ACK and spoof-gate paths. Blind attackers sweep.
  bool informed = false;
  /// Also hint the ACK field. Deliberately NOT set for the data-injection
  /// profile: an off-path attacker holding both an in-window sequence AND
  /// an acceptable ACK is indistinguishable from the genuine peer — that
  /// is beyond RFC 5961's threat model (it is what TLS is for). With the
  /// ACK blind, §5.2 must drop every payload whole.
  bool ack_informed = false;
  /// Adds a second injector forging heartbeats at the secondary, spoofed
  /// from the primary's address with a wrong key — the failover-
  /// suppression attack (the run must still fail over on time).
  bool forge_heartbeats = false;
};

inline std::vector<AttackProfile> attack_profiles() {
  using apps::AttackKind;
  return {
      {.name = "blind_rst", .kinds = {AttackKind::kBlindRst}},
      {.name = "informed_rst_syn",
       .kinds = {AttackKind::kBlindRst, AttackKind::kBlindSyn},
       .informed = true},
      {.name = "inject_data",
       .kinds = {AttackKind::kBlindData},
       .informed = true},
      {.name = "ack_probe",
       .kinds = {AttackKind::kAckProbe},
       .informed = true,
       .ack_informed = true},
      {.name = "icmp_hb",
       .kinds = {AttackKind::kIcmpFrag},
       .rate = 2000.0,
       .informed = true,
       .forge_heartbeats = true},
  };
}

/// Counts RSTs that land on one specific local port at `nic` — the only
/// resets that could tear the observed connection down. Spoofed data or
/// ACK probes naming ports with no connection legitimately draw an
/// RFC 793 reset back to the (spoofed) client address; those are inert —
/// the client has no connection on those ports either — and deliberately
/// not counted: the oracle is "no client-visible RST *teardown*", not
/// "the wire is silent".
class ConnRstCounter {
 public:
  ConnRstCounter(sim::Simulator& sim, net::Nic& nic, std::uint16_t local_port) {
    nic.add_observer([this, &sim, local_port, name = nic.name()](
                         const net::EthernetFrame& f, bool to_us) {
      if (!to_us) return;
      const auto rec = apps::FrameTracer::decode(f, to_us, sim.now(), name);
      if (rec.has_tcp && (rec.flags & tcp::Flags::kRst) &&
          rec.dst_port == local_port) {
        ++count_;
      }
    });
  }
  std::uint64_t count() const { return count_; }

 private:
  std::uint64_t count_ = 0;
};

struct AttackRunResult {
  // Oracles, in reporting order.
  bool completed = false;       // transfer finished under attack
  bool stream_intact = false;   // echoed bytes identical (no data poisoning)
  bool no_client_rst = false;   // no RST aimed at the client's connection
  bool no_divergence = false;   // replicas never declared divergent
  bool conn_survived = false;   // the attacked connection was never torn down
  bool attack_engaged = false;  // injections happened and defenses fired

  double transfer_ms = -1;
  std::uint64_t injected = 0;
  std::uint64_t spoof_dropped = 0;
  std::uint64_t challenge_acks = 0;
  std::uint64_t challenge_limited = 0;
  std::uint64_t icmp_rejected = 0;
  std::uint64_t hb_auth_failed = 0;

  bool all_green() const {
    return completed && stream_intact && no_client_rst && no_divergence &&
           conn_survived && attack_engaged;
  }
};

/// One matrix cell: an echo transfer on the replicated LAN with an
/// off-path injector attached to the wire, optionally crashing the
/// primary at one third of the stream. `trace_out`, when non-null,
/// receives a canonical dump of every frame the client saw (for the
/// determinism cross-checks). `capture`, when set, is invoked with each
/// replica host after the run so callers can snapshot registries before
/// the topology is torn down (the bench artifact's hosts[] section).
inline AttackRunResult run_attack_scenario(
    const AttackProfile& prof, std::uint64_t seed, bool fail_primary,
    std::size_t total, std::string* trace_out = nullptr,
    apps::TopologyParams lp = {},
    const std::function<void(apps::Host&)>& capture = nullptr) {
  lp.tcp.max_rto = seconds(5);
  core::FailoverConfig cfg;
  cfg.heartbeat_period = milliseconds(5);
  cfg.failure_timeout = milliseconds(200);
  auto r = make_replicated(lp, cfg);
  auto tracer = trace_out
                    ? std::make_unique<apps::FrameTracer>(r->sim(), r->client().nic())
                    : nullptr;
  apps::Host& mallory = r->add_host("mallory", "10.0.0.66", seed ^ 0xa77ac3);

  const SimTime start = r->sim().now();
  EchoDriver d(r->client(), r->primary().address(), kEchoPort, total, 1500);
  AttackRunResult res;
  if (!run_until(r->sim(), [&] {
        return d.connection().state() == tcp::TcpState::kEstablished;
      }, seconds(30))) {
    return res;
  }
  ConnRstCounter rsts(r->sim(), r->client().nic(),
                      d.connection().key().local_port);

  apps::AttackerConfig ac;
  ac.victim = r->primary().address();
  ac.spoof_src = r->client().address();
  ac.victim_port = kEchoPort;
  ac.kinds = prof.kinds;
  ac.rate = prof.rate;
  ac.duration = seconds(600);
  ac.seed = seed;
  if (prof.informed) {
    // Partial information: the attacker aims near the connection's live
    // windows. Its receive-space hint comes from the primary's RCV.NXT,
    // its send-space (ACK) hint from the client's RCV.NXT.
    const tcp::ConnKey pk{r->primary().address(), kEchoPort,
                          r->client().address(),
                          d.connection().key().local_port};
    if (const auto pc = r->primary().tcp().find(pk)) {
      ac.seq_hint = pc->rcv_nxt_abs();
      ac.seq_spread = 1u << 17;
    }
    if (prof.ack_informed) ac.ack_hint = d.connection().rcv_nxt_abs();
  }
  apps::Attacker attacker(mallory, ac);
  attacker.start();

  std::unique_ptr<apps::Attacker> hb_attacker;
  if (prof.forge_heartbeats) {
    apps::AttackerConfig hc;
    hc.victim = r->secondary().address();
    hc.spoof_src = r->primary().address();
    hc.kinds = {apps::AttackKind::kForgedHeartbeat};
    hc.rate = 1000.0;
    hc.duration = seconds(600);
    hc.seed = seed + 1;
    hb_attacker = std::make_unique<apps::Attacker>(mallory, hc);
    hb_attacker->start();
  }

  if (fail_primary) {
    if (!run_until(r->sim(), [&] { return d.received().size() > total / 3; },
                   seconds(600))) {
      return res;
    }
    r->group->crash_primary();
  }
  if (!run_until(r->sim(), [&] { return d.done(); }, seconds(1200))) {
    return res;
  }
  res.completed = true;
  res.transfer_ms =
      to_milliseconds(static_cast<SimDuration>(r->sim().now() - start));
  res.stream_intact = d.verify();
  res.no_client_rst = rsts.count() == 0;
  res.no_divergence = r->group->primary_bridge().divergences() == 0;
  res.conn_survived = !d.close_reason().has_value();

  res.injected = attacker.injected() + (hb_attacker ? hb_attacker->injected() : 0);
  for (apps::Host* h : {&r->primary(), &r->secondary()}) {
    const auto& reg = h->obs().registry;
    res.spoof_dropped += reg.counter_value("bridge.spoof_dropped");
    res.challenge_acks += reg.counter_value("tcp.challenge_acks");
    res.challenge_limited += reg.counter_value("tcp.challenge_acks_limited");
    res.icmp_rejected += reg.counter_value("tcp.icmp_rejected");
    res.hb_auth_failed += reg.counter_value("fault.hb_auth_failed");
  }
  // Engagement: injections flowed, and — for attackers with enough
  // information to land near the windows — at least one defense visibly
  // fired. (A fully blind sweep may legitimately die entirely at the
  // out-of-window silent-drop path.)
  std::uint64_t defenses = res.spoof_dropped + res.challenge_acks +
                           res.icmp_rejected + res.hb_auth_failed;
  res.attack_engaged =
      res.injected > 0 &&
      (!(prof.informed || prof.forge_heartbeats) || defenses > 0);

  if (capture) {
    capture(r->primary());
    capture(r->secondary());
    capture(r->client());
  }
  if (trace_out) *trace_out = tracer->dump();
  return res;
}

}  // namespace tfo::test
