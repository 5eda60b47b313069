// Shared pieces of the adversarial-soak harness: the impairment profile
// matrix, the receiver-scoping predicate, and the oracles that every
// impaired run must satisfy. Used by tests/impairment_soak_test.cpp and
// bench/bench_impairment.cpp so the bench exercises exactly the profiles
// the regression tests pin.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "apps/trace.hpp"
#include "failover_fixture.hpp"
#include "net/impairment.hpp"
#include "tcp/segment.hpp"

namespace tfo::test {

/// Counts TCP RSTs a NIC receives (addressed frames only). No bridge- or
/// impairment-fabricated segment may ever reset a healthy client.
class RstCounter {
 public:
  explicit RstCounter(sim::Simulator& sim, net::Nic& nic) {
    nic.add_observer([this, &sim, name = nic.name()](const net::EthernetFrame& f,
                                                     bool to_us) {
      if (!to_us) return;
      const auto rec = apps::FrameTracer::decode(f, to_us, sim.now(), name);
      if (rec.has_tcp && (rec.flags & tcp::Flags::kRst)) ++count_;
    });
  }
  std::uint64_t count() const { return count_; }

 private:
  std::uint64_t count_ = 0;
};

/// Frames whose corruption the receive path must have caught: TCP segments
/// failing their pseudo-header checksum plus frames rejected by IP header
/// validation (`datagrams_parse_failed` never counts routing drops, so the
/// promiscuous secondary's snooping does not pollute it).
inline std::uint64_t checksum_rejects(Replicated& r) {
  std::uint64_t n = 0;
  for (apps::Host* h : {&r.client(), &r.primary(), &r.secondary()}) {
    n += h->obs().registry.counter_value("tcp.segments_malformed");
    n += h->ip().datagrams_parse_failed();
  }
  return n;
}

/// Restricts impairment to frames the receiving NIC will actually process:
/// corrupting a copy the NIC filters at L2 exercises nothing, and ARP
/// carries no checksum for the receive path to reject.
inline bool processed_by(const net::Nic* /*sender*/, const net::Nic& rx,
                         const net::EthernetFrame& f) {
  if (f.type != net::EtherType::kIpv4) return false;
  return rx.promiscuous() || f.dst == rx.mac() || f.dst.is_broadcast();
}

struct ImpairmentProfile {
  std::string name;
  net::ImpairmentParams imp;
};

/// The canonical profile matrix: uniform loss light/heavy, bursty
/// Gilbert–Elliott loss, duplication, reorder jitter, single-byte
/// corruption, and a combined "chaos" profile.
inline std::vector<ImpairmentProfile> impairment_profiles() {
  net::ImpairmentParams uniform2;
  uniform2.loss = 0.02;

  net::ImpairmentParams uniform10;
  uniform10.loss = 0.10;

  net::ImpairmentParams burst;
  burst.gilbert.p_enter_bad = 0.02;
  burst.gilbert.p_exit_bad = 0.25;
  burst.gilbert.loss_good = 0.0;
  burst.gilbert.loss_bad = 0.8;

  net::ImpairmentParams dup;
  dup.duplicate = 0.05;
  dup.duplicate_delay = milliseconds(1);

  net::ImpairmentParams reorder;
  reorder.reorder = 0.2;
  reorder.reorder_delay = milliseconds(3);

  net::ImpairmentParams corrupt;
  corrupt.corrupt = 0.02;
  corrupt.corrupt_max_bytes = 1;  // single flips: always checksum-detectable

  net::ImpairmentParams chaos;
  chaos.loss = 0.01;
  chaos.gilbert.p_enter_bad = 0.01;
  chaos.gilbert.p_exit_bad = 0.3;
  chaos.gilbert.loss_bad = 0.6;
  chaos.duplicate = 0.03;
  chaos.duplicate_delay = milliseconds(2);
  chaos.reorder = 0.1;
  chaos.reorder_delay = milliseconds(2);
  chaos.corrupt = 0.01;
  chaos.corrupt_max_bytes = 1;

  return {{"uniform2", uniform2}, {"uniform10", uniform10}, {"burst", burst},
          {"dup5", dup},          {"reorder20", reorder},   {"corrupt2", corrupt},
          {"chaos", chaos}};
}

}  // namespace tfo::test
