// The paper's replica pair: a primary host and a secondary host running
// the (actively replicated) server application, with the §5/§6 recovery
// procedures. The pair is the two-member ReplicaChain; this facade only
// names its members by their pair roles. This is the public entry point
// most users of the library want; examples/quickstart.cpp shows the full
// flow.
#pragma once

#include <cstddef>
#include <utility>

#include "apps/host.hpp"
#include "core/failover_config.hpp"
#include "core/replica_chain.hpp"

namespace tfo::core {

class ReplicaGroup {
 public:
  ReplicaGroup(apps::Host& primary, apps::Host& secondary, FailoverConfig cfg)
      : chain_({&primary, &secondary}, std::move(cfg)) {}

  /// Starts the fault detectors. Call after the topology is in place.
  void start() { chain_.start(); }

  /// The merge side: the primary until reintegration replaces the pair.
  PrimaryBridge& primary_bridge() { return *chain_.merge_bridge(primary_index()); }
  /// The divert side: the newest member.
  SecondaryBridge& secondary_bridge() {
    return *chain_.divert_bridge(chain_.size() - 1);
  }

  /// Convenience fault injection: crashes the host; the surviving
  /// replica's detector notices and runs the corresponding recovery.
  void crash_primary() { chain_.crash(primary_index()); }
  void crash_secondary() { chain_.crash(chain_.size() - 1); }

  /// Reintegration: after one replica failed and the survivor recovered
  /// (§5 or §6), `recruit` becomes the new secondary
  /// (ReplicaChain::append_tail).
  void reintegrate_secondary(apps::Host& recruit) { chain_.append_tail(recruit); }

  /// The host currently serving the service address.
  apps::Host& current_server() { return *chain_.head(); }

 private:
  /// The last member with a merge bridge: the primary host changes only
  /// when a reintegration gives the survivor one.
  std::size_t primary_index() {
    std::size_t i = chain_.size() - 1;
    while (chain_.merge_bridge(i) == nullptr) --i;
    return i;
  }

  ReplicaChain chain_;
};

}  // namespace tfo::core
