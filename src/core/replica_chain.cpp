#include "core/replica_chain.hpp"

#include <cstdint>

#include "common/assert.hpp"
#include "common/logging.hpp"

namespace tfo::core {

ReplicaChain::ReplicaChain(std::vector<apps::Host*> hosts, FailoverConfig cfg)
    : cfg_(std::move(cfg)) {
  TFO_ASSERT(hosts.size() >= 2, "a replica chain needs at least two members");
  service_addr_ = hosts.front()->address();

  for (std::size_t i = 0; i < hosts.size(); ++i) {
    Member m;
    m.host = hosts[i];
    // Construction order fixes tap precedence: the merge bridge's
    // outbound tap must consume client-bound traffic before the divert
    // bridge's tap would.
    if (i + 1 < hosts.size()) {
      m.merge = make_merge(*m.host, hosts[i + 1]->address());
      if (i > 0) m.merge->set_upstream(hosts[i - 1]->address());
    }
    if (i > 0) {
      m.divert = make_divert(*m.host);
      // Initial upstream: i-1; the head is addressed by the service
      // address (== its interface address initially).
      m.divert->set_divert_to(i == 1 ? service_addr_ : hosts[i - 1]->address());
    }
    m.mesh = std::make_unique<HeartbeatMesh>(*m.host, cfg_.heartbeat_period,
                                             cfg_.failure_timeout,
                                             cfg_.hb_auth_seed);
    members_.push_back(std::move(m));
  }
  // Full-mesh watching: any member's detector may be first to notice.
  for (std::size_t i = 0; i < members_.size(); ++i) {
    for (std::size_t j = i + 1; j < members_.size(); ++j) watch_each_other(i, j);
  }
}

std::unique_ptr<PrimaryBridge> ReplicaChain::make_merge(apps::Host& host,
                                                        ip::Ipv4 downstream) const {
  return std::make_unique<PrimaryBridge>(host, downstream, cfg_);
}

std::unique_ptr<SecondaryBridge> ReplicaChain::make_divert(apps::Host& host) const {
  return std::make_unique<SecondaryBridge>(host, service_addr_, cfg_);
}

void ReplicaChain::watch_each_other(std::size_t a, std::size_t b) {
  // 32-bit indices keep each callback within std::function's inline
  // buffer: no heap allocation per watched peer.
  const auto ia = static_cast<std::uint32_t>(a);
  const auto ib = static_cast<std::uint32_t>(b);
  members_[a].mesh->watch(members_[b].host->address(),
                          [this, ia, ib] { on_member_failed(ia, ib); });
  members_[b].mesh->watch(members_[a].host->address(),
                          [this, ia, ib] { on_member_failed(ib, ia); });
}

void ReplicaChain::start() {
  for (auto& m : members_) m.mesh->start();
}

std::size_t ReplicaChain::alive_count() const {
  std::size_t n = 0;
  for (const auto& m : members_) n += m.alive ? 1 : 0;
  return n;
}

apps::Host* ReplicaChain::head() const {
  for (const auto& m : members_) {
    if (m.alive) return m.host;
  }
  return nullptr;
}

void ReplicaChain::crash(std::size_t index) { members_.at(index).host->fail(); }

void ReplicaChain::append_tail(apps::Host& recruit) {
  TFO_ASSERT(!recruit.failed(), "cannot append a failed host");
  const std::size_t tail = prev_alive(members_.size());
  TFO_ASSERT(tail < members_.size(), "no live member to append behind");
  const std::size_t up = prev_alive(tail);
  Member& t = members_[tail];
  TFO_ASSERT(t.host != &recruit, "the recruit must be a different host");
  TFO_LOG(kInfo, "chain") << "appending " << recruit.name() << " behind "
                          << t.host->name();

  if (t.merge) {
    // Solo since its downstream died (§6): connections created from now
    // on merge with the recruit; solo connections stay solo.
    t.merge->set_downstream(recruit.address());
  } else {
    // The tail has been running without a downstream: a fresh merge
    // bridge, with the connections it already carries exempt. Its tap
    // must see client-bound output before a divert tap re-aims it, so a
    // divert bridge still in use is rebuilt behind it.
    const bool rebuild_divert = t.divert && !t.divert->taken_over();
    if (rebuild_divert) t.divert.reset();
    t.merge = make_merge(*t.host, recruit.address());
    t.merge->exclude_existing_connections();
    if (up < members_.size()) t.merge->set_upstream(upstream_addr(up));
    if (rebuild_divert) {
      t.divert = make_divert(*t.host);
      t.divert->set_divert_to(upstream_addr(up));
    }
  }

  Member m;
  m.host = &recruit;
  m.divert = make_divert(recruit);
  m.divert->set_divert_to(upstream_addr(tail));
  m.mesh = std::make_unique<HeartbeatMesh>(recruit, cfg_.heartbeat_period,
                                           cfg_.failure_timeout, cfg_.hb_auth_seed);
  members_.push_back(std::move(m));
  const std::size_t r = members_.size() - 1;
  for (std::size_t i = 0; i < r; ++i) {
    if (members_[i].alive) watch_each_other(i, r);
  }
  members_[r].mesh->start();
}

std::size_t ReplicaChain::prev_alive(std::size_t index) const {
  for (std::size_t i = index; i-- > 0;) {
    if (members_[i].alive) return i;
  }
  return members_.size();
}

std::size_t ReplicaChain::next_alive(std::size_t index) const {
  for (std::size_t i = index + 1; i < members_.size(); ++i) {
    if (members_[i].alive) return i;
  }
  return members_.size();
}

ip::Ipv4 ReplicaChain::upstream_addr(std::size_t i) const {
  // The head is reached via the (possibly taken-over) service address.
  return prev_alive(i) == members_.size() ? service_addr_ : members_[i].host->address();
}

void ReplicaChain::on_member_failed(std::size_t observer, std::size_t dead) {
  // A crashed member's own timers keep running in the simulation; its
  // "detections" (it hears nobody) must not poison the membership view.
  if (!members_[observer].alive || members_[observer].host->failed()) return;
  if (!members_[dead].alive) return;  // already handled (fail-stop model)
  members_[dead].alive = false;
  TFO_LOG(kInfo, "chain") << "member " << dead << " ("
                          << members_[dead].host->name() << ") failed; "
                          << alive_count() << " remain";
  for (std::size_t i = 0; i < members_.size(); ++i) {
    if (members_[i].alive) reconfigure(i);
  }
}

void ReplicaChain::reconfigure(std::size_t i) {
  Member& m = members_[i];
  const std::size_t up = prev_alive(i);
  const std::size_t down = next_alive(i);

  if (up == members_.size()) {
    // This member is now the head.
    if (m.divert && !m.divert->taken_over()) {
      // §5 takeover of the service address, plus rekeying the merge
      // bridge's connection table into the service address space.
      m.divert->take_over();
      if (m.merge) {
        m.merge->rekey_local(m.host->address(), service_addr_);
        m.merge->set_upstream(std::nullopt);
      }
    }
  } else {
    // The upstream may have moved closer: re-aim diversion and merged
    // emission.
    if (m.divert) m.divert->set_divert_to(upstream_addr(up));
    if (m.merge) m.merge->set_upstream(upstream_addr(up));
  }

  if (m.merge) {
    if (down == members_.size()) {
      // Became the tail: finish any pending merges solo (§6).
      if (!m.merge->secondary_failed()) m.merge->on_secondary_failed();
    } else if (!m.merge->secondary_failed()) {
      m.merge->set_downstream(members_[down].host->address());
    }
  }
}

}  // namespace tfo::core
