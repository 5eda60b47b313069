#include "core/fault_detector.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace tfo::core {

namespace {

std::uint64_t hb_mix(std::uint64_t x) {
  // splitmix64 finalizer: cheap, deterministic, and — keyed with a seed
  // the attacker does not hold — unguessable enough for a simulation.
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t hb_nonce(std::uint64_t seed, ip::Ipv4 sender, std::uint64_t k) {
  // Folding the sender address prevents reflection: a captured P→S
  // heartbeat replayed back at P verifies against S's address, not P's.
  return hb_mix(seed ^ hb_mix(sender.v) ^ hb_mix(k));
}

constexpr std::size_t kHbBytes = 18;  // "HB" + k:u64 + nonce:u64

/// Built straight into a pooled buffer with headroom, so the IP header
/// is prepended in place and a heartbeat costs no heap allocation.
wire::PacketBuffer hb_payload(std::uint64_t seed, ip::Ipv4 sender, std::uint64_t k) {
  wire::PacketBuffer b = wire::PacketBuffer::alloc(kHbBytes);
  std::uint8_t* p = write_u8(write_u8(b.mutable_data(), 'H'), 'B');
  write_u64(write_u64(p, k), hb_nonce(seed, sender, k));
  return b;
}

enum class HbCheck { kOk, kStale, kBad };

/// Validates an inbound heartbeat against the nonce chain and the
/// caller's anti-replay high-water mark; advances the mark on success.
HbCheck hb_verify(std::uint64_t seed, const ip::IpDatagram& d, std::uint64_t& expect_k) {
  const BytesView pl(d.payload);
  if (pl.size() < kHbBytes || pl[0] != 'H' || pl[1] != 'B') return HbCheck::kBad;
  const std::uint64_t k = get_u64(pl, 2);
  if (k < expect_k) return HbCheck::kStale;  // replayed, duplicated or reordered
  if (get_u64(pl, 10) != hb_nonce(seed, d.src, k)) return HbCheck::kBad;
  expect_k = k + 1;
  return HbCheck::kOk;
}

}  // namespace

HeartbeatMesh::HeartbeatMesh(apps::Host& host, SimDuration period, SimDuration timeout,
                             std::uint64_t auth_seed)
    : host_(host),
      period_(period),
      timeout_(timeout),
      auth_seed_(auth_seed),
      send_timer_(host.simulator()) {
  auto& reg = host_.obs().registry;
  ctr_sent_ = &reg.counter("fd.heartbeats_sent");
  ctr_received_ = &reg.counter("fd.heartbeats_received");
  ctr_auth_failed_ = &reg.counter("fault.hb_auth_failed");
  ctr_stale_ = &reg.counter("fault.hb_stale");
  host_.ip().register_protocol(
      ip::Proto::kHeartbeat,
      [this](const ip::IpDatagram& d, const ip::RxMeta&) {
        if (!running_) return;
        for (auto& peer : peers_) {
          if (peer->addr == d.src && !peer->declared) {
            if (const HbCheck c = hb_verify(auth_seed_, d, peer->expect_k);
                c != HbCheck::kOk) {
              // Forged, replayed, or reflected: it must not refresh
              // liveness (a forger could otherwise mask a dead peer).
              ctr_auth_failed_->inc();
              if (c == HbCheck::kStale) ctr_stale_->inc();
              return;
            }
            ctr_received_->inc();
            arm(*peer);
            return;
          }
        }
      });
}

HeartbeatMesh::~HeartbeatMesh() {
  // The host outlives the mesh, as it does the bridges; its protocol
  // table must not keep a handler that reaches into this object.
  host_.ip().register_protocol(ip::Proto::kHeartbeat,
                               [](const ip::IpDatagram&, const ip::RxMeta&) {});
}

void HeartbeatMesh::watch(ip::Ipv4 peer, std::function<void()> on_failed) {
  peers_.push_back(
      std::make_unique<Peer>(*this, peer, std::move(on_failed)));
  if (!running_) return;
  // A peer registered after the mesh started (a recruit) would never get
  // a deadline until its first heartbeat arrived — a permanently silent
  // peer would go undetected. Arm it now, and wake an idle sender.
  arm(*peers_.back());
  if (!send_timer_.armed()) send_heartbeats();
}

void HeartbeatMesh::start() {
  running_ = true;
  send_heartbeats();
  for (auto& peer : peers_) arm(*peer);
}

void HeartbeatMesh::stop() {
  running_ = false;
  send_timer_.stop();
  for (auto& peer : peers_) peer->deadline.stop();
}

bool HeartbeatMesh::peer_failed(ip::Ipv4 peer) const {
  for (const auto& p : peers_) {
    if (p->addr == peer) return p->declared;
  }
  return false;
}

void HeartbeatMesh::send_heartbeats() {
  if (!running_) return;
  // k is the simulation clock: monotonic for the life of the host, so a
  // peer's anti-replay mark never needs resetting.
  const std::uint64_t k = static_cast<std::uint64_t>(host_.simulator().now());
  for (const auto& peer : peers_) {
    if (!peer->declared) {
      ctr_sent_->inc();
      host_.ip().send(ip::Proto::kHeartbeat, ip::Ipv4::any(), peer->addr,
                      hb_payload(auth_seed_, host_.address(), k));
    }
  }
  send_timer_.start(period_, [this] { send_heartbeats(); });
}

void HeartbeatMesh::arm(Peer& peer) {
  // `peer` lives in stable unique_ptr storage (see peers_), so the raw
  // pointer stays valid across later watch() calls. It is the callback's
  // only capture: the mesh is reached through it, which keeps the
  // scheduler event allocation-free (sim/timer.hpp).
  Peer* p = &peer;
  peer.deadline.start(timeout_, [p] { p->mesh->declare_failed(*p); });
}

void HeartbeatMesh::declare_failed(Peer& peer) {
  if (peer.declared) return;
  peer.declared = true;
  if (std::all_of(peers_.begin(), peers_.end(),
                  [](const auto& q) { return q->declared; })) {
    send_timer_.stop();
  }
  TFO_LOG(kInfo, "fd") << host_.name() << " declares peer "
                       << peer.addr.str() << " FAILED";
  host_.obs().timeline.record(host_.simulator().now(),
                              obs::EventKind::kPeerDeclaredFailed, {},
                              "peer=" + peer.addr.str());
  if (peer.on_failed) peer.on_failed();
}

}  // namespace tfo::core
