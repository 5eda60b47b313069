#include "net/nic.hpp"

#include "common/assert.hpp"
#include "common/logging.hpp"

namespace tfo::net {

Nic::Nic(sim::Simulator& sim, std::string name, MacAddress mac, NicParams params)
    : sim_(sim),
      name_(std::move(name)),
      mac_(mac),
      params_(params),
      jitter_rng_(params.jitter_seed ^ std::hash<MacAddress>{}(mac)) {}

Nic::~Nic() {
  // Frames still waiting out rx_processing would be handed up to a dead
  // NIC: their events go with it.
  for (std::size_t i = 0; i < rx_count_; ++i) sim_.cancel(rx_at(i).event);
  detach();
}

void Nic::attach(Medium& medium) {
  detach();
  medium_ = &medium;
  medium_->attach(this);
}

void Nic::detach() {
  if (medium_ != nullptr) {
    medium_->detach(this);
    medium_ = nullptr;
  }
}

void Nic::send(EthernetFrame frame) {
  if (!enabled_ || medium_ == nullptr) return;
  frame.src = mac_;
  // Ethernet minimum frame: pad runt payloads to 46 bytes with zeros, as
  // real hardware does. Receivers recover the true length from the IP
  // total_length field (ARP likewise tolerates trailing padding).
  if (frame.payload.size() < EthernetFrame::kMinPayload) {
    frame.payload.append(EthernetFrame::kMinPayload - frame.payload.size());
  }
  TFO_LOG(kTrace, "nic") << name_ << " tx " << frame.payload.size() << "B -> "
                         << frame.dst.str();
  ++tx_frames_;
  tx_bytes_ += frame.payload.size();
  medium_->transmit(this, std::move(frame));
}

void Nic::deliver(const EthernetFrame& frame) {
  if (!enabled_) return;
  const bool to_us = frame.dst == mac_ || frame.dst.is_broadcast();
  if (!to_us && !promiscuous_) return;
  ++rx_frames_;
  rx_bytes_ += frame.payload.size();
  for (auto& obs : observers_) obs(frame, to_us);
  if (!rx_) return;
  // Charge the host's protocol-processing latency, then hand up the stack.
  SimDuration delay = params_.rx_processing;
  if (params_.rx_jitter > 0) {
    delay += static_cast<SimDuration>(
        jitter_rng_.uniform(0, static_cast<std::uint64_t>(params_.rx_jitter) - 1));
  }
  // Jitter must not reorder deliveries: a NIC hands frames up in arrival
  // order. The floor makes hand-up times non-decreasing, and events at
  // one time run in schedule order, so the hand-ups fire in ring order.
  SimTime target = sim_.now() + static_cast<SimTime>(delay);
  if (target < rx_floor_) target = rx_floor_;
  rx_floor_ = target;
  if (rx_count_ == rx_ring_.size()) {
    // Full: double, unwrapping the live slots to the front.
    std::vector<RxSlot> grown(rx_ring_.empty() ? 8 : rx_ring_.size() * 2);
    for (std::size_t i = 0; i < rx_count_; ++i) grown[i] = std::move(rx_at(i));
    rx_ring_ = std::move(grown);
    rx_head_ = 0;
  }
  RxSlot& slot = rx_at(rx_count_++);
  slot.frame = frame;
  slot.to_us = to_us;
  slot.event = sim_.schedule_at(target, [this] { hand_up(); });
}

void Nic::hand_up() {
  TFO_ASSERT(rx_count_ > 0, "NIC hand-up with an empty rx ring");
  RxSlot& front = rx_at(0);
  const EthernetFrame frame = std::move(front.frame);
  const bool to_us = front.to_us;
  rx_head_ = (rx_head_ + 1) & (rx_ring_.size() - 1);
  --rx_count_;
  if (enabled_ && rx_) rx_(frame, to_us);
}

}  // namespace tfo::net
