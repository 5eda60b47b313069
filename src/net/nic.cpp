#include "net/nic.hpp"

#include "common/logging.hpp"

namespace tfo::net {

Nic::Nic(sim::Simulator& sim, std::string name, MacAddress mac, NicParams params)
    : sim_(sim),
      name_(std::move(name)),
      mac_(mac),
      params_(params),
      jitter_rng_(params.jitter_seed ^ std::hash<MacAddress>{}(mac)) {}

Nic::~Nic() { detach(); }

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
  // order.
  SimTime target = sim_.now() + static_cast<SimTime>(delay);
  if (target < rx_floor_) target = rx_floor_;
  rx_floor_ = target;
  sim_.schedule_at(target, [this, frame, to_us] {
    if (enabled_ && rx_) rx_(frame, to_us);
  });
}

}  // namespace tfo::net
