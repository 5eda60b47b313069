#include "net/nic.hpp"

#include <algorithm>

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
  if (params_.tx_batch_max > 1) {
    // Tx burst ring: stage the frame and flush the whole burst to the
    // medium at the end of the current event (one medium transaction per
    // burst, frames still enter the wire in send order).
    tx_ring_.push_back(std::move(frame));
    if (tx_ring_.size() >= params_.tx_batch_max) {
      flush_tx();
    } else if (!tx_flush_scheduled_) {
      tx_flush_scheduled_ = true;
      sim_.schedule_after(0, [this] { flush_tx(); });
    }
    return;
  }
  ++tx_frames_;
  tx_bytes_ += frame.payload.size();
  medium_->transmit(this, std::move(frame));
}

void Nic::flush_tx() {
  tx_flush_scheduled_ = false;
  if (tx_ring_.empty()) return;
  std::vector<EthernetFrame> burst;
  burst.swap(tx_ring_);
  if (!enabled_ || medium_ == nullptr) return;  // crashed mid-burst: drop
  ++batch_stats_.tx_batches;
  batch_stats_.tx_frames_batched += burst.size();
  for (EthernetFrame& f : burst) {
    ++tx_frames_;
    tx_bytes_ += f.payload.size();
    medium_->transmit(this, std::move(f));
  }
}

void Nic::deliver(const EthernetFrame& frame) {
  if (!enabled_) return;
  const bool to_us = frame.dst == mac_ || frame.dst.is_broadcast();
  if (!to_us && !promiscuous_) return;
  ++rx_frames_;
  rx_bytes_ += frame.payload.size();
  for (auto& obs : observers_) obs(frame, to_us);
  if (!rx_) return;
  if (params_.rx_batch_max > 1) {
    enqueue_rx(frame, to_us);
    return;
  }
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

void Nic::enqueue_rx(const EthernetFrame& frame, bool to_us) {
  RxFrame rx;
  rx.frame = frame;
  rx.to_us = to_us;
  rx_ring_.push_back(std::move(rx));
  if (rx_ring_.size() == 1) {
    // First frame of the batch arms the flush and pays the processing
    // charge; followers within the window ride for free (the batching
    // win). The monotonic floor keeps batch N+1 behind batch N.
    rx_flush_floor_ = sim_.now() + static_cast<SimTime>(params_.rx_processing);
    SimTime target =
        rx_flush_floor_ + static_cast<SimTime>(params_.rx_batch_window);
    if (target < rx_floor_) target = rx_floor_;
    rx_flush_event_ = sim_.schedule_at(target, [this] { flush_rx(); });
    rx_floor_ = target;
  } else if (rx_ring_.size() >= params_.rx_batch_max) {
    // Full ring flushes as soon as the processing charge allows instead
    // of waiting out the rest of the window.
    SimTime target = std::max(sim_.now(), rx_flush_floor_);
    sim_.cancel(rx_flush_event_);
    rx_flush_event_ = sim_.schedule_at(target, [this] { flush_rx(); });
    rx_floor_ = std::max(rx_floor_, target);
  }
}

void Nic::flush_rx() {
  rx_flush_event_ = sim::kNoEvent;
  if (rx_ring_.empty()) return;
  std::vector<RxFrame> batch;
  batch.swap(rx_ring_);
  if (!enabled_ || !rx_) return;
  ++batch_stats_.rx_batches;
  batch_stats_.frames_batched += batch.size();

  // One GRO pass over the batch in arrival order, then delivery.
  std::vector<RxFrame> merged;
  merged.reserve(batch.size());
  gro_coalesce(params_.gro, std::move(batch), merged, gro_stats_);
  for (RxFrame& f : merged) {
    if (!enabled_ || !rx_) break;  // a handler may crash this host mid-batch
    rx_(f.frame, f.to_us);
  }
}

}  // namespace tfo::net
