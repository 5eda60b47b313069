#include "net/medium.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/logging.hpp"
#include "net/nic.hpp"

namespace tfo::net {

// ---------------------------------------------------------------- Shared

SharedMedium::SharedMedium(sim::Simulator& sim, SharedMediumParams params)
    : sim_(sim),
      params_(params),
      impairment_(params.impairment) {}

void SharedMedium::attach(Nic* nic) {
  if (!attached_.insert(nic).second) return;  // already attached
  nics_.push_back(nic);
}

void SharedMedium::detach(Nic* nic) {
  if (attached_.erase(nic) == 0) return;
  // Null the slot in place — a delivery pass may be mid-iteration over
  // nics_, and the erase is batched: one compaction sweep per simulation
  // instant, no matter how many NICs a failover storm detaches.
  *std::find(nics_.begin(), nics_.end(), nic) = nullptr;
  // A full-duplex port's busy state dies with its NIC: a later attach that
  // reuses the allocation must not inherit another port's schedule.
  tx_busy_until_.erase(nic);
  if (!sweep_scheduled_) {
    sweep_scheduled_ = true;
    sim_.schedule_after(0, [this] {
      sweep_scheduled_ = false;
      nics_.erase(std::remove(nics_.begin(), nics_.end(), nullptr), nics_.end());
    });
  }
}

bool SharedMedium::is_attached(const Nic* nic) const {
  return attached_.contains(nic);
}

SimDuration SharedMedium::wire_time(const EthernetFrame& f) const {
  const std::uint64_t bits = static_cast<std::uint64_t>(f.wire_bytes()) * 8;
  return static_cast<SimDuration>(bits * 1'000'000'000ull / params_.bandwidth_bps);
}

void SharedMedium::transmit(Nic* sender, EthernetFrame frame) {
  const SimDuration tx = wire_time(frame);
  SimTime start = sim_.now();
  if (params_.half_duplex) {
    // One wire: all transmissions serialize against each other.
    if (busy_until_ > start) {
      ++deferrals_;
      start = busy_until_;
    }
    busy_until_ = start + static_cast<SimTime>(tx);
  } else {
    // Switched (full duplex): each sender owns an independent uplink and
    // serializes only against itself.
    SimTime& sender_busy = tx_busy_until_[sender];
    if (sender_busy > start) {
      ++deferrals_;
      start = sender_busy;
    }
    sender_busy = start + static_cast<SimTime>(tx);
  }
  wire_bytes_carried_ += frame.wire_bytes();
  const SimTime arrive =
      start + static_cast<SimTime>(tx) + static_cast<SimTime>(params_.propagation);
  const std::uint32_t slot = in_flight_.put({std::move(frame), sender});
  sim_.schedule_at(arrive, [this, slot] { this->arrive(slot); });
}

void SharedMedium::arrive(std::uint32_t slot) {
  const InFlight f = in_flight_.take(slot);
  if (f.delayed_copy) {
    deliver_copy(f.nic, f.frame, f.tracked);
  } else {
    deliver(f.nic, f.frame);
  }
}

void SharedMedium::deliver(Nic* sender, const EthernetFrame& frame) {
  // Iterate the live roster by index — no per-frame snapshot copy. A
  // receive handler may attach/detach NICs (e.g. failover) mid-pass:
  // detach nulls the slot in place (checked fresh each step, so an
  // earlier receiver detaching — and destroying — a later one is safe),
  // and attaches land beyond `limit`, invisible to this pass like they
  // were to the old snapshot.
  const std::size_t limit = nics_.size();
  // The sender may itself have detached — or been destroyed by a host
  // kill — while the frame was in flight; it is only safe to dereference
  // while still attached. (The raw pointer is still used for the
  // self-delivery comparison, which never dereferences.)
  Nic* live_sender = is_attached(sender) ? sender : nullptr;
  for (std::size_t i = 0; i < limit; ++i) {
    Nic* nic = nics_[i];
    if (nic == sender) continue;
    if (nic == nullptr || !attached_.contains(nic)) {
      ++drops_detached_;
      continue;
    }
    // Targeted loss rules need the sending NIC; with the sender gone the
    // frame is past targeting and falls through to the pipeline.
    if (loss_fn_ && live_sender && loss_fn_(*live_sender, *nic, frame)) continue;
    const Impairment::Plan plan = impairment_.plan(live_sender, *nic, frame);
    for (const Impairment::Copy& copy : plan) {
      if (copy.extra_delay <= 0 && !copy.corrupted) {
        deliver_copy(nic, frame, plan.tracked);
        continue;
      }
      EthernetFrame f = copy.corrupted ? impairment_.corrupt_frame(frame) : frame;
      if (copy.extra_delay <= 0) {
        deliver_copy(nic, f, plan.tracked);
      } else {
        const std::uint32_t slot =
            in_flight_.put({std::move(f), nic, /*delayed_copy=*/true, plan.tracked});
        sim_.schedule_after(copy.extra_delay, [this, slot] { arrive(slot); });
      }
    }
  }
}

void SharedMedium::deliver_copy(Nic* receiver, const EthernetFrame& frame,
                                bool tracked) {
  // Delayed copies resolve the receiver again at their own delivery time.
  if (!is_attached(receiver)) {
    ++drops_detached_;
    if (tracked) impairment_.note_detached();
    return;
  }
  if (tracked) impairment_.note_delivered();
  receiver->deliver(frame);
}

// ---------------------------------------------------------- PointToPoint

PointToPointLink::PointToPointLink(sim::Simulator& sim, PointToPointParams params)
    : sim_(sim),
      params_(params),
      impairment_(params.impairment) {}

void PointToPointLink::attach(Nic* nic) {
  if (ends_[0] == nullptr) {
    ends_[0] = nic;
  } else if (ends_[1] == nullptr) {
    ends_[1] = nic;
  } else {
    TFO_ASSERT(false, "PointToPointLink supports exactly two endpoints");
  }
}

void PointToPointLink::detach(Nic* nic) {
  for (auto& end : ends_) {
    if (end == nic) end = nullptr;
  }
}

SimDuration PointToPointLink::wire_time(const EthernetFrame& f) const {
  const std::uint64_t bits = static_cast<std::uint64_t>(f.wire_bytes()) * 8;
  return static_cast<SimDuration>(bits * 1'000'000'000ull / params_.bandwidth_bps);
}

void PointToPointLink::transmit(Nic* sender, EthernetFrame frame) {
  int side = -1;
  if (sender == ends_[0]) side = 0;
  if (sender == ends_[1]) side = 1;
  TFO_ASSERT(side >= 0, "transmit from NIC not attached to link");
  Nic* peer = ends_[1 - side];
  if (peer == nullptr) return;

  Direction& dir = dir_[side];
  const Impairment::Plan plan = impairment_.plan(sender, *peer, frame);
  if (plan.empty()) {
    ++drops_loss_;
    return;
  }
  const SimDuration tx = wire_time(frame);
  const SimTime start = std::max(sim_.now(), dir.busy_until);
  bool occupied_wire = false;
  for (const Impairment::Copy& copy : plan) {
    // Each copy occupies a queue slot until its own arrival.
    if (dir.in_flight >= params_.queue_limit) {
      ++drops_queue_;
      if (plan.tracked) impairment_.note_detached();
      continue;
    }
    if (!occupied_wire) {
      dir.busy_until = start + static_cast<SimTime>(tx);
      occupied_wire = true;
    }
    ++dir.in_flight;
    EthernetFrame f = copy.corrupted ? impairment_.corrupt_frame(frame) : frame;
    const SimTime arrive = dir.busy_until + static_cast<SimTime>(params_.propagation) +
                           static_cast<SimTime>(copy.extra_delay);
    const std::uint32_t slot = in_flight_.put({std::move(f), side, plan.tracked});
    sim_.schedule_at(arrive, [this, slot] { this->arrive(slot); });
  }
}

void PointToPointLink::arrive(std::uint32_t slot) {
  // The peer is resolved at delivery time, not at transmit: the NIC at
  // the far end may detach — or be destroyed by a host kill — while the
  // frame is in flight, and a frame must never land on a dead endpoint.
  const InFlight f = in_flight_.take(slot);
  --dir_[f.side].in_flight;
  Nic* receiver = ends_[1 - f.side];
  if (receiver == nullptr) {
    ++drops_detached_;
    if (f.tracked) impairment_.note_detached();
    return;
  }
  if (f.tracked) impairment_.note_delivered();
  receiver->deliver(f.frame);
}

}  // namespace tfo::net
