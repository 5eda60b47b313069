// Simulated Ethernet segments and point-to-point links.
//
// `SharedMedium` models the paper's testbed: a 100 Mbit/s Ethernet
// collision domain. In half-duplex mode (the default) only one frame
// occupies the wire at a time, so diverted secondary→primary reply traffic
// contends with primary→client traffic — the effect behind the paper's
// Figure 5 receive-rate gap. Every attached NIC sees every frame, which is
// what lets the secondary server snoop in promiscuous mode (§3.1).
//
// `PointToPointLink` models a WAN hop (bandwidth, propagation delay,
// random loss, finite queue) for the paper's FTP experiment (Figure 6).
//
// Both media run every delivery through an `Impairment` pipeline
// (net/impairment.hpp): uniform and bursty loss, duplication, reordering
// jitter and byte corruption, per-receiver-targetable and deterministically
// seeded. Random loss is configured there (`impairment.loss`/`.seed`);
// `LossFn` is the deterministic per-frame hook for dropping chosen frames.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/chunked_vector.hpp"
#include "common/rng.hpp"
#include "common/time.hpp"
#include "net/frame.hpp"
#include "net/impairment.hpp"
#include "sim/simulator.hpp"

namespace tfo::net {

class Nic;

/// Decides, per delivery, whether a frame is lost between a sender and one
/// receiver. Per-receiver loss lets tests reproduce the paper's §4 cases
/// ("the secondary server drops the client segment although the primary
/// server receives it"). Consulted before the impairment pipeline.
using LossFn = std::function<bool(const Nic& sender, const Nic& receiver,
                                  const EthernetFrame& frame)>;

/// Frames in flight on a medium, each waiting for its arrival event. The
/// event captures only `[medium, slot]` (16 B), which std::function keeps
/// in its inline buffer, so scheduling an arrival does not allocate; the
/// frame lives here until the event takes it. Freed slots are reused, so
/// once the table has grown to the high-water mark of frames in flight it
/// allocates nothing more.
template <typename T>
class InFlightTable {
 public:
  std::uint32_t put(T entry) {
    std::uint32_t slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
    } else {
      slot = slots_.emplace_back();
    }
    slots_[slot] = std::move(entry);
    return slot;
  }

  /// Moves the entry out and frees its slot. The caller works on its own
  /// copy: a delivery may transmit again and reuse the slot before the
  /// caller is done with the frame.
  T take(std::uint32_t slot) {
    T entry = std::move(slots_[slot]);
    free_.push_back(slot);
    return entry;
  }

  std::size_t in_flight() const { return slots_.size() - free_.size(); }

 private:
  ChunkedVector<T> slots_;
  std::vector<std::uint32_t> free_;
};

/// Common interface: a place NICs attach to and transmit through.
class Medium {
 public:
  virtual ~Medium() = default;
  virtual void attach(Nic* nic) = 0;
  virtual void detach(Nic* nic) = 0;
  virtual void transmit(Nic* sender, EthernetFrame frame) = 0;
};

struct SharedMediumParams {
  /// Link speed in bits per second (paper testbed: 100 Mbit/s).
  std::uint64_t bandwidth_bps = 100'000'000;
  /// One-way propagation delay across the segment.
  SimDuration propagation = microseconds(1);
  /// Half-duplex: the wire serializes all transmissions (hub semantics).
  /// Full-duplex: each sender owns an independent transmit path (switch
  /// semantics without per-port forwarding tables).
  bool half_duplex = true;
  /// Impairment pipeline configuration (loss/duplication/reorder/corrupt).
  ImpairmentParams impairment;
};

class SharedMedium : public Medium {
 public:
  SharedMedium(sim::Simulator& sim, SharedMediumParams params = {});

  void attach(Nic* nic) override;
  void detach(Nic* nic) override;
  void transmit(Nic* sender, EthernetFrame frame) override;

  /// Installs an additional loss rule, consulted before the impairment
  /// pipeline. Return true to drop. Pass nullptr to clear.
  void set_loss_fn(LossFn fn) { loss_fn_ = std::move(fn); }

  /// The delivery impairment pipeline (reconfigure/target/counters).
  Impairment& impairment() { return impairment_; }
  const Impairment& impairment() const { return impairment_; }

  /// Total simulated octet-equivalents put on the wire (contention metric).
  std::uint64_t wire_bytes_carried() const { return wire_bytes_carried_; }
  /// Number of transmissions that had to wait for a busy wire.
  std::uint64_t deferrals() const { return deferrals_; }
  /// Frame copies dropped because the receiver detached (or was destroyed)
  /// while the copy was in flight.
  std::uint64_t drops_detached() const { return drops_detached_; }
  /// Transmissions and delayed copies waiting for their arrival event.
  std::size_t frames_in_flight() const { return in_flight_.in_flight(); }

  const SharedMediumParams& params() const { return params_; }

 private:
  /// A transmission, delivered to every NIC but its sender `nic`, or a
  /// delayed impairment copy, delivered to `nic` alone. One pointer for
  /// both keeps a slot at 56 B.
  struct InFlight {
    EthernetFrame frame;
    Nic* nic = nullptr;
    bool delayed_copy = false;
    bool tracked = false;
  };

  SimDuration wire_time(const EthernetFrame& f) const;
  void arrive(std::uint32_t slot);
  void deliver(Nic* sender, const EthernetFrame& frame);
  void deliver_copy(Nic* receiver, const EthernetFrame& frame, bool tracked);
  bool is_attached(const Nic* nic) const;

  sim::Simulator& sim_;
  SharedMediumParams params_;
  /// Attachment roster. Detach nulls the slot in place instead of erasing
  /// (a delivery pass may be iterating); one deferred compaction sweep per
  /// simulation instant erases the nulls. Membership checks go through
  /// `attached_` — O(1), where the old per-delivery vector scan was O(n)
  /// per frame and dominated 100k-host media.
  std::vector<Nic*> nics_;
  std::unordered_set<const Nic*> attached_;
  bool sweep_scheduled_ = false;
  SimTime busy_until_ = 0;  // half-duplex: the single wire
  std::unordered_map<Nic*, SimTime> tx_busy_until_;  // full-duplex: per port
  LossFn loss_fn_;
  Impairment impairment_;
  InFlightTable<InFlight> in_flight_;
  std::uint64_t wire_bytes_carried_ = 0;
  std::uint64_t deferrals_ = 0;
  std::uint64_t drops_detached_ = 0;
};

struct PointToPointParams {
  std::uint64_t bandwidth_bps = 10'000'000;  // a modest WAN uplink
  SimDuration propagation = milliseconds(10);
  /// Maximum frames queued per direction before tail drop.
  std::size_t queue_limit = 64;
  /// Impairment pipeline configuration (loss/duplication/reorder/corrupt).
  ImpairmentParams impairment;
};

/// Full-duplex two-endpoint link with finite FIFO queues per direction.
class PointToPointLink : public Medium {
 public:
  PointToPointLink(sim::Simulator& sim, PointToPointParams params = {});

  void attach(Nic* nic) override;
  void detach(Nic* nic) override;
  void transmit(Nic* sender, EthernetFrame frame) override;

  /// The delivery impairment pipeline (reconfigure/target/counters).
  Impairment& impairment() { return impairment_; }
  const Impairment& impairment() const { return impairment_; }

  std::uint64_t drops_queue() const { return drops_queue_; }
  std::uint64_t drops_loss() const { return drops_loss_; }
  /// Copies dropped because the destination endpoint detached (or was
  /// destroyed) while the copy was in flight.
  std::uint64_t drops_detached() const { return drops_detached_; }
  /// Frame copies waiting for their arrival event, both directions.
  std::size_t frames_in_flight() const { return in_flight_.in_flight(); }
  const PointToPointParams& params() const { return params_; }

 private:
  struct Direction {
    SimTime busy_until = 0;
    std::size_t in_flight = 0;
  };
  /// One copy crossing the link from ends_[side] to the other end.
  struct InFlight {
    EthernetFrame frame;
    int side = 0;
    bool tracked = false;
  };
  SimDuration wire_time(const EthernetFrame& f) const;
  void arrive(std::uint32_t slot);

  sim::Simulator& sim_;
  PointToPointParams params_;
  Nic* ends_[2] = {nullptr, nullptr};
  Direction dir_[2];  // dir_[i]: traffic transmitted by ends_[i]
  Impairment impairment_;
  InFlightTable<InFlight> in_flight_;
  std::uint64_t drops_queue_ = 0;
  std::uint64_t drops_loss_ = 0;
  std::uint64_t drops_detached_ = 0;
};

}  // namespace tfo::net
