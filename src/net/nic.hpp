// Simulated network interface controller.
//
// The NIC is where the paper's promiscuous receive mode lives: with
// `set_promiscuous(true)` the secondary server's interface passes up frames
// addressed to the primary (§3.1); disabling it is step 2 of the §5
// takeover. `set_enabled(false)` models a crashed host going silent.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/time.hpp"
#include "net/frame.hpp"
#include "net/medium.hpp"
#include "sim/simulator.hpp"

namespace tfo::net {

struct NicParams {
  /// Fixed host protocol-processing latency charged on frame receive,
  /// standing in for interrupt + kernel stack traversal time on the
  /// paper's Pentium-III-era machines.
  SimDuration rx_processing = microseconds(30);
  /// Additional uniform jitter in [0, rx_jitter) added per frame (models
  /// interrupt/scheduling variance; gives the paper-style median≠max).
  SimDuration rx_jitter = 0;
  /// Seed for the jitter stream (combined with the NIC's MAC).
  std::uint64_t jitter_seed = 99;
};

class Nic {
 public:
  /// The receive handler. `to_us` is true when the frame was addressed to
  /// this NIC (unicast match or broadcast); promiscuous captures deliver
  /// with to_us == false.
  using RxHandler = std::function<void(const EthernetFrame&, bool to_us)>;

  Nic(sim::Simulator& sim, std::string name, MacAddress mac, NicParams params = {});
  ~Nic();
  Nic(const Nic&) = delete;
  Nic& operator=(const Nic&) = delete;

  void attach(Medium& medium);
  void detach();

  /// Transmits a frame; the source MAC is stamped with this NIC's address.
  void send(EthernetFrame frame);

  void set_rx_handler(RxHandler h) { rx_ = std::move(h); }

  /// Adds a passive observer called synchronously at frame arrival (before
  /// the processing delay). Observers never affect delivery; tracers and
  /// tests use this to watch the wire.
  void add_observer(RxHandler observer) { observers_.push_back(std::move(observer)); }
  void set_promiscuous(bool on) { promiscuous_ = on; }
  bool promiscuous() const { return promiscuous_; }

  /// A disabled NIC neither transmits nor receives (fail-stop host model).
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  const MacAddress& mac() const { return mac_; }
  const std::string& name() const { return name_; }

  /// Frames and bytes handed to the medium.
  std::uint64_t tx_frames() const { return tx_frames_; }
  std::uint64_t rx_frames() const { return rx_frames_; }
  std::uint64_t tx_bytes() const { return tx_bytes_; }
  std::uint64_t rx_bytes() const { return rx_bytes_; }

  /// Called by the medium to hand over a frame (internal plumbing).
  void deliver(const EthernetFrame& frame);

  /// Received frames still waiting out their protocol-processing delay.
  std::size_t rx_pending() const { return rx_count_; }

 private:
  /// A received frame waiting for its hand-up event. The event captures
  /// only `[this]`; it takes the ring's front, since hand-ups run in
  /// arrival order (see deliver()). `event` lets ~Nic cancel the rest.
  struct RxSlot {
    EthernetFrame frame;
    bool to_us = false;
    sim::EventId event = sim::kNoEvent;
  };

  void hand_up();
  /// The i-th frame waiting in the ring, oldest first.
  RxSlot& rx_at(std::size_t i) { return rx_ring_[(rx_head_ + i) & (rx_ring_.size() - 1)]; }

  sim::Simulator& sim_;
  std::string name_;
  MacAddress mac_;
  NicParams params_;
  Medium* medium_ = nullptr;
  RxHandler rx_;
  std::vector<RxHandler> observers_;
  bool promiscuous_ = false;
  bool enabled_ = true;
  std::uint64_t tx_frames_ = 0, rx_frames_ = 0;
  std::uint64_t tx_bytes_ = 0, rx_bytes_ = 0;
  Rng jitter_rng_;
  SimTime rx_floor_ = 0;  // monotonic delivery-time floor
  /// FIFO ring of RxSlots; its size is zero or a power of two.
  std::vector<RxSlot> rx_ring_;
  std::size_t rx_head_ = 0;
  std::size_t rx_count_ = 0;
};

}  // namespace tfo::net
