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
#include "net/gro.hpp"
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

  /// Rx batching: with a value > 1 the NIC stages arrivals in a batch
  /// ring and hands them up the stack together — one rx_processing charge
  /// and one scheduler event per *batch* (NAPI-style interrupt
  /// mitigation), with GRO coalescing of abutting in-order TCP segments.
  /// The value caps the ring: a full ring flushes without waiting out the
  /// window. 0/1 keeps the legacy per-frame path, bit-identical to
  /// pre-batching behaviour. Jitter is not applied in batching mode.
  std::size_t rx_batch_max = 1;
  /// Extra time beyond rx_processing a partial batch waits for more
  /// frames before flushing (the interrupt-coalescing window).
  SimDuration rx_batch_window = 0;
  /// Tx batching: with a value > 1 outbound frames are staged in a ring
  /// flushed to the medium at the end of the current event (one burst).
  /// 0/1 transmits immediately.
  std::size_t tx_batch_max = 1;
  /// GRO coalescing limits (effective only with rx batching on).
  GroParams gro;
};

/// Batch-path telemetry, partly mirrored into per-host obs as nic.* counters.
struct NicBatchStats {
  std::uint64_t rx_batches = 0;       ///< rx ring flushes
  std::uint64_t frames_batched = 0;   ///< frames that went through a batch
  std::uint64_t tx_batches = 0;       ///< tx ring flushes
  std::uint64_t tx_frames_batched = 0;
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

  const NicBatchStats& batch_stats() const { return batch_stats_; }
  const GroStats& gro_stats() const { return gro_stats_; }

  const MacAddress& mac() const { return mac_; }
  const std::string& name() const { return name_; }

  /// Frames and bytes handed to the medium (a burst dropped by a crash
  /// before its flush is not counted).
  std::uint64_t tx_frames() const { return tx_frames_; }
  std::uint64_t rx_frames() const { return rx_frames_; }
  std::uint64_t tx_bytes() const { return tx_bytes_; }
  std::uint64_t rx_bytes() const { return rx_bytes_; }

  /// Called by the medium to hand over a frame (internal plumbing).
  void deliver(const EthernetFrame& frame);

 private:
  void enqueue_rx(const EthernetFrame& frame, bool to_us);
  void flush_rx();
  void flush_tx();

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

  // Batched data path (rx_batch_max / tx_batch_max > 1).
  std::vector<RxFrame> rx_ring_;
  sim::EventId rx_flush_event_ = sim::kNoEvent;
  SimTime rx_flush_floor_ = 0;  // first arrival + rx_processing
  std::vector<EthernetFrame> tx_ring_;
  bool tx_flush_scheduled_ = false;
  NicBatchStats batch_stats_;
  GroStats gro_stats_;
};

}  // namespace tfo::net
