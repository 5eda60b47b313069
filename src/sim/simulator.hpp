// Deterministic discrete-event simulator.
//
// All network and protocol activity in this library is driven by a single
// Simulator instance. Events scheduled for the same instant run in
// scheduling order (a strictly increasing tiebreaker), which makes every
// run bit-for-bit reproducible.
//
// The scheduler is a hierarchical timing wheel over a pooled event store.
// schedule/cancel are O(1) and allocation-free once the pool is warm, which
// is what lets 100k connections each hold armed retransmit timers without
// the event queue becoming the bottleneck. The wheel is a *staging area*,
// not the execution order: every event funnels through one exact
// (time, order) min-heap before running. tests/scheduler_property_test.cpp
// pins that order against a reference model of the contract.
//
// Wheel shape: kLevels levels of kSlots slots. Level 0 slots are one tick
// (2^kTickShift ns ≈ 65.5 µs) wide; each higher level is kSlots× coarser.
// An event due in slot range [start, start + width) is parked in that slot
// and either cascades to a finer level or enters the exact heap when the
// cursor reaches `start`. Events beyond the wheel horizon (~52 simulated
// days) go straight to the exact heap. Because a slot's start time is a
// lower bound on every event it holds, the heap top at time T is safe to
// run exactly when every slot with start ≤ T has been drained — that
// single invariant is what preserves the (time, schedule-order) contract.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/chunked_vector.hpp"
#include "common/time.hpp"

namespace tfo::sim {

/// Opaque handle identifying a scheduled event, usable for cancellation.
/// Value 0 is "no event". Internally (generation << 32) | pool index, so a
/// recycled pool slot never honours a stale cancel.
using EventId = std::uint64_t;
constexpr EventId kNoEvent = 0;

class Simulator {
 public:
  Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.
  SimTime now() const { return now_; }

  /// Schedules `fn` to run at absolute time `t` (clamped to now()).
  EventId schedule_at(SimTime t, std::function<void()> fn);

  /// Schedules `fn` to run `d` after now (negative d is clamped to now).
  EventId schedule_after(SimDuration d, std::function<void()> fn);

  /// Cancels a pending event. Cancelling an already-run or invalid id is a
  /// harmless no-op, so callers need not track completion. The event's
  /// closure (and anything it captured) is released eagerly, not at the
  /// deadline.
  void cancel(EventId id);

  /// Runs the single next event. Returns false if the queue was empty.
  bool step();

  /// Runs until the queue drains (or `max_events` is hit, a runaway guard).
  void run(std::uint64_t max_events = kDefaultMaxEvents);

  /// Runs events with time <= t, then sets now() to t.
  void run_until(SimTime t, std::uint64_t max_events = kDefaultMaxEvents);

  /// Runs events for duration `d` from the current time.
  void run_for(SimDuration d, std::uint64_t max_events = kDefaultMaxEvents);

  /// Number of pending (non-cancelled) events.
  std::size_t pending() const { return live_events_; }

  /// Scheduler instrumentation, mirrored into per-host obs snapshots as
  /// sim.wheel.* (see OBSERVABILITY.md). Monotonic counters plus the
  /// current pool footprint.
  struct Stats {
    std::uint64_t scheduled = 0;        ///< schedule_at/schedule_after calls
    std::uint64_t cancelled = 0;        ///< cancels that hit a live event
    std::uint64_t fired = 0;            ///< events executed
    std::uint64_t wheel_inserts = 0;    ///< events parked in a wheel slot
    std::uint64_t heap_inserts = 0;     ///< events entering the exact heap
    std::uint64_t cascades = 0;         ///< wheel events re-filed at a finer level
    std::uint64_t heap_compactions = 0; ///< stale-entry purges of the exact heap
    std::uint64_t pool_events = 0;      ///< events the pool has created
  };
  const Stats& stats() const;

  /// Bytes one pooled event occupies, closure included (memory
  /// breakdowns: Stats::pool_events x this is the pool's footprint, less
  /// the unused tail of its last 256-event chunk).
  static constexpr std::size_t event_bytes() { return sizeof(Event); }

  static constexpr std::uint64_t kDefaultMaxEvents = 500'000'000;

  // Wheel geometry (public for the property test / docs).
  static constexpr unsigned kTickShift = 16;  ///< level-0 tick = 2^16 ns
  static constexpr unsigned kSlotBits = 6;    ///< 64 slots per level
  static constexpr unsigned kSlots = 1u << kSlotBits;
  static constexpr unsigned kLevels = 6;

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;

  enum class Loc : std::uint8_t { kFree, kWheel, kHeap };

  struct Event {
    SimTime time = 0;
    std::uint64_t order = 0;
    std::uint32_t gen = 1;  // bumped on free; id = (gen << 32) | index
    std::uint32_t prev = kNil, next = kNil;  // intrusive slot list
    std::uint16_t level = 0, slot = 0;
    Loc loc = Loc::kFree;
    std::function<void()> fn;
  };

  struct HeapEntry {
    SimTime time;
    std::uint64_t order;
    std::uint32_t idx;
    std::uint32_t gen;
  };

  struct Level {
    std::uint64_t occupied = 0;           // bit s set ⇔ slot s non-empty
    std::uint32_t head[kSlots];
    std::uint32_t tail[kSlots];
  };

  std::uint32_t alloc_event(SimTime t, std::function<void()> fn);
  void free_event(std::uint32_t idx);
  void wheel_insert(std::uint32_t idx, bool cascading);
  void heap_push(std::uint32_t idx);
  void slot_unlink(std::uint32_t idx);
  void drain_slot(unsigned level, std::uint64_t coarse);
  /// Min start time (absolute tick) over all occupied slots; UINT64_MAX if
  /// the wheel is empty.
  std::uint64_t wheel_next_tick() const;
  /// Advances the wheel until the exact heap's top is the globally next
  /// event. Returns false when nothing is pending.
  bool prepare_next();
  void heap_compact();
  void execute_heap_top();

  SimTime now_ = 0;
  std::uint64_t next_order_ = 1;
  std::size_t live_events_ = 0;
  mutable Stats stats_;

  ChunkedVector<Event> pool_;
  std::vector<std::uint32_t> free_;
  std::vector<HeapEntry> heap_;  // min-heap on (time, order)
  std::size_t heap_stale_ = 0;   // cancelled entries still parked in heap_
  Level levels_[kLevels];
  std::uint64_t cur_tick_ = 0;   // wheel cursor: slots before it are drained
};

}  // namespace tfo::sim
