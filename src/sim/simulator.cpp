#include "sim/simulator.hpp"

#include <algorithm>
#include <bit>

#include "common/assert.hpp"

namespace tfo::sim {

namespace {

/// Exact execution order: earliest time first, then schedule order.
struct HeapAfter {
  template <typename E>
  bool operator()(const E& a, const E& b) const {
    if (a.time != b.time) return a.time > b.time;
    return a.order > b.order;
  }
};

}  // namespace

Simulator::Simulator() {
  for (Level& lv : levels_) {
    std::fill(std::begin(lv.head), std::end(lv.head), kNil);
    std::fill(std::begin(lv.tail), std::end(lv.tail), kNil);
  }
}

const Simulator::Stats& Simulator::stats() const {
  stats_.pool_events = pool_.size();
  return stats_;
}

// ------------------------------------------------------------- event pool

std::uint32_t Simulator::alloc_event(SimTime t, std::function<void()> fn) {
  std::uint32_t idx;
  if (!free_.empty()) {
    idx = free_.back();
    free_.pop_back();
  } else {
    TFO_ASSERT(pool_.size() < kNil, "simulator event pool exhausted");
    idx = pool_.emplace_back();
  }
  Event& ev = pool_[idx];
  ev.time = t;
  ev.order = next_order_++;
  ev.prev = ev.next = kNil;
  ev.fn = std::move(fn);
  return idx;
}

void Simulator::free_event(std::uint32_t idx) {
  Event& ev = pool_[idx];
  ev.fn = nullptr;  // release the closure (and captured buffers) eagerly
  ev.loc = Loc::kFree;
  if (++ev.gen == 0) ev.gen = 1;  // gen 0 would make id 0 == kNoEvent
  free_.push_back(idx);
}

// ------------------------------------------------------------------ wheel

void Simulator::heap_push(std::uint32_t idx) {
  Event& ev = pool_[idx];
  ev.loc = Loc::kHeap;
  heap_.push_back(HeapEntry{ev.time, ev.order, idx, ev.gen});
  std::push_heap(heap_.begin(), heap_.end(), HeapAfter{});
  ++stats_.heap_inserts;
}

void Simulator::wheel_insert(std::uint32_t idx, bool cascading) {
  Event& ev = pool_[idx];
  const std::uint64_t tick = ev.time >> kTickShift;
  if (tick <= cur_tick_) {
    heap_push(idx);
    return;
  }
  const std::uint64_t delta = tick - cur_tick_;
  const unsigned level = (static_cast<unsigned>(std::bit_width(delta)) - 1) / kSlotBits;
  if (level >= kLevels) {
    // Beyond the wheel horizon (~52 simulated days): park in the exact
    // heap permanently; it is never migrated back.
    heap_push(idx);
    return;
  }
  const unsigned shift = kSlotBits * level;
  const std::uint64_t coarse = tick >> shift;
  const unsigned slot = static_cast<unsigned>(coarse & (kSlots - 1));
  Level& lv = levels_[level];
  ev.level = static_cast<std::uint16_t>(level);
  ev.slot = static_cast<std::uint16_t>(slot);
  ev.loc = Loc::kWheel;
  ev.prev = lv.tail[slot];
  ev.next = kNil;
  if (lv.tail[slot] != kNil) {
    pool_[lv.tail[slot]].next = idx;
  } else {
    lv.head[slot] = idx;
    lv.occupied |= std::uint64_t{1} << slot;
  }
  lv.tail[slot] = idx;
  if (cascading) {
    ++stats_.cascades;
  } else {
    ++stats_.wheel_inserts;
  }
}

void Simulator::slot_unlink(std::uint32_t idx) {
  Event& ev = pool_[idx];
  Level& lv = levels_[ev.level];
  if (ev.prev != kNil) {
    pool_[ev.prev].next = ev.next;
  } else {
    lv.head[ev.slot] = ev.next;
  }
  if (ev.next != kNil) {
    pool_[ev.next].prev = ev.prev;
  } else {
    lv.tail[ev.slot] = ev.prev;
  }
  if (lv.head[ev.slot] == kNil) lv.occupied &= ~(std::uint64_t{1} << ev.slot);
  ev.prev = ev.next = kNil;
}

void Simulator::drain_slot(unsigned level, std::uint64_t coarse) {
  Level& lv = levels_[level];
  const unsigned slot = static_cast<unsigned>(coarse & (kSlots - 1));
  std::uint32_t idx = lv.head[slot];
  lv.head[slot] = lv.tail[slot] = kNil;
  lv.occupied &= ~(std::uint64_t{1} << slot);
  while (idx != kNil) {
    const std::uint32_t next = pool_[idx].next;
    pool_[idx].prev = pool_[idx].next = kNil;
    if (level == 0) {
      heap_push(idx);
    } else {
      // Re-files at a strictly finer level (or the heap): the event's
      // remaining delta is below this level's slot width.
      wheel_insert(idx, /*cascading=*/true);
    }
    idx = next;
  }
}

std::uint64_t Simulator::wheel_next_tick() const {
  std::uint64_t best = UINT64_MAX;
  for (unsigned l = 0; l < kLevels; ++l) {
    const std::uint64_t occ = levels_[l].occupied;
    if (occ == 0) continue;
    const unsigned shift = kSlotBits * l;
    const std::uint64_t c = cur_tick_ >> shift;
    // Occupied slots all start after the cursor, so rotating the bitmap to
    // put coarse tick c+1 at bit 0 makes countr_zero the next occupied
    // slot's distance.
    const std::uint64_t rot = std::rotr(occ, static_cast<int>((c + 1) & (kSlots - 1)));
    const std::uint64_t coarse = c + 1 + static_cast<unsigned>(std::countr_zero(rot));
    const std::uint64_t start = coarse << shift;
    if (start < best) best = start;
  }
  return best;
}

bool Simulator::prepare_next() {
  while (true) {
    // Drop cancelled entries parked at the heap top.
    while (!heap_.empty()) {
      const HeapEntry& top = heap_.front();
      if (pool_[top.idx].gen == top.gen) break;
      std::pop_heap(heap_.begin(), heap_.end(), HeapAfter{});
      heap_.pop_back();
      --heap_stale_;
    }
    const std::uint64_t wt = wheel_next_tick();
    if (heap_.empty() && wt == UINT64_MAX) return false;
    // A slot's start time lower-bounds every event it holds, so the heap
    // top is the true global next exactly when it fires before any
    // occupied slot opens. Ties must drain the slot first: it may hold an
    // equal-time event with an earlier schedule order.
    if (!heap_.empty() &&
        (wt == UINT64_MAX || heap_.front().time < (wt << kTickShift))) {
      return true;
    }
    cur_tick_ = wt;
    // Drain every level whose slot opens exactly at the cursor, coarsest
    // first so cascades land in finer levels before those are drained.
    for (unsigned l = kLevels; l-- > 0;) {
      const unsigned shift = kSlotBits * l;
      const std::uint64_t coarse = wt >> shift;
      if ((coarse << shift) != wt) continue;
      if (levels_[l].occupied & (std::uint64_t{1} << (coarse & (kSlots - 1)))) {
        drain_slot(l, coarse);
      }
    }
  }
}

void Simulator::heap_compact() {
  std::erase_if(heap_, [this](const HeapEntry& e) {
    return pool_[e.idx].gen != e.gen;
  });
  std::make_heap(heap_.begin(), heap_.end(), HeapAfter{});
  heap_stale_ = 0;
  ++stats_.heap_compactions;
}

void Simulator::execute_heap_top() {
  std::pop_heap(heap_.begin(), heap_.end(), HeapAfter{});
  const HeapEntry top = heap_.back();
  heap_.pop_back();
  Event& ev = pool_[top.idx];
  TFO_ASSERT(ev.time >= now_, "event queue went backwards in time");
  now_ = ev.time;
  // Move the closure out so re-entrant scheduling during the call is safe,
  // and recycle the pool slot before invoking (the callback may re-arm).
  auto fn = std::move(ev.fn);
  free_event(top.idx);
  --live_events_;
  ++stats_.fired;
  fn();
}

// ------------------------------------------------------------- public API

EventId Simulator::schedule_at(SimTime t, std::function<void()> fn) {
  if (t < now_) t = now_;
  ++stats_.scheduled;
  const std::uint32_t idx = alloc_event(t, std::move(fn));
  wheel_insert(idx, /*cascading=*/false);
  ++live_events_;
  return (static_cast<EventId>(pool_[idx].gen) << 32) | idx;
}

EventId Simulator::schedule_after(SimDuration d, std::function<void()> fn) {
  const SimTime t = d <= 0 ? now_ : now_ + static_cast<SimTime>(d);
  return schedule_at(t, std::move(fn));
}

void Simulator::cancel(EventId id) {
  if (id == kNoEvent) return;
  const std::uint32_t idx = static_cast<std::uint32_t>(id & 0xffffffffu);
  const std::uint32_t gen = static_cast<std::uint32_t>(id >> 32);
  if (idx >= pool_.size()) return;
  Event& ev = pool_[idx];
  if (ev.gen != gen || ev.loc == Loc::kFree) return;
  if (ev.loc == Loc::kWheel) {
    slot_unlink(idx);
  } else {
    // Heap entries are purged lazily; compact when the dead outnumber the
    // live so a cancel-heavy phase cannot pin the heap's high-water mark.
    ++heap_stale_;
    if (heap_.size() > 64 && heap_stale_ * 2 > heap_.size()) heap_compact();
  }
  free_event(idx);
  --live_events_;
  ++stats_.cancelled;
}

bool Simulator::step() {
  if (!prepare_next()) return false;
  execute_heap_top();
  return true;
}

void Simulator::run(std::uint64_t max_events) {
  std::uint64_t n = 0;
  while (step()) {
    TFO_ASSERT(++n <= max_events, "simulator exceeded max_events (runaway loop?)");
  }
}

void Simulator::run_until(SimTime t, std::uint64_t max_events) {
  std::uint64_t n = 0;
  while (prepare_next()) {
    if (heap_.front().time > t) break;
    execute_heap_top();
    TFO_ASSERT(++n <= max_events, "simulator exceeded max_events (runaway loop?)");
  }
  if (now_ < t) now_ = t;
}

void Simulator::run_for(SimDuration d, std::uint64_t max_events) {
  run_until(d <= 0 ? now_ : now_ + static_cast<SimTime>(d), max_events);
}

}  // namespace tfo::sim
