// RAII one-shot timer bound to a Simulator.
//
// Protocol state machines hold Timers as members; destruction (or restart)
// cancels the pending callback, so a destroyed connection can never be
// called back — the idiomatic fix for the classic "timer fires into freed
// TCB" lifetime bug.
//
// A Timer is only {Simulator*, EventId, deadline}: the callback lives in
// the scheduler event, as `[timer, fn]`. `fn` must be trivially copyable
// and at most a pointer wide (in practice `[this]` or one captured
// pointer), so the event closure is 16 B and fits std::function's inline
// buffer. An arm/cancel/re-arm cycle therefore performs no heap allocation
// (the dominant timer pattern in a TCP stack: every ACKed segment re-arms
// the retransmit timer), and a Timer member costs 24 B.
//
// The simulator moves an event's closure out of its pool slot and frees
// the slot before calling it, and the closure clears the timer's id before
// calling `fn`. So a callback may restart its own timer, or destroy the
// object that owns it: after `fn` returns nothing touches the timer again.
#pragma once

#include <type_traits>

#include "sim/simulator.hpp"

namespace tfo::sim {

class Timer {
 public:
  explicit Timer(Simulator& sim) : sim_(&sim) {}
  ~Timer() { stop(); }
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  /// (Re)arms the timer to fire `d` from now. A pending arm is cancelled.
  template <typename F>
  void start(SimDuration d, F fn) {
    static_assert(std::is_trivially_copyable_v<F> && sizeof(F) <= sizeof(void*),
                  "a Timer callback captures at most one pointer, so the "
                  "scheduler event stays inside std::function's inline buffer");
    stop();
    deadline_ = sim_->now() + static_cast<SimTime>(d < 0 ? 0 : d);
    id_ = sim_->schedule_at(deadline_, [this, fn] {
      id_ = kNoEvent;
      fn();
    });
  }

  /// Cancels the pending callback, if any, releasing it eagerly.
  void stop() {
    if (id_ != kNoEvent) {
      sim_->cancel(id_);
      id_ = kNoEvent;
    }
  }

  bool armed() const { return id_ != kNoEvent; }

  /// Absolute fire time of the armed timer (meaningless when not armed).
  SimTime deadline() const { return deadline_; }

 private:
  Simulator* sim_;
  EventId id_ = kNoEvent;
  SimTime deadline_ = 0;
};

}  // namespace tfo::sim
