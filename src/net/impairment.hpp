// Composable network impairment engine.
//
// Real networks do more than lose frames: they lose them in bursts, deliver
// them twice, deliver them late (reordering), and deliver them damaged. The
// transparent-interposition design of the paper (§4's loss-case analysis,
// §8's teardown corner cases) is exactly the kind of layer that breaks under
// such conditions, so every simulated medium runs its deliveries through one
// `Impairment` pipeline:
//
//   loss      — uniform per-delivery Bernoulli loss, plus a Gilbert–Elliott
//               two-state chain for bursty loss (good/bad state with
//               per-state loss probabilities);
//   duplicate — a delivery is made twice, the second copy optionally
//               delayed (far-reordered duplicates are the §8 stray-FIN
//               trigger);
//   reorder   — per-copy extra delay jitter, which genuinely reorders
//               frames at the receiving NIC (the NIC only guarantees
//               in-arrival-order handup);
//   corrupt   — random byte flips in the frame payload; the IP header and
//               TCP checksums at the receive path are what must catch them.
//
// All decisions draw from one explicitly seeded Rng, so a failing
// impairment schedule is reproducible bit-for-bit from its seed. A target
// predicate scopes the pipeline to particular (sender, receiver) pairs.
// This is the media's only random-loss configuration; the per-frame
// `LossFn` (net/medium.hpp) stays as the deterministic hook the §4 tests
// use to drop chosen segments.
//
// The engine also keeps conservation counters (offered, dropped,
// duplicated, reordered, corrupted, delivered, detached) and can mirror
// them into an `obs::Registry` as `net.impairment.*`; tests use the
// invariant  offered + duplicated == delivered + dropped + detached.
#pragma once

#include <array>
#include <cstdint>
#include <functional>

#include "common/rng.hpp"
#include "common/time.hpp"
#include "net/frame.hpp"
#include "obs/metrics.hpp"

namespace tfo::net {

class Nic;

/// Two-state Markov loss model (Gilbert–Elliott): the chain advances one
/// step per considered delivery; each state has its own loss probability.
/// Disabled unless `p_enter_bad > 0`.
struct GilbertElliottParams {
  double p_enter_bad = 0.0;  // P(good -> bad) per delivery
  double p_exit_bad = 0.0;   // P(bad -> good) per delivery
  double loss_good = 0.0;    // loss probability while in the good state
  double loss_bad = 1.0;     // loss probability while in the bad state

  bool enabled() const { return p_enter_bad > 0.0; }
};

struct ImpairmentParams {
  /// Uniform per-delivery loss probability (0 disables).
  double loss = 0.0;
  /// Bursty loss overlay; consulted before the uniform model.
  GilbertElliottParams gilbert;
  /// Probability a delivery is duplicated (one extra copy).
  double duplicate = 0.0;
  /// Fixed extra delay applied to the duplicate copy (0 = back-to-back).
  SimDuration duplicate_delay = 0;
  /// Probability a copy is delayed by reorder jitter.
  double reorder = 0.0;
  /// Maximum extra delay for a reordered copy; the actual delay is uniform
  /// in [1, reorder_delay] ns.
  SimDuration reorder_delay = milliseconds(2);
  /// Probability a copy is delivered with corrupted payload bytes.
  double corrupt = 0.0;
  /// Maximum number of bytes flipped in a corrupted copy (>= 1).
  int corrupt_max_bytes = 3;
  /// Seed for the impairment decision stream.
  std::uint64_t seed = 4242;

  bool any_enabled() const {
    return loss > 0.0 || gilbert.enabled() || duplicate > 0.0 ||
           reorder > 0.0 || corrupt > 0.0;
  }
};

/// Scopes the pipeline to particular deliveries. `sender` is null when the
/// sending NIC is unknown or already detached at delivery time. The frame is
/// the one about to be delivered — targeted tests typically restrict to
/// `EtherType::kIpv4`, since only IP traffic carries receive-path checksums
/// that can catch a corrupted copy (ARP has none).
using ImpairmentTargetFn = std::function<bool(
    const Nic* sender, const Nic& receiver, const EthernetFrame& frame)>;

class Impairment {
 public:
  /// One scheduled delivery of a frame copy.
  struct Copy {
    SimDuration extra_delay = 0;
    bool corrupted = false;
  };

  /// The pipeline's verdict for one delivery: at most two copies (the
  /// original and a duplicate), held inline so a plan never allocates.
  /// No copies == dropped. `tracked` is false when the engine is disabled
  /// or the delivery is out of target scope — the medium must then skip
  /// the note_*() calls.
  struct Plan {
    std::array<Copy, 2> copies{};
    std::uint8_t count = 0;
    bool tracked = false;

    void add(Copy c) { copies[count++] = c; }
    bool empty() const { return count == 0; }
    std::size_t size() const { return count; }
    const Copy* begin() const { return copies.data(); }
    const Copy* end() const { return copies.data() + count; }
  };

  explicit Impairment(ImpairmentParams params = {});

  /// Replaces the parameters mid-run (the decision stream reseeds).
  /// Counters are preserved — reconfiguring a running soak phase must not
  /// break conservation checks.
  void configure(ImpairmentParams params);

  /// Restricts impairments to deliveries matching `fn` (nullptr clears).
  void set_target(ImpairmentTargetFn fn) { target_ = std::move(fn); }

  bool enabled() const { return params_.any_enabled(); }
  const ImpairmentParams& params() const { return params_; }

  /// Decides the fate of one delivery. Draws happen in a fixed order, so
  /// the schedule is a deterministic function of (seed, call sequence).
  Plan plan(const Nic* sender, const Nic& receiver, const EthernetFrame& frame);

  /// Returns a copy of `frame` with 1..corrupt_max_bytes payload bytes
  /// XOR-flipped (never a no-op flip). Draws from the same stream.
  EthernetFrame corrupt_frame(const EthernetFrame& frame);

  // Outcome notes from the owning medium, for tracked copies only.
  void note_delivered() { ++delivered_; mirror(ctr_delivered_, 1); }
  void note_detached() { ++detached_; mirror(ctr_detached_, 1); }

  /// Mirrors the conservation counters into `reg` as `net.impairment.*`,
  /// starting from the current values. Call before traffic flows (metric
  /// handles resolve once; earlier activity is back-filled).
  void bind_registry(obs::Registry& reg);

  struct Counters {
    std::uint64_t offered = 0;     // deliveries considered by the pipeline
    std::uint64_t dropped = 0;     // deliveries lost (uniform or bursty)
    std::uint64_t duplicated = 0;  // extra copies produced
    std::uint64_t reordered = 0;   // copies given extra delay
    std::uint64_t corrupted = 0;   // copies delivered with flipped bytes
    std::uint64_t delivered = 0;   // copies handed to a live NIC
    std::uint64_t detached = 0;    // copies dropped: receiver went away
  };
  Counters counters() const {
    return {offered_,   dropped_,   duplicated_, reordered_,
            corrupted_, delivered_, detached_};
  }

  /// Conservation invariant every run must keep: each considered delivery
  /// ends as exactly one of delivered/dropped/detached per copy.
  bool conserved() const {
    return offered_ + duplicated_ == delivered_ + dropped_ + detached_;
  }

  /// True while the Gilbert–Elliott chain sits in the bad state.
  bool in_bad_state() const { return bad_state_; }

 private:
  void mirror(obs::Counter* c, std::uint64_t n) {
    if (c != nullptr) c->inc(n);
  }

  ImpairmentParams params_;
  ImpairmentTargetFn target_;
  Rng rng_;
  bool bad_state_ = false;

  std::uint64_t offered_ = 0, dropped_ = 0, duplicated_ = 0;
  std::uint64_t reordered_ = 0, corrupted_ = 0;
  std::uint64_t delivered_ = 0, detached_ = 0;

  obs::Counter* ctr_offered_ = nullptr;
  obs::Counter* ctr_dropped_ = nullptr;
  obs::Counter* ctr_duplicated_ = nullptr;
  obs::Counter* ctr_reordered_ = nullptr;
  obs::Counter* ctr_corrupted_ = nullptr;
  obs::Counter* ctr_delivered_ = nullptr;
  obs::Counter* ctr_detached_ = nullptr;
};

}  // namespace tfo::net
