#include "net/impairment.hpp"

#include <algorithm>

namespace tfo::net {

Impairment::Impairment(ImpairmentParams params)
    : params_(params), rng_(params.seed) {}

void Impairment::configure(ImpairmentParams params) {
  params_ = params;
  rng_ = Rng(params.seed);
  bad_state_ = false;
}

Impairment::Plan Impairment::plan(const Nic* sender, const Nic& receiver,
                                  const EthernetFrame& frame) {
  Plan p;
  if (!enabled() || (target_ && !target_(sender, receiver, frame))) {
    p.add({});
    return p;
  }
  p.tracked = true;
  ++offered_;
  mirror(ctr_offered_, 1);

  // Loss first: the bursty chain advances once per considered delivery,
  // then the uniform model gets its draw. Draw order is fixed so the
  // schedule is reproducible from the seed alone.
  bool drop = false;
  if (params_.gilbert.enabled()) {
    if (bad_state_) {
      if (rng_.bernoulli(params_.gilbert.p_exit_bad)) bad_state_ = false;
    } else {
      if (rng_.bernoulli(params_.gilbert.p_enter_bad)) bad_state_ = true;
    }
    drop = rng_.bernoulli(bad_state_ ? params_.gilbert.loss_bad
                                     : params_.gilbert.loss_good);
  }
  if (!drop && params_.loss > 0.0) drop = rng_.bernoulli(params_.loss);
  if (drop) {
    ++dropped_;
    mirror(ctr_dropped_, 1);
    return p;  // no copies
  }

  std::size_t copies = 1;
  if (params_.duplicate > 0.0 && rng_.bernoulli(params_.duplicate)) {
    copies = 2;
    ++duplicated_;
    mirror(ctr_duplicated_, 1);
  }
  for (std::size_t i = 0; i < copies; ++i) {
    Copy c;
    if (i > 0) c.extra_delay = params_.duplicate_delay;
    if (params_.reorder > 0.0 && rng_.bernoulli(params_.reorder)) {
      c.extra_delay += static_cast<SimDuration>(
          rng_.uniform(1, static_cast<std::uint64_t>(
                              std::max<SimDuration>(params_.reorder_delay, 1))));
    }
    if (c.extra_delay > 0) {
      ++reordered_;
      mirror(ctr_reordered_, 1);
    }
    if (params_.corrupt > 0.0 && rng_.bernoulli(params_.corrupt)) {
      c.corrupted = true;
      ++corrupted_;
      mirror(ctr_corrupted_, 1);
    }
    p.add(c);
  }
  return p;
}

EthernetFrame Impairment::corrupt_frame(const EthernetFrame& frame) {
  // The copy shares the original's storage; the first mutable access
  // below copy-on-writes, so the intact copies delivered to other
  // receivers never see the flipped bytes.
  EthernetFrame f = frame;
  if (f.payload.empty()) return f;
  const int flips = static_cast<int>(
      rng_.uniform(1, static_cast<std::uint64_t>(
                          std::max(params_.corrupt_max_bytes, 1))));
  for (int i = 0; i < flips; ++i) {
    const std::size_t at = rng_.uniform(0, f.payload.size() - 1);
    // XOR with a non-zero byte: a corrupted copy always differs.
    f.payload[at] ^= static_cast<std::uint8_t>(rng_.uniform(1, 255));
  }
  return f;
}

void Impairment::bind_registry(obs::Registry& reg) {
  ctr_offered_ = &reg.counter("net.impairment.offered");
  ctr_dropped_ = &reg.counter("net.impairment.dropped");
  ctr_duplicated_ = &reg.counter("net.impairment.duplicated");
  ctr_reordered_ = &reg.counter("net.impairment.reordered");
  ctr_corrupted_ = &reg.counter("net.impairment.corrupted");
  ctr_delivered_ = &reg.counter("net.impairment.delivered");
  ctr_detached_ = &reg.counter("net.impairment.detached");
  // Back-fill activity from before the bind so the registry view satisfies
  // the same conservation invariant as the internal counters. Binding two
  // engines to one registry aggregates them.
  ctr_offered_->inc(offered_);
  ctr_dropped_->inc(dropped_);
  ctr_duplicated_->inc(duplicated_);
  ctr_reordered_->inc(reordered_);
  ctr_corrupted_->inc(corrupted_);
  ctr_delivered_->inc(delivered_);
  ctr_detached_->inc(detached_);
}

}  // namespace tfo::net
