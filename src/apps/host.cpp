#include "apps/host.hpp"

#include "obs/json.hpp"

namespace tfo::apps {

Host::Host(sim::Simulator& sim, HostParams params, net::Medium& medium)
    : sim_(sim), params_(std::move(params)) {
  nic_ = std::make_unique<net::Nic>(sim_, params_.name + ".eth0",
                                    net::MacAddress::from_id(params_.addr.v),
                                    params_.nic);
  ip_ = std::make_unique<ip::IpLayer>(sim_);
  arp_ = std::make_unique<ip::ArpEntity>(
      sim_, *nic_, [this] { return ip_->local_addresses(); }, params_.arp);
  ip_->add_interface({nic_.get(), arp_.get(), params_.addr, params_.prefix_len});
  tcp_ = std::make_unique<tcp::TcpLayer>(sim_, *ip_, params_.tcp, params_.seed);
  ip_->set_observability(&obs_);
  tcp_->set_observability(&obs_);

  nic_->set_rx_handler([this](const net::EthernetFrame& frame, bool to_us) {
    switch (frame.type) {
      case net::EtherType::kArp:
        arp_->handle_frame(frame);
        break;
      case net::EtherType::kIpv4:
        ip_->handle_frame(frame, to_us);
        break;
    }
  });
  nic_->attach(medium);

  // Snapshot the global wire-buffer accounting so this host's mirrored
  // counters start at zero (see refresh_wire_counters).
  wire_baseline_ = wire::buffer_stats();
  auto& reg = obs_.registry;
  ctr_alloc_buffers_ = &reg.counter("net.alloc.buffers");
  ctr_alloc_bytes_ = &reg.counter("net.alloc.bytes");
  ctr_alloc_copies_ = &reg.counter("net.alloc.copies");
  ctr_alloc_shares_ = &reg.counter("net.alloc.shares");
  ctr_bytes_copied_ = &reg.counter("net.bytes_copied");

  // Scheduler instrumentation mirror, same delta-since-construction
  // scheme (the Simulator is shared by every host in the topology).
  sim_baseline_ = sim_.stats();
  ctr_sim_scheduled_ = &reg.counter("sim.wheel.scheduled");
  ctr_sim_cancelled_ = &reg.counter("sim.wheel.cancelled");
  ctr_sim_fired_ = &reg.counter("sim.wheel.fired");
  ctr_sim_wheel_inserts_ = &reg.counter("sim.wheel.inserts");
  ctr_sim_heap_inserts_ = &reg.counter("sim.wheel.heap_inserts");
  ctr_sim_cascades_ = &reg.counter("sim.wheel.cascades");
  gau_sim_pool_events_ = &reg.gauge("sim.wheel.pool_events");
}

void Host::refresh_wire_counters() const {
  const wire::BufferStats& now = wire::buffer_stats();
  // Counters only move forward: if the global stats were reset underneath
  // us (bench/test hygiene), hold the published value rather than wrap.
  const auto mirror = [](obs::Counter* c, std::uint64_t now_v,
                         std::uint64_t base, std::uint64_t& published) {
    const std::uint64_t delta = now_v >= base ? now_v - base : now_v;
    if (delta > published) {
      c->inc(delta - published);
      published = delta;
    }
  };
  mirror(ctr_alloc_buffers_, now.allocations, wire_baseline_.allocations,
         wire_published_.allocations);
  mirror(ctr_alloc_bytes_, now.allocated_bytes, wire_baseline_.allocated_bytes,
         wire_published_.allocated_bytes);
  mirror(ctr_alloc_copies_, now.deep_copies, wire_baseline_.deep_copies,
         wire_published_.deep_copies);
  mirror(ctr_alloc_shares_, now.shares, wire_baseline_.shares,
         wire_published_.shares);
  mirror(ctr_bytes_copied_, now.copied_bytes, wire_baseline_.copied_bytes,
         wire_published_.copied_bytes);
}

void Host::refresh_sim_counters() const {
  const sim::Simulator::Stats& now = sim_.stats();
  const auto mirror = [](obs::Counter* c, std::uint64_t now_v, std::uint64_t base,
                         std::uint64_t& published) {
    const std::uint64_t delta = now_v >= base ? now_v - base : now_v;
    if (delta > published) {
      c->inc(delta - published);
      published = delta;
    }
  };
  mirror(ctr_sim_scheduled_, now.scheduled, sim_baseline_.scheduled,
         sim_published_.scheduled);
  mirror(ctr_sim_cancelled_, now.cancelled, sim_baseline_.cancelled,
         sim_published_.cancelled);
  mirror(ctr_sim_fired_, now.fired, sim_baseline_.fired, sim_published_.fired);
  mirror(ctr_sim_wheel_inserts_, now.wheel_inserts, sim_baseline_.wheel_inserts,
         sim_published_.wheel_inserts);
  mirror(ctr_sim_heap_inserts_, now.heap_inserts, sim_baseline_.heap_inserts,
         sim_published_.heap_inserts);
  mirror(ctr_sim_cascades_, now.cascades, sim_baseline_.cascades,
         sim_published_.cascades);
  // Pool footprint is a point-in-time value, not a delta.
  gau_sim_pool_events_->set(static_cast<std::int64_t>(now.pool_events));
}

void Host::move_to(net::Medium& medium, ip::Ipv4 new_addr, int prefix_len,
                   ip::Ipv4 gw) {
  const ip::Ipv4 old_addr = params_.addr;
  nic_->detach();
  nic_->attach(medium);
  ip_->reconfigure_interface(0, new_addr, prefix_len);
  ip_->set_default_gateway(gw);
  params_.addr = new_addr;
  params_.prefix_len = prefix_len;
  tcp_->migrate_local_address(old_addr, new_addr);
}

void Host::fail() {
  failed_ = true;
  nic_->set_enabled(false);
  obs_.timeline.record(sim_.now(), obs::EventKind::kHostFailed, {}, params_.name);
}

std::string Host::snapshot_json() const {
  refresh_wire_counters();
  refresh_sim_counters();
  obs::JsonWriter w;
  w.begin_object();
  w.key("host").value(params_.name);
  w.key("t_ns").value(static_cast<std::uint64_t>(sim_.now()));
  w.key("metrics").raw(obs::metrics_json(params_.name, obs_.registry.snapshot()));
  w.key("timeline").raw(obs::timeline_json(params_.name, obs_.timeline));
  w.end_object();
  return w.str();
}

}  // namespace tfo::apps
