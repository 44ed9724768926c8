#include "harness.hpp"

#include <algorithm>
#include <cmath>

#include "common/rng.hpp"

namespace perfbench {

using namespace m3rma;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

runtime::WorldConfig xt5_world(int ranks, std::uint64_t seed) {
  runtime::WorldConfig c;
  c.ranks = ranks;
  c.caps.ordered_delivery = true;
  c.caps.remote_completion_events = true;
  c.caps.native_atomics = true;
  c.costs.latency_ns = 4200;
  c.costs.inject_overhead_ns = 1200;
  c.costs.bytes_per_ns = 1.6;
  c.costs.delivery_overhead_ns = 400;
  c.costs.loopback_latency_ns = 250;
  c.costs.local_completion_ns = 3000;
  c.costs.jitter_ns = 3000;
  c.costs.delivery_occupancy_ns = 250;
  c.seed = seed;
  return c;
}

topo::TopoConfig torus(int x, int y, int z) {
  topo::TopoConfig t;
  t.kind = topo::Kind::torus3d;
  t.dim_x = x;
  t.dim_y = y;
  t.dim_z = z;
  return t;
}

std::uint64_t digest(std::uint64_t h, std::uint64_t v) {
  return mix64(h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2)));
}

Time percentile(std::vector<Time> v, double pct) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto n = static_cast<double>(v.size());
  auto rank = static_cast<std::size_t>(std::ceil(pct / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

// ------------------------------------------------------------------- Phase

void Phase::world_built(runtime::World& w) {
  world_built_ = Clock::now();
  world_ = &w;
}

void Phase::engine_begin() {
  if (!engine_first_) engine_first_ = Clock::now();
}

void Phase::engine_built(core::RmaEngine& eng) {
  engine_last_ = Clock::now();
  engines_.push_back(&eng);
}

void Phase::setup_barrier(runtime::Rank& r) {
  ++in_barrier_;
  if (in_barrier_ == world_->size()) barrier_last_enter_ = Clock::now();
  r.comm_world().barrier();
  if (!measure_start_) {
    measure_start_ = Clock::now();
    v_start_ = r.ctx().now();
    at_start_ = snap();
  }
}

void Phase::measured_done(runtime::Rank& r) {
  if (++done_ == world_->size()) {
    measure_end_ = Clock::now();
    v_end_ = r.ctx().now();
    at_end_ = snap();
  }
}

Snapshot Phase::snap() const {
  Snapshot s;
  sim::Engine& e = world_->engine();
  s.events = e.events_processed();
  s.switches = e.context_switches();
  const fabric::Fabric& f = world_->fabric();
  s.msgs = f.total_messages();
  s.bytes = f.total_bytes();
  s.dropped = f.dropped_packets();
  const fabric::ReliabilityStats rel = f.reliability_totals();
  s.data_packets = rel.data_packets;
  s.retransmits = rel.retransmits;
  s.standalone_acks = rel.acks_sent;
  for (const core::RmaEngine* eng : engines_) {
    s.lock_grants += eng->lock_acquisitions();
    s.am_applied += eng->am_ops_applied();
  }
  if (const topo::TopologyModel* m = world_->fabric().topology()) {
    for (int l = 0; l < m->topology().link_count(); ++l) {
      s.link_busy.push_back(m->state(l).busy_ns);
    }
  }
  return s;
}

void Phase::finish(Round& out, std::uint64_t ops) const {
  const double per_op = ops == 0 ? 0.0 : 1.0 / static_cast<double>(ops);
  const auto d = [&](std::uint64_t Snapshot::*f) {
    return static_cast<double>(at_end_.*f - at_start_.*f);
  };
  out.setup_s = seconds_between(round_start_, *measure_start_);
  out.phase_wall_s = seconds_between(*measure_start_, measure_end_);

  double arena = 0;
  for (int n = 0; n < world_->size(); ++n) {
    arena += static_cast<double>(world_->memory(n).config().size);
  }
  Time hot_busy = 0;
  for (std::size_t l = 0; l < at_end_.link_busy.size(); ++l) {
    hot_busy =
        std::max(hot_busy, at_end_.link_busy[l] - at_start_.link_busy[l]);
  }
  const double kpkt = d(&Snapshot::data_packets) / 1000.0;
  const auto per_kpkt = [&](double v) { return kpkt == 0 ? 0.0 : v / kpkt; };

  out.layer.insert(
      out.layer.end(),
      {
          {"simtime.events", d(&Snapshot::events)},
          {"simtime.context_switches", d(&Snapshot::switches)},
          {"simtime.switches_per_op", d(&Snapshot::switches) * per_op},
          {"memsim.arena_mib", arena / (1024.0 * 1024.0)},
          {"core.lock_acquisitions_per_op", d(&Snapshot::lock_grants) * per_op},
          {"core.am_ops_applied", d(&Snapshot::am_applied)},
          {"topo.hot_link_util",
           out.phase_ns == 0 ? 0.0
                             : static_cast<double>(hot_busy) /
                                   static_cast<double>(out.phase_ns)},
          {"fabric.msgs_per_op", d(&Snapshot::msgs) * per_op},
          {"fabric.bytes_per_op", d(&Snapshot::bytes) * per_op},
          {"fabric.retransmits_per_kpkt", per_kpkt(d(&Snapshot::retransmits))},
          {"fabric.standalone_acks_per_kpkt",
           per_kpkt(d(&Snapshot::standalone_acks))},
          {"fabric.dropped_packets", d(&Snapshot::dropped)},
      });
  const double events = d(&Snapshot::events);
  out.layer_wall.insert(
      out.layer_wall.end(),
      {
          {"simtime.wall_ns_per_event",
           events == 0 ? 0.0 : out.phase_wall_s * 1e9 / events},
          {"runtime.world_ctor_s", seconds_between(round_start_, world_built_)},
          {"runtime.barrier_wall_ms",
           seconds_between(barrier_last_enter_, *measure_start_) * 1e3},
          {"core.engine_ctor_s", seconds_between(*engine_first_, engine_last_)},
      });
}

// ----------------------------------------------------------------- Tracing

void Tracing::finish(Round& out, Time from, Time to) const {
  if (!on_) return;
  const auto w =
      tl_.aggregate([from, to](const trace::OpTimeline::Breakdown& b) {
        return b.t0 >= from && b.t1 <= to;
      });
  const auto share = [&](trace::Segment s) {
    return w.end_to_end == 0
               ? 0.0
               : static_cast<double>(w.seg[static_cast<std::size_t>(s)]) /
                     static_cast<double>(w.end_to_end);
  };
  using S = trace::Segment;
  out.layer.insert(out.layer.end(),
                   {
                       {"seg.lock_wait_share", share(S::lock_wait)},
                       {"seg.serialize_wait_share", share(S::serialize_wait)},
                       {"seg.apply_share", share(S::apply)},
                       {"seg.inject_share", share(S::inject)},
                       {"seg.completion_share", share(S::completion)},
                       {"seg.other_share", share(S::other)},
                       {"seg.contention_share", share(S::contention)},
                       {"seg.wire_share", share(S::wire)},
                       {"seg.retransmit_share", share(S::retransmit)},
                       {"seg.notify_share", share(S::notify)},
                       {"seg.delivery_share", share(S::delivery)},
                       {"trace.conservation_ok",
                        tl_.conservation_ok() && w.count > 0 ? 1.0 : 0.0},
                       {"trace.timeline_ops", static_cast<double>(w.count)},
                   });
}

}  // namespace perfbench
