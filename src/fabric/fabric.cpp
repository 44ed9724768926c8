#include "fabric/fabric.hpp"

#include <cmath>
#include <utility>

#include "trace/attribution.hpp"
#include "trace/recorder.hpp"

namespace m3rma::fabric {

namespace {

/// Attribution leg of a tagged packet: work on the request leg splits into
/// wire/contention/delivery; anything moving back toward the op's origin
/// (acks, get replies, lock grants) is completion propagation.
bool is_return_leg(const Packet& p) {
  return p.dst == trace::op_origin(p.op);
}

trace::Segment leg(const Packet& p, trace::Segment request_leg_seg) {
  return is_return_leg(p) ? trace::Segment::completion : request_leg_seg;
}

std::string link_name(int src, int dst) {
  return "net:" + std::to_string(src) + "->" + std::to_string(dst);
}

}  // namespace

// -------------------------------------------------------------------- Nic

Nic::Nic(Fabric* f, int node) : fabric_(f), node_(node) {
  if (f->costs_.reliability.enabled) {
    rel_ = std::make_unique<LinkReliability>(*this);
  }
}

Nic::~Nic() = default;

void Nic::register_protocol(int protocol, Handler h) {
  auto [it, inserted] = handlers_.emplace(protocol, std::move(h));
  (void)it;
  M3RMA_ENSURE(inserted, "protocol handler already registered on this NIC");
}

void Nic::unregister_protocol(int protocol) {
  M3RMA_ENSURE(handlers_.erase(protocol) == 1,
               "unregister of protocol that was never registered");
}

bool Nic::protocol_registered(int protocol) const {
  return handlers_.contains(protocol);
}

void Nic::send(int dst, Packet&& p) {
  M3RMA_REQUIRE(dst >= 0 && dst < fabric_->nodes(),
                "send to out-of-range node");
  p.src = node_;
  p.dst = dst;
  if (rel_ != nullptr) {
    rel_->send_data(std::move(p));  // frames, tracks, then raw_send()s
    return;
  }
  raw_send(std::move(p));
}

void Nic::raw_send(Packet&& p) {
  sent_messages_ += 1;
  sent_bytes_ += p.wire_size();
  fabric_->route(std::move(p));
}

void Nic::deliver(Packet&& p) {
  received_messages_ += 1;
  received_bytes_ += p.wire_size();
  if (rel_ != nullptr) {
    rel_->on_receive(std::move(p));  // dedup/resequence, then dispatch()
    return;
  }
  dispatch(std::move(p));
}

void Nic::dispatch(Packet&& p) {
  auto it = handlers_.find(p.protocol);
  M3RMA_ENSURE(it != handlers_.end(),
               "packet delivered for unregistered protocol " +
                   std::to_string(p.protocol) + " on node " +
                   std::to_string(node_) + " src=" + std::to_string(p.src) +
                   " hdr=" + std::to_string(p.header.size()) + "b @t=" +
                   std::to_string(fabric_->engine().now()));
  it->second(std::move(p));
}

// ----------------------------------------------------------------- Fabric

Fabric::Fabric(sim::Engine& eng, int nodes, Capabilities caps,
               CostModel costs)
    : eng_(&eng), caps_(caps), costs_(costs) {
  M3RMA_REQUIRE(nodes > 0, "fabric needs at least one node");
  nics_.reserve(static_cast<std::size_t>(nodes));
  for (int n = 0; n < nodes; ++n) {
    nics_.push_back(std::unique_ptr<Nic>(new Nic(this, n)));
  }
  alive_.assign(static_cast<std::size_t>(nodes), 1);
  announced_.assign(static_cast<std::size_t>(nodes), 0);
}

Nic& Fabric::nic(int node) {
  M3RMA_REQUIRE(node >= 0 && node < nodes(), "nic index out of range");
  return *nics_[static_cast<std::size_t>(node)];
}

sim::Time Fabric::transfer_time(int src, int dst,
                                std::size_t wire_bytes) const {
  const sim::Time wire =
      src == dst ? costs_.loopback_latency_ns : costs_.latency_ns;
  const auto serial = static_cast<sim::Time>(
      std::llround(static_cast<double>(wire_bytes) / costs_.bytes_per_ns));
  return wire + serial + costs_.delivery_overhead_ns;
}

void Fabric::set_topology(const topo::TopoConfig& cfg) {
  M3RMA_REQUIRE(topo_ == nullptr, "topology already configured");
  M3RMA_REQUIRE(total_messages_ == 0,
                "configure the topology before any traffic is injected");
  topo_ = std::make_unique<topo::TopologyModel>(topo::TopologyModel::build(
      cfg, nodes(), costs_.latency_ns, costs_.bytes_per_ns));
}

SplitMix64& Fabric::link_rng(std::uint64_t key) {
  auto it = link_rngs_.find(key);
  if (it == link_rngs_.end()) {
    // Independent derived stream: the engine seed mixed with the link id,
    // scrambled once so adjacent links do not produce correlated draws.
    SplitMix64 seeder(eng_->seed() ^
                      (0x9e3779b97f4a7c15ULL * (key + 1)));
    it = link_rngs_.emplace(key, SplitMix64(seeder.next())).first;
  }
  return it->second;
}

std::uint64_t Fabric::pair_key(int src, int dst) const {
  return static_cast<std::uint64_t>(src) * static_cast<std::uint64_t>(nodes()) +
         static_cast<std::uint64_t>(dst);
}

void Fabric::route(Packet&& p) {
  // Dead endpoints blackhole before any counter or rng touch, so a run with
  // no failed nodes draws exactly the same loss/jitter sequence as one
  // without the fault model.
  if (alive_[static_cast<std::size_t>(p.src)] == 0 ||
      alive_[static_cast<std::size_t>(p.dst)] == 0) {
    blackhole(p, "inject");
    return;
  }
  const std::uint64_t key = pair_key(p.src, p.dst);
  p.seq = next_seq_[key]++;
  p.injected_at = eng_->now();
  total_messages_ += 1;
  total_bytes_ += p.wire_size();

  auto* tr = eng_->tracer();

  if (topo_ != nullptr && p.src != p.dst) {
    // Physical-topology path: traverse the dimension-ordered hop chain.
    // Self-sends stay on the loopback path below — they never touch wires.
    forward(std::move(p), topo_->topology().route(p.src, p.dst), 0, p.src);
    return;
  }

  if (costs_.loss_rate > 0.0 && link_rng(key).next_bool(costs_.loss_rate)) {
    ++dropped_packets_;
    if (tr != nullptr) {
      tr->instant(tr->track(link_name(p.src, p.dst)), trace::Category::fabric,
                  "drop", "proto=" + std::to_string(p.protocol) +
                              " seq=" + std::to_string(p.seq));
    }
    return;  // failure injection: the packet vanishes on the wire
  }

  // Adaptive routing on an unordered network: a deterministic pseudo-random
  // spread lets a packet overtake an earlier one (never a self-send).
  sim::Time jitter = 0;
  if (!caps_.ordered_delivery && p.src != p.dst && costs_.jitter_ns > 0) {
    jitter = link_rng(key).next_below(costs_.jitter_ns + 1);
  }
  trace::SpanHandle wire_span = 0;
  if (tr != nullptr) {
    wire_span = tr->span_begin(
        tr->track(link_name(p.src, p.dst)), trace::Category::fabric, "wire",
        "proto=" + std::to_string(p.protocol) +
            " bytes=" + std::to_string(p.wire_size()));
  }
  const sim::Time wire_end = eng_->now() +
                             transfer_time(p.src, p.dst, p.wire_size()) -
                             costs_.delivery_overhead_ns;
  endpoint(std::move(p), wire_end, jitter, wire_span);
}

void Fabric::forward(Packet&& p, std::vector<topo::LinkId>&& path,
                     std::size_t idx, int here) {
  if (failed_nodes_ > 0 && path_transits_dead(path, idx, p.dst)) {
    // The rest of the dimension-ordered chain enters a quarantined router
    // (dead at injection, or died while the packet was in flight): adapt
    // from the current, live router onto the minimal-adaptive fallback. A
    // severed pair keeps its route and blackholes at the dead hop.
    const std::vector<topo::LinkId>& alt = fallback_route(here, p.dst);
    if (!alt.empty()) {
      ++rerouted_packets_;
      if (auto* tr = eng_->tracer()) {
        tr->instant(tr->track(link_name(p.src, p.dst)),
                    trace::Category::fabric, "reroute",
                    (idx == 0 ? std::string("at=inject")
                              : "at=node" + std::to_string(here)) +
                        " proto=" + std::to_string(p.protocol) +
                        " hops=" + std::to_string(alt.size()));
      }
      path = alt;
      idx = 0;
    }
  }
  topo_hop(std::move(p), std::move(path), idx, eng_->now());
}

void Fabric::topo_hop(Packet&& p, std::vector<topo::LinkId>&& path,
                      std::size_t idx, sim::Time ready) {
  const topo::Topology& t = topo_->topology();
  const topo::LinkId link = path[idx];
  auto* tr = eng_->tracer();

  // Loss is per hop, drawn from the physical link's own rng stream: one
  // link's traffic cannot change which packets drop on another, and a
  // packet crossing k hops faces k independent drop decisions.
  if (costs_.loss_rate > 0.0 &&
      link_rng(topo_link_key(link)).next_bool(costs_.loss_rate)) {
    ++dropped_packets_;
    if (tr != nullptr) {
      tr->instant(tr->track(t.link_name(link)), trace::Category::fabric,
                  "drop",
                  "proto=" + std::to_string(p.protocol) +
                      " seq=" + std::to_string(p.seq) + " hop=" +
                      std::to_string(idx));
    }
    return;
  }

  // Store-and-forward: FIFO-queue on the link's serialization window; the
  // packet is whole at the next router only after xmit + wire latency.
  const topo::TopologyModel::Transit tx =
      topo_->reserve(link, ready, p.wire_size());
  if (tr != nullptr) {
    tr->span_at(tr->track(t.link_name(link)), trace::Category::fabric,
                "xmit", tx.depart, tx.depart + tx.serial,
                "proto=" + std::to_string(p.protocol) +
                    " bytes=" + std::to_string(p.wire_size()) + " hop=" +
                    std::to_string(idx));
  }

  sim::Time arrive = tx.arrive;
  if (!caps_.ordered_delivery && p.src != p.dst && costs_.jitter_ns > 0) {
    // Adaptive routing spread, per hop, from the per-link stream.
    arrive += link_rng(topo_link_key(link)).next_below(costs_.jitter_ns + 1);
  }
  if (auto* tl = trace::timeline(eng_->tracer()); tl != nullptr &&
                                                  tl->tracks(p.op)) {
    // Per-hop decomposition: the wait for the link's serialization window
    // is contention stall, the reserved window plus link flight is wire.
    if (tx.depart > ready) {
      tl->add(p.op, leg(p, trace::Segment::contention), ready, tx.depart);
    }
    tl->add(p.op, leg(p, trace::Segment::wire), tx.depart, arrive);
  }

  eng_->schedule_at(arrive, [this, pkt = std::move(p), pth = std::move(path),
                             idx]() mutable {
    // Fail-stop quarantines a dead node's physical links too: a packet
    // reaching a dead router — or whose endpoints died mid-flight — is
    // lost at that hop.
    const int here = topo_->topology().link_dst(pth[idx]);
    if (alive_[static_cast<std::size_t>(pkt.src)] == 0 ||
        alive_[static_cast<std::size_t>(pkt.dst)] == 0 ||
        alive_[static_cast<std::size_t>(here)] == 0) {
      blackhole(pkt, idx + 1 == pth.size() ? "in_flight" : "topo_transit");
      return;
    }
    if (idx + 1 == pth.size()) {
      // Whole at the destination router: the hops already reported their
      // flight and drew their jitter.
      endpoint(std::move(pkt), eng_->now(), 0, 0);
      return;
    }
    forward(std::move(pkt), std::move(pth), idx + 1, here);
  });
}

bool Fabric::path_transits_dead(const std::vector<topo::LinkId>& path,
                                std::size_t idx, int dst) const {
  const topo::Topology& t = topo_->topology();
  for (std::size_t i = idx; i < path.size(); ++i) {
    const int via = t.link_dst(path[i]);
    if (via != dst && alive_[static_cast<std::size_t>(via)] == 0) {
      return true;
    }
  }
  return false;
}

const std::vector<topo::LinkId>& Fabric::fallback_route(int from, int dst) {
  const std::uint64_t key = pair_key(from, dst);
  auto it = fallback_routes_.find(key);
  if (it == fallback_routes_.end()) {
    it = fallback_routes_
             .emplace(key,
                      topo_->topology().route_avoiding(from, dst, alive_))
             .first;
  }
  return it->second;
}

void Fabric::endpoint(Packet&& p, sim::Time wire_end, sim::Time jitter,
                      std::uint64_t wire_span) {
  const std::uint64_t key = pair_key(p.src, p.dst);
  const bool fifo = caps_.ordered_delivery || p.src == p.dst;
  const sim::Time uncontended = wire_end + costs_.delivery_overhead_ns;
  sim::Time arrival = uncontended + jitter;
  if (fifo) {
    // FIFO per pair: a packet never overtakes an earlier one.
    auto& last = last_arrival_[key];
    if (arrival <= last) arrival = last + 1;
    last = arrival;
  }
  Nic* target = nics_[static_cast<std::size_t>(p.dst)].get();
  if (costs_.delivery_occupancy_ns > 0) {
    // The receive pipeline is a serial resource: converging traffic queues.
    if (arrival < target->rx_busy_until_) arrival = target->rx_busy_until_;
    target->rx_busy_until_ = arrival + costs_.delivery_occupancy_ns;
    if (fifo) last_arrival_[key] = std::max(last_arrival_[key], arrival);
  }
  if (auto* tl = trace::timeline(eng_->tracer()); tl != nullptr &&
                                                  tl->tracks(p.op)) {
    // Serialization + link latency still ahead is wire (the flat path;
    // the topology path reported each hop), the NIC processing tail is
    // delivery, and whatever the FIFO / jitter / rx-occupancy clamps added
    // on top is contention stall.
    if (wire_end > eng_->now()) {
      tl->add(p.op, leg(p, trace::Segment::wire), eng_->now(), wire_end);
    }
    tl->add(p.op, leg(p, trace::Segment::delivery), wire_end, uncontended);
    if (arrival > uncontended) {
      tl->add(p.op, leg(p, trace::Segment::contention), uncontended, arrival);
    }
  }
  eng_->schedule_at(
      arrival, [this, wire_span, target, pkt = std::move(p)]() mutable {
        if (wire_span != 0 && eng_->tracer() != nullptr) {
          eng_->tracer()->span_end(wire_span);
        }
        // Fail-stop is a power-off: a packet in flight when either endpoint
        // dies is lost at delivery time (the dead NIC can neither receive
        // nor have usefully sent it).
        if (alive_[static_cast<std::size_t>(pkt.src)] == 0 ||
            alive_[static_cast<std::size_t>(pkt.dst)] == 0) {
          blackhole(pkt, "in_flight");
          return;
        }
        target->deliver(std::move(pkt));
      });
}

void Fabric::blackhole(const Packet& p, const char* where) {
  ++blackholed_packets_;
  if (auto* tr = eng_->tracer()) {
    tr->instant(tr->track(link_name(p.src, p.dst)), trace::Category::fabric,
                "blackhole", std::string("at=") + where +
                                 " proto=" + std::to_string(p.protocol));
  }
}

void Fabric::fail_node(int node, bool announce) {
  M3RMA_REQUIRE(node >= 0 && node < nodes(), "fail_node index out of range");
  const auto n = static_cast<std::size_t>(node);
  if (alive_[n] != 0) {
    alive_[n] = 0;
    ++failed_nodes_;
    // The dead-node set changed: every cached fallback route is recomputed
    // on next use (quarantine time), against the new alive mask.
    fallback_routes_.clear();
    // Power off the dead node's own endpoint: cancel its timers and drain
    // its streams so it generates no further wire traffic or events.
    if (auto* rel = nics_[n]->reliability()) rel->quarantine_all();
    if (auto* tr = eng_->tracer()) {
      tr->instant(tr->track("fault"), trace::Category::fabric, "crash",
                  "node=" + std::to_string(node));
    }
  }
  if (!announce || announced_[n] != 0) return;
  announced_[n] = 1;
  for (auto& nic : nics_) {
    if (nic->node() == node || alive_[static_cast<std::size_t>(nic->node())] == 0) {
      continue;
    }
    if (auto* rel = nic->reliability()) rel->quarantine_peer(node);
  }
  // Copy: a listener may register/remove listeners while running.
  auto listeners = death_listeners_;
  for (auto& [token, fn] : listeners) fn(node);
}

int Fabric::add_death_listener(DeathListener fn) {
  const int token = next_listener_token_++;
  death_listeners_.emplace_back(token, std::move(fn));
  return token;
}

void Fabric::remove_death_listener(int token) {
  for (auto it = death_listeners_.begin(); it != death_listeners_.end();
       ++it) {
    if (it->first == token) {
      death_listeners_.erase(it);
      return;
    }
  }
}

void Fabric::set_link_failure_policy(LinkFailurePolicy p) {
  link_failure_policy_ = std::move(p);
}

bool Fabric::report_link_failure(const LinkFailure& lf) {
  link_failures_.push_back(lf);
  if (!link_failure_policy_) return false;
  return link_failure_policy_(lf);
}

ReliabilityStats Fabric::reliability_totals() const {
  ReliabilityStats total{};
  for (const auto& nic : nics_) {
    const LinkReliability* rel = nic->reliability();
    if (rel == nullptr) continue;
    const ReliabilityStats& s = rel->stats();
    total.data_packets += s.data_packets;
    total.retransmits += s.retransmits;
    total.fast_retransmits += s.fast_retransmits;
    total.acks_sent += s.acks_sent;
    total.acks_piggybacked += s.acks_piggybacked;
    total.ack_arms += s.ack_arms;
    total.gap_acks += s.gap_acks;
    total.duplicates_suppressed += s.duplicates_suppressed;
    total.out_of_order_buffered += s.out_of_order_buffered;
    total.links_failed += s.links_failed;
    total.drained_packets += s.drained_packets;
    total.sends_suppressed += s.sends_suppressed;
  }
  return total;
}

}  // namespace m3rma::fabric
