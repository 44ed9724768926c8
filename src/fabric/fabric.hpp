// Network model: configurable-capability interconnect between nodes.
//
// The paper (§III-B) reasons about three network capabilities that decide
// how cheaply each RMA attribute can be implemented:
//   * ordered delivery       (SeaStar/Cray XT: yes; Quadrics QSNet: no)
//   * remote-completion events (Portals event queues: yes)
//   * native atomics          (NIC-side atomic apply without target CPU)
// The Fabric exposes exactly those knobs plus a latency/bandwidth cost
// model, so benches can reproduce Figure 2 on the Cray-XT5-like default and
// sweep the capability matrix for the ablations.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "fabric/packet.hpp"
#include "fabric/reliability.hpp"
#include "simtime/engine.hpp"
#include "topo/topology.hpp"

namespace m3rma::fabric {

struct Capabilities {
  /// Messages between a (src,dst) pair arrive in injection order.
  bool ordered_delivery = true;
  /// The network generates delivery acknowledgements the initiator can
  /// observe (Portals ACK events). Without this, remote completion must be
  /// established in software (e.g. a round-trip flush).
  bool remote_completion_events = true;
  /// The NIC can execute atomic read-modify-write at the target without
  /// involving the target CPU.
  bool native_atomics = true;
};

struct CostModel {
  /// Initiator CPU/NIC cost to inject one message (descriptor setup, DMA
  /// program). Paid as virtual time by the sending process.
  sim::Time inject_overhead_ns = 300;
  /// Delay from injection until the initiator observes LOCAL completion
  /// (Portals SEND event): DMA out of the source buffer.
  sim::Time local_completion_ns = 500;
  /// One-way wire latency between distinct nodes.
  sim::Time latency_ns = 4200;
  /// Loopback latency for self-sends.
  sim::Time loopback_latency_ns = 250;
  /// Serialization bandwidth in bytes per nanosecond (2.0 == 2 GB/s).
  double bytes_per_ns = 2.0;
  /// Target NIC processing per delivered message.
  sim::Time delivery_overhead_ns = 150;
  /// Serial occupancy of the receiving NIC per message: deliveries queue
  /// when messages from many senders converge on one node (the Figure 2
  /// situation). 0 disables congestion modeling.
  sim::Time delivery_occupancy_ns = 0;
  /// Maximum extra delay on an unordered network (adaptive routing spread);
  /// drawn uniformly per packet from [0, jitter_ns].
  sim::Time jitter_ns = 3000;
  /// Failure injection: probability of silently dropping a packet on the
  /// wire (deterministic per seed, independent per (src,dst) link). With
  /// reliability disabled the RMA protocols assume a reliable network, so
  /// any loss must surface as a detected failure (flush non-convergence or
  /// deadlock), never as silent corruption; with reliability enabled the
  /// sublayer recovers the loss or raises TransportError.
  double loss_rate = 0.0;
  /// Reliable-delivery sublayer (ack/retransmit/dedup); see
  /// fabric/reliability.hpp. Disabled by default: benches measuring raw
  /// attribute costs run byte-identical with no sublayer in the path.
  ReliabilityConfig reliability{};
};

class Fabric;

/// Per-node network interface. Upper layers register one handler per
/// protocol id; deliveries run in event (scheduler) context.
class Nic {
 public:
  using Handler = std::function<void(Packet&&)>;

  ~Nic();

  int node() const { return node_; }
  Fabric& fabric() { return *fabric_; }

  /// Register the delivery handler for `protocol`. Each protocol id may be
  /// claimed once per NIC.
  void register_protocol(int protocol, Handler h);
  /// Remove a handler (e.g. when the owning layer shuts down).
  void unregister_protocol(int protocol);
  bool protocol_registered(int protocol) const;

  /// Inject a packet toward `dst`. Does not advance the caller's virtual
  /// time (callers model CPU injection cost themselves, typically via
  /// CostModel::inject_overhead_ns).
  void send(int dst, Packet&& p);

  /// Counters are wire truth: with reliability enabled they include
  /// retransmissions and ack-only control packets.
  std::uint64_t sent_messages() const { return sent_messages_; }
  std::uint64_t sent_bytes() const { return sent_bytes_; }
  std::uint64_t received_messages() const { return received_messages_; }
  std::uint64_t received_bytes() const { return received_bytes_; }

  /// The reliable-delivery endpoint, or nullptr when
  /// CostModel::reliability.enabled is false.
  LinkReliability* reliability() { return rel_.get(); }
  const LinkReliability* reliability() const { return rel_.get(); }

 private:
  friend class Fabric;
  friend class LinkReliability;
  Nic(Fabric* f, int node);
  void deliver(Packet&& p);
  /// Handler lookup + invocation (post-reliability, exactly-once).
  void dispatch(Packet&& p);
  /// Stats + route, bypassing the reliability layer (used by it for both
  /// first transmissions and retransmissions/acks).
  void raw_send(Packet&& p);

  Fabric* fabric_;
  int node_;
  std::unique_ptr<LinkReliability> rel_;
  sim::Time rx_busy_until_ = 0;  // congestion: receive pipeline occupancy
  std::unordered_map<int, Handler> handlers_;
  std::uint64_t sent_messages_ = 0;
  std::uint64_t sent_bytes_ = 0;
  std::uint64_t received_messages_ = 0;
  std::uint64_t received_bytes_ = 0;
};

class Fabric {
 public:
  Fabric(sim::Engine& eng, int nodes, Capabilities caps, CostModel costs);

  Nic& nic(int node);
  int nodes() const { return static_cast<int>(nics_.size()); }
  const Capabilities& caps() const { return caps_; }
  const CostModel& costs() const { return costs_; }
  sim::Engine& engine() { return *eng_; }

  /// Pure cost-model query: transfer time of `wire_bytes` between src and
  /// dst, excluding jitter and ordering adjustments. Flat-crossbar model;
  /// with a topology configured the actual per-packet time additionally
  /// depends on hop count and link queuing.
  sim::Time transfer_time(int src, int dst, std::size_t wire_bytes) const;

  // ----- topology-aware interconnect (src/topo) ---------------------------

  /// Install a physical-topology model built from `cfg`, with its link
  /// parameters derived from this fabric's CostModel (bandwidth =
  /// bytes_per_ns; per-hop latency = latency_ns / diameter, so end-to-end
  /// latency across the longest route matches the flat model). From then on
  /// every packet between distinct nodes traverses its dimension-ordered
  /// hop chain as scheduled events, store-and-forward, queuing on each
  /// link's serialization window; loss and jitter draw from per-physical-
  /// link rng streams so drop decisions are independent per hop. Self-sends
  /// keep the loopback path. Must be called before any traffic; one-shot.
  /// Never calling it keeps the legacy full-crossbar path, byte-identical
  /// to builds without the topo subsystem.
  void set_topology(const topo::TopoConfig& cfg);
  /// The installed model, or nullptr when none is configured.
  const topo::TopologyModel* topology() const { return topo_.get(); }

  std::uint64_t total_messages() const { return total_messages_; }
  std::uint64_t total_bytes() const { return total_bytes_; }
  std::uint64_t dropped_packets() const { return dropped_packets_; }

  /// Aggregate reliable-transport statistics across every NIC endpoint.
  /// All zeros when the reliability sublayer is disabled.
  ReliabilityStats reliability_totals() const;

  // ----- fail-stop fault model ---------------------------------------------

  /// Declare `node` failed (fail-stop): its NIC powers off, packets to or
  /// from it — including ones already in flight — blackhole, and its
  /// reliability timers are cancelled. With `announce`, every live
  /// endpoint's reliability streams toward the node are quarantined and the
  /// registered death listeners fire (the "job launcher broadcasts the
  /// death" model); without it, survivors must detect the silence
  /// endogenously via retry-budget exhaustion. Idempotent per phase: a
  /// silent failure can be announced later (that is exactly what the
  /// link-failure policy does).
  void fail_node(int node, bool announce = true);
  bool alive(int node) const {
    return alive_[static_cast<std::size_t>(node)] != 0;
  }
  /// Packets destroyed because an endpoint was dead (distinct from random
  /// wire loss, which counts as dropped_packets).
  std::uint64_t blackholed_packets() const { return blackholed_packets_; }
  /// Packets diverted onto a minimal-adaptive fallback route because their
  /// dimension-ordered path transited a dead router.
  std::uint64_t rerouted_packets() const { return rerouted_packets_; }

  /// Death listeners run in event context when a node's failure is
  /// announced, in registration order. Returns a token for remove.
  using DeathListener = std::function<void(int)>;
  int add_death_listener(DeathListener fn);
  void remove_death_listener(int token);

  /// Decides what happens when a reliability endpoint exhausts its retry
  /// budget. Return true to absorb the failure (the peer is quarantined and
  /// the run continues degraded); false to fall back to the legacy fatal
  /// TransportError. The runtime installs a policy that declares the
  /// unreachable peer failed; raw-fabric users get the legacy throw.
  using LinkFailurePolicy = std::function<bool(const LinkFailure&)>;
  void set_link_failure_policy(LinkFailurePolicy p);
  /// Called by LinkReliability on budget exhaustion; records the report and
  /// consults the policy. True = absorbed.
  bool report_link_failure(const LinkFailure& lf);
  const std::vector<LinkFailure>& link_failures() const {
    return link_failures_;
  }

 private:
  friend class Nic;
  void route(Packet&& p);
  /// Topology path: send `p` on from router `here` along path[idx..],
  /// diverted onto the fallback route first when that rest of the path
  /// transits a dead router (idx 0: at injection; else mid-flight).
  void forward(Packet&& p, std::vector<topo::LinkId>&& path,
               std::size_t idx, int here);
  /// Topology path: move `p` across hop `idx` of `path`, ready to start
  /// serializing at `ready`; schedules the next hop (or the endpoint stage)
  /// as an event at the store-and-forward arrival time.
  void topo_hop(Packet&& p, std::vector<topo::LinkId>&& path,
                std::size_t idx, sim::Time ready);
  /// Endpoint stage, the end of both send paths: `p` is whole at the
  /// destination NIC at `wire_end` (the flat path passes its link latency
  /// plus serialization, the topology path its last hop's arrival) and is
  /// delivered after the target NIC's processing cost plus `jitter`, the
  /// per-(src,dst) FIFO clamp on ordered networks and self-sends, and
  /// receive-occupancy queuing. `wire_span` (a trace::SpanHandle, 0 =
  /// none) is closed at delivery.
  void endpoint(Packet&& p, sim::Time wire_end, sim::Time jitter,
                std::uint64_t wire_span);
  /// Key of a (src,dst) node pair in the per-pair maps.
  std::uint64_t pair_key(int src, int dst) const;
  /// Derived rng stream for loss/jitter draws, keyed by endpoint pair on
  /// the flat path and by physical link id (see topo_link_key) with a
  /// topology: traffic on one link cannot change which packets drop or how
  /// they jitter on another, and drop decisions are independent per hop.
  SplitMix64& link_rng(std::uint64_t key);
  static std::uint64_t topo_link_key(topo::LinkId l) {
    // Disjoint from the flat path's src*nodes+dst key space ("topo" tag in
    // the high bits).
    return 0x746F'706F'0000'0000ULL | static_cast<std::uint64_t>(
                                          static_cast<std::uint32_t>(l));
  }

  void blackhole(const Packet& p, const char* where);

  /// True when any link of path[idx..] enters a dead router other than the
  /// final destination (endpoint death is handled separately). Only called
  /// when failed_nodes_ > 0, keeping healthy runs byte-identical.
  bool path_transits_dead(const std::vector<topo::LinkId>& path,
                          std::size_t idx, int dst) const;
  /// Minimal-adaptive fallback (computed lazily, cached until the next
  /// death): shortest live route from -> dst. Empty = pair severed.
  const std::vector<topo::LinkId>& fallback_route(int from, int dst);

  sim::Engine* eng_;
  Capabilities caps_;
  CostModel costs_;
  std::unique_ptr<topo::TopologyModel> topo_;
  std::vector<std::unique_ptr<Nic>> nics_;
  std::unordered_map<std::uint64_t, sim::Time> last_arrival_;
  std::unordered_map<std::uint64_t, std::uint64_t> next_seq_;
  std::unordered_map<std::uint64_t, SplitMix64> link_rngs_;
  std::uint64_t total_messages_ = 0;
  std::uint64_t total_bytes_ = 0;
  std::uint64_t dropped_packets_ = 0;
  // Fault model. alive_/announced_ are plain flag reads on healthy paths so
  // fault-free runs stay byte-identical to builds without the fault model.
  std::vector<char> alive_;
  std::vector<char> announced_;
  int failed_nodes_ = 0;
  std::uint64_t blackholed_packets_ = 0;
  std::uint64_t rerouted_packets_ = 0;
  // Fallback routes around quarantined routers, keyed from*nodes+dst;
  // invalidated whenever another node dies. Touched only on paths that
  // already saw failed_nodes_ > 0.
  std::unordered_map<std::uint64_t, std::vector<topo::LinkId>>
      fallback_routes_;
  std::vector<std::pair<int, DeathListener>> death_listeners_;
  int next_listener_token_ = 1;
  LinkFailurePolicy link_failure_policy_;
  std::vector<LinkFailure> link_failures_;
};

}  // namespace m3rma::fabric
