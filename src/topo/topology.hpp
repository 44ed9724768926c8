// Topology-aware interconnect model: physical links between nodes.
//
// The paper's testbed is a Cray XT5 whose SeaStar NICs sit on a 3D torus;
// one-sided performance at scale is dominated by which physical links a
// transfer crosses, not endpoint cost alone. This subsystem models that
// layer: a Topology maps ranks to nodes (coordinates), enumerates directed
// physical links, and computes deterministic dimension-ordered routes; a
// TopologyModel adds the links' bandwidth/latency parameters (one set,
// shared by every link) and mutable per-link occupancy state
// (store-and-forward queuing, byte/message accounting).
//
// The fabric consults an optional TopologyModel (Fabric::set_topology):
// each packet then traverses its hop chain as scheduled events, queuing on
// every link's serialization window. With no topology configured the
// fabric keeps its legacy full-crossbar path, byte-identical to builds
// without this subsystem.
//
// Determinism: routing is a pure function of (topology, src, dst) — no rng,
// no adaptivity — and per-link state advances only from fabric events,
// which the simulator serializes. Same seed + same topology => identical
// routes, identical per-link byte totals, identical virtual times.
//
// Like src/trace, this library sits low in the stack: timestamps are raw
// std::uint64_t nanoseconds (== sim::Time) and the only dependency is
// m3rma_common.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace m3rma::topo {

/// Virtual time in nanoseconds (mirrors sim::Time; kept as a raw integer so
/// topo does not depend on simtime).
using Time = std::uint64_t;

/// Index into a Topology's directed-link table.
using LinkId = int;

enum class Kind : std::uint8_t {
  crossbar,  ///< dedicated directed link per (src,dst) pair; 1 hop
  torus3d,   ///< 3D torus; dimension order x,y,z; shortest wrap direction
             ///< (a ring is torus3d(n,1,1))
};

/// How ranks are laid out on physical nodes and which wires exist.
/// Immutable after construction; all queries are pure.
class Topology {
 public:
  struct Coord {
    int x = 0;
    int y = 0;
    int z = 0;
    bool operator==(const Coord&) const = default;
  };

  static Topology crossbar(int nodes);
  static Topology torus3d(int dim_x, int dim_y, int dim_z);

  int nodes() const { return nodes_; }
  int link_count() const { return static_cast<int>(link_src_.size()); }
  /// Longest route between any pair (1 for the crossbar).
  int diameter() const;

  /// Rank -> physical coordinate (x fastest): r == x + dx*(y + dy*z).
  Coord coord_of(int node) const;
  int node_at(Coord c) const;

  /// The directed physical link from `src` to adjacent node `dst`.
  /// Panics if the nodes are not neighbors in this topology.
  LinkId link_between(int src, int dst) const;
  int link_src(LinkId l) const;
  int link_dst(LinkId l) const;
  /// Stable display/counter key, e.g. "plink:5->1". Never contains commas
  /// (heatmap CSV rows embed it).
  std::string link_name(LinkId l) const;

  /// Deterministic dimension-ordered route: the links crossed from src to
  /// dst, in traversal order. Empty when src == dst (loopback never touches
  /// the network). Dimension order is x, then y, then z; each dimension
  /// moves in its shortest wraparound direction, ties broken toward
  /// increasing coordinate.
  std::vector<LinkId> route(int src, int dst) const;
  /// route(src,dst).size() without materializing the chain.
  int hops(int src, int dst) const;
  /// Torus Manhattan distance (wrap-aware); equals hops() on every
  /// topology — pinned by the property suite.
  int distance(int src, int dst) const;

  /// Minimal-adaptive fault route: the shortest path from src to dst whose
  /// transit routers are all alive (`alive[n] != 0`; src and dst must be
  /// alive themselves). Falls back to non-minimal detours when every
  /// minimal path is blocked. Deterministic — breadth-first over the link
  /// table with neighbors visited in node-id order — and empty when src ==
  /// dst or when the dead set disconnects the pair.
  std::vector<LinkId> route_avoiding(int src, int dst,
                                     const std::vector<char>& alive) const;

 private:
  Topology() = default;
  void add_link(int src, int dst);
  /// One dimension-ordered step from `at` toward `to`; at != to.
  int next_hop(int at, int to) const;

  Kind kind_ = Kind::crossbar;
  int nodes_ = 0;
  int dims_[3] = {1, 1, 1};
  std::vector<int> link_src_;
  std::vector<int> link_dst_;
  std::vector<int> link_by_pair_;  // src*nodes+dst -> LinkId or -1
};

/// Declarative topology selection, carried by runtime::WorldConfig. Link
/// parameters are derived from the fabric CostModel: bandwidth =
/// CostModel::bytes_per_ns, per-hop latency = CostModel::latency_ns /
/// diameter (so end-to-end latency across the longest route matches the
/// flat model's wire latency).
struct TopoConfig {
  Kind kind = Kind::torus3d;
  /// Torus extents (a ring of n ranks is dim_x = n). Their product must
  /// equal the world's rank count; crossbar ignores them.
  int dim_x = 0;
  int dim_y = 1;
  int dim_z = 1;
};

struct LinkParams {
  Time latency_ns = 0;
  double bytes_per_ns = 1.0;
};

/// Topology + link parameters + mutable per-link occupancy/accounting
/// state. Owned by the Fabric; every mutation happens from fabric events,
/// which the simulator serializes.
class TopologyModel {
 public:
  TopologyModel(Topology topo, LinkParams params);
  /// Build from declarative config for a `nodes`-rank world, deriving the
  /// link parameters from the given flat-model values.
  static TopologyModel build(const TopoConfig& cfg, int nodes,
                             Time flat_latency_ns, double flat_bytes_per_ns);

  const Topology& topology() const { return topo_; }

  /// Parameters of every physical link.
  const LinkParams& params() const { return params_; }

  struct LinkState {
    Time busy_until = 0;       ///< end of the last reserved xmit window
    std::uint64_t msgs = 0;    ///< packets that crossed this link
    std::uint64_t bytes = 0;   ///< wire bytes serialized onto it
    Time busy_ns = 0;          ///< cumulative serialization occupancy
  };
  const LinkState& state(LinkId l) const;

  struct Transit {
    Time depart = 0;  ///< serialization starts (after queuing)
    Time serial = 0;  ///< serialization time: the link is busy [depart, depart+serial)
    Time arrive = 0;  ///< tail arrives at link_dst (store-and-forward)
  };
  /// Reserve the link for one `wire_bytes` packet ready at `earliest`:
  /// FIFO-queue behind the link's busy window, occupy it for the
  /// serialization time, account bytes. Store-and-forward: the packet is
  /// available at the next node only at depart + serialization + latency.
  Transit reserve(LinkId l, Time earliest, std::size_t wire_bytes);

  /// Per-link byte totals in LinkId order — the property suite's
  /// determinism fingerprint.
  std::vector<std::uint64_t> byte_totals() const;

 private:
  Topology topo_;
  LinkParams params_;
  std::vector<LinkState> state_;  // per link
};

}  // namespace m3rma::topo
