#include "topo/topology.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/diagnostics.hpp"

namespace m3rma::topo {

// ---------------------------------------------------------------- Topology

void Topology::add_link(int src, int dst) {
  const auto pair = static_cast<std::size_t>(src) *
                        static_cast<std::size_t>(nodes_) +
                    static_cast<std::size_t>(dst);
  if (link_by_pair_[pair] != -1) return;  // wrap on tiny dims: same wire
  link_by_pair_[pair] = static_cast<int>(link_src_.size());
  link_src_.push_back(src);
  link_dst_.push_back(dst);
}

Topology Topology::crossbar(int nodes) {
  M3RMA_REQUIRE(nodes > 0, "crossbar needs at least one node");
  Topology t;
  t.kind_ = Kind::crossbar;
  t.nodes_ = nodes;
  t.dims_[0] = nodes;
  t.link_by_pair_.assign(
      static_cast<std::size_t>(nodes) * static_cast<std::size_t>(nodes), -1);
  for (int s = 0; s < nodes; ++s) {
    for (int d = 0; d < nodes; ++d) {
      if (s != d) t.add_link(s, d);
    }
  }
  return t;
}

Topology Topology::torus3d(int dim_x, int dim_y, int dim_z) {
  M3RMA_REQUIRE(dim_x > 0 && dim_y > 0 && dim_z > 0,
                "torus3d needs positive dimensions");
  Topology t;
  t.kind_ = Kind::torus3d;
  t.nodes_ = dim_x * dim_y * dim_z;
  t.dims_[0] = dim_x;
  t.dims_[1] = dim_y;
  t.dims_[2] = dim_z;
  t.link_by_pair_.assign(static_cast<std::size_t>(t.nodes_) *
                             static_cast<std::size_t>(t.nodes_),
                         -1);
  const int dims[3] = {dim_x, dim_y, dim_z};
  for (int n = 0; n < t.nodes_; ++n) {
    const Coord c = t.coord_of(n);
    int coords[3] = {c.x, c.y, c.z};
    for (int d = 0; d < 3; ++d) {
      if (dims[d] < 2) continue;  // a singleton dimension has no wires
      for (int dir : {+1, -1}) {
        int nb[3] = {coords[0], coords[1], coords[2]};
        nb[d] = (nb[d] + dir + dims[d]) % dims[d];
        t.add_link(n, t.node_at(Coord{nb[0], nb[1], nb[2]}));
      }
    }
  }
  return t;
}

int Topology::diameter() const {
  switch (kind_) {
    case Kind::crossbar:
      return nodes_ > 1 ? 1 : 0;
    case Kind::torus3d:
      return dims_[0] / 2 + dims_[1] / 2 + dims_[2] / 2;
  }
  return 0;
}

Topology::Coord Topology::coord_of(int node) const {
  M3RMA_REQUIRE(node >= 0 && node < nodes_, "coord_of node out of range");
  return Coord{node % dims_[0], (node / dims_[0]) % dims_[1],
               node / (dims_[0] * dims_[1])};
}

int Topology::node_at(Coord c) const {
  M3RMA_REQUIRE(c.x >= 0 && c.x < dims_[0] && c.y >= 0 && c.y < dims_[1] &&
                    c.z >= 0 && c.z < dims_[2],
                "node_at coordinate out of range");
  return c.x + dims_[0] * (c.y + dims_[1] * c.z);
}

LinkId Topology::link_between(int src, int dst) const {
  M3RMA_REQUIRE(src >= 0 && src < nodes_ && dst >= 0 && dst < nodes_,
                "link_between node out of range");
  const int l = link_by_pair_[static_cast<std::size_t>(src) *
                                  static_cast<std::size_t>(nodes_) +
                              static_cast<std::size_t>(dst)];
  M3RMA_ENSURE(l != -1, "no physical link between nodes " +
                            std::to_string(src) + " and " +
                            std::to_string(dst));
  return l;
}

int Topology::link_src(LinkId l) const {
  M3RMA_REQUIRE(l >= 0 && l < link_count(), "link id out of range");
  return link_src_[static_cast<std::size_t>(l)];
}

int Topology::link_dst(LinkId l) const {
  M3RMA_REQUIRE(l >= 0 && l < link_count(), "link id out of range");
  return link_dst_[static_cast<std::size_t>(l)];
}

std::string Topology::link_name(LinkId l) const {
  return "plink:" + std::to_string(link_src(l)) + "->" +
         std::to_string(link_dst(l));
}

namespace {

/// Signed shortest step along one wraparound dimension; ties (exactly half
/// way around an even ring) go toward increasing coordinate.
int torus_step(int from, int to, int dim) {
  const int fwd = (to - from + dim) % dim;
  const int bwd = (from - to + dim) % dim;
  return fwd <= bwd ? +1 : -1;
}

int wrap_distance(int from, int to, int dim) {
  const int fwd = (to - from + dim) % dim;
  const int bwd = (from - to + dim) % dim;
  return fwd <= bwd ? fwd : bwd;
}

}  // namespace

int Topology::next_hop(int at, int to) const {
  const Coord c = coord_of(at);
  const Coord t = coord_of(to);
  switch (kind_) {
    case Kind::crossbar:
      return to;
    case Kind::torus3d:
      if (c.x != t.x) {
        const int step = torus_step(c.x, t.x, dims_[0]);
        return node_at(Coord{(c.x + step + dims_[0]) % dims_[0], c.y, c.z});
      }
      if (c.y != t.y) {
        const int step = torus_step(c.y, t.y, dims_[1]);
        return node_at(Coord{c.x, (c.y + step + dims_[1]) % dims_[1], c.z});
      }
      {
        const int step = torus_step(c.z, t.z, dims_[2]);
        return node_at(Coord{c.x, c.y, (c.z + step + dims_[2]) % dims_[2]});
      }
  }
  M3RMA_ENSURE(false, "unreachable topology kind");
  return -1;
}

std::vector<LinkId> Topology::route(int src, int dst) const {
  M3RMA_REQUIRE(src >= 0 && src < nodes_ && dst >= 0 && dst < nodes_,
                "route node out of range");
  std::vector<LinkId> path;
  int at = src;
  while (at != dst) {
    const int nxt = next_hop(at, dst);
    path.push_back(link_between(at, nxt));
    at = nxt;
  }
  return path;
}

std::vector<LinkId> Topology::route_avoiding(
    int src, int dst, const std::vector<char>& alive) const {
  M3RMA_REQUIRE(src >= 0 && src < nodes_ && dst >= 0 && dst < nodes_,
                "route_avoiding node out of range");
  M3RMA_REQUIRE(static_cast<int>(alive.size()) == nodes_,
                "route_avoiding alive mask size mismatch");
  if (src == dst) return {};
  // Breadth-first search over the directed link table. Neighbor order is
  // node-id order (ascending dst scan of link_by_pair_), so the chosen path
  // is a pure function of (topology, src, dst, dead set).
  std::vector<int> prev_node(static_cast<std::size_t>(nodes_), -1);
  std::vector<LinkId> prev_link(static_cast<std::size_t>(nodes_), -1);
  std::vector<char> seen(static_cast<std::size_t>(nodes_), 0);
  std::vector<int> frontier{src};
  seen[static_cast<std::size_t>(src)] = 1;
  while (!frontier.empty() &&
         seen[static_cast<std::size_t>(dst)] == 0) {
    std::vector<int> next;
    for (int at : frontier) {
      for (int nb = 0; nb < nodes_; ++nb) {
        const int l = link_by_pair_[static_cast<std::size_t>(at) *
                                        static_cast<std::size_t>(nodes_) +
                                    static_cast<std::size_t>(nb)];
        if (l < 0 || seen[static_cast<std::size_t>(nb)] != 0) continue;
        // Only dst may be entered dead-or-alive; transit must be alive.
        if (nb != dst && alive[static_cast<std::size_t>(nb)] == 0) continue;
        seen[static_cast<std::size_t>(nb)] = 1;
        prev_node[static_cast<std::size_t>(nb)] = at;
        prev_link[static_cast<std::size_t>(nb)] = l;
        next.push_back(nb);
      }
    }
    frontier = std::move(next);
  }
  if (seen[static_cast<std::size_t>(dst)] == 0) return {};  // severed
  std::vector<LinkId> path;
  for (int at = dst; at != src; at = prev_node[static_cast<std::size_t>(at)]) {
    path.push_back(prev_link[static_cast<std::size_t>(at)]);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

int Topology::hops(int src, int dst) const {
  int n = 0;
  int at = src;
  while (at != dst) {
    at = next_hop(at, dst);
    ++n;
  }
  return n;
}

int Topology::distance(int src, int dst) const {
  const Coord a = coord_of(src);
  const Coord b = coord_of(dst);
  switch (kind_) {
    case Kind::crossbar:
      return src == dst ? 0 : 1;
    case Kind::torus3d:
      return wrap_distance(a.x, b.x, dims_[0]) +
             wrap_distance(a.y, b.y, dims_[1]) +
             wrap_distance(a.z, b.z, dims_[2]);
  }
  return 0;
}

// ----------------------------------------------------------- TopologyModel

TopologyModel::TopologyModel(Topology topo, LinkParams params)
    : topo_(std::move(topo)), params_(params) {
  state_.assign(static_cast<std::size_t>(topo_.link_count()), LinkState{});
}

TopologyModel TopologyModel::build(const TopoConfig& cfg, int nodes,
                                   Time flat_latency_ns,
                                   double flat_bytes_per_ns) {
  Topology t = [&] {
    switch (cfg.kind) {
      case Kind::crossbar:
        return Topology::crossbar(nodes);
      case Kind::torus3d:
        M3RMA_REQUIRE(cfg.dim_x * cfg.dim_y * cfg.dim_z == nodes,
                      "torus3d dim_x*dim_y*dim_z must equal the rank count");
        return Topology::torus3d(cfg.dim_x, cfg.dim_y, cfg.dim_z);
    }
    M3RMA_ENSURE(false, "unreachable topology kind");
    return Topology::crossbar(nodes);
  }();
  const int diam = t.diameter() > 0 ? t.diameter() : 1;
  return TopologyModel(
      std::move(t),
      LinkParams{std::max<Time>(flat_latency_ns / diam, 1), flat_bytes_per_ns});
}

const TopologyModel::LinkState& TopologyModel::state(LinkId l) const {
  M3RMA_REQUIRE(l >= 0 && l < topo_.link_count(), "link id out of range");
  return state_[static_cast<std::size_t>(l)];
}

TopologyModel::Transit TopologyModel::reserve(LinkId l, Time earliest,
                                              std::size_t wire_bytes) {
  M3RMA_REQUIRE(l >= 0 && l < topo_.link_count(), "link id out of range");
  LinkState& st = state_[static_cast<std::size_t>(l)];
  const Time serial = static_cast<Time>(std::llround(
      static_cast<double>(wire_bytes) / params_.bytes_per_ns));
  Transit tr;
  tr.depart = std::max(earliest, st.busy_until);
  tr.serial = serial;
  st.busy_until = tr.depart + serial;
  st.msgs += 1;
  st.bytes += wire_bytes;
  st.busy_ns += serial;
  tr.arrive = tr.depart + serial + params_.latency_ns;
  return tr;
}

std::vector<std::uint64_t> TopologyModel::byte_totals() const {
  std::vector<std::uint64_t> out;
  out.reserve(state_.size());
  for (const LinkState& s : state_) out.push_back(s.bytes);
  return out;
}

}  // namespace m3rma::topo
