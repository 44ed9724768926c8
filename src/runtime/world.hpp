// Simulated parallel machine: N ranks, one per node, plus per-node NIC,
// memory domain, Portals endpoint and p2p endpoint.
//
// World wires the substrates together; Rank is the handle a rank's code
// uses inside World::run(). Nodes may be configured heterogeneously
// (endianness, address width, cache coherence) via WorldConfig overrides,
// matching the architectural diversity of paper §III-B.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "fabric/fabric.hpp"
#include "memsim/memory_domain.hpp"
#include "portals/portals.hpp"
#include "runtime/p2p.hpp"
#include "simtime/engine.hpp"

namespace m3rma::runtime {

class Comm;
class Rank;

/// One entry of the fault schedule: rank `rank` dies (fail-stop) at virtual
/// time `at`.
struct FaultEvent {
  int rank = -1;
  sim::Time at = 0;
  /// Per-event announce override: -1 inherits FaultPlan::announce, 0 forces
  /// a silent death, 1 forces an announced one. Chaos schedules mix both in
  /// a single plan.
  int announce = -1;
};

/// Deterministic fail-stop fault plan. Replays byte-identically under the
/// seed discipline: the schedule is fixed virtual-time events, detection and
/// drain are deterministic functions of the same event sequence. Whatever
/// the plan, a World declares a peer failed (kill + announce) when a
/// reliable link to it exhausts its retry budget (the STONITH policy), so
/// every rank's membership view converges instead of a TransportError
/// crossing the simulator.
struct FaultPlan {
  std::vector<FaultEvent> schedule;
  /// true: survivors learn of a scheduled death the instant it happens (the
  /// job launcher broadcasts it — fabric death listeners fire immediately).
  /// false: the crash is silent and survivors must detect it endogenously
  /// through reliability retry-budget exhaustion.
  bool announce = true;
};

/// When a replicated window's copies are maintained: eagerly (every write is
/// mirrored to the backup as it happens, PR-6 style) or lazily (origins keep
/// a local dirty-region write log and materialize the backup only at
/// failover). Lazy trades steady-state put overhead for failover stall.
enum class ReplMode : std::uint8_t { eager, lazy };

/// Opt-in primary/backup window replication policy, consumed by
/// core::RmaEngine::attach. Disabled (the default) is byte-identical to a
/// build without the replication machinery: attach sends nothing, handles
/// keep their unreplicated wire size, and no op is mirrored.
struct ReplicationConfig {
  bool enabled = false;
  /// Deterministic backup placement: the backup of rank r is
  /// (r + backup_offset) mod ranks. A window whose computed backup is the
  /// owner itself, already dead, or refuses the replica (endianness
  /// mismatch) is created unreplicated. After a failover the surviving copy
  /// re-replicates to the next rank along the same chain
  /// (owner + k*backup_offset), skipping dead or endian-mismatched ranks,
  /// so redundancy is restored and a second crash keeps the window alive.
  int backup_offset = 1;
  /// Recovery mode: eager mirror stream vs demand-driven (lazy) recovery.
  ReplMode mode = ReplMode::eager;
};

struct WorldConfig {
  int ranks = 8;
  fabric::Capabilities caps{};
  fabric::CostModel costs{};
  /// Memory/endianness/coherence config applied to every node...
  memsim::DomainConfig node{};
  /// ...except nodes listed here (heterogeneous systems, §III-B3).
  std::unordered_map<int, memsim::DomainConfig> node_overrides;
  std::uint64_t seed = 1;
  /// Fail-stop fault injection; empty schedule = no faults, byte-identical
  /// to a world without the fault model.
  FaultPlan faults{};
  /// Physical interconnect topology (src/topo): packets then traverse
  /// dimension-ordered hop chains with per-link contention. nullopt = the
  /// legacy flat crossbar, byte-identical to a world without the topo
  /// subsystem.
  std::optional<topo::TopoConfig> topo{};
  /// Primary/backup window replication (core::RmaEngine). Disabled =
  /// byte-identical to a world without the replication subsystem.
  ReplicationConfig replication{};
};

class World {
 public:
  explicit World(WorldConfig cfg);
  World(const World&) = delete;
  World& operator=(const World&) = delete;
  ~World();

  /// Execute `fn` as the body of every rank and run the simulation to
  /// completion. One-shot.
  void run(const std::function<void(Rank&)>& fn);

  int size() const { return cfg_.ranks; }
  const WorldConfig& config() const { return cfg_; }
  sim::Engine& engine() { return eng_; }
  fabric::Fabric& fabric() { return *fabric_; }
  memsim::MemoryDomain& memory(int node);
  portals::Portals& portals(int node);
  P2p& p2p(int node);

  /// Virtual time consumed by the whole run (valid after run()).
  sim::Time duration() const { return eng_.now(); }

  /// Fail-stop kill `rank` now (event or rank context): its process dies at
  /// its current blocking point, its node's links blackhole, and the death
  /// is announced to survivors. Scheduled FaultPlan entries route through
  /// this with the plan's announce flag instead.
  void kill_rank(int rank) { kill_rank(rank, /*announce=*/true); }
  bool alive(int rank) const { return fabric_->alive(rank); }
  const std::vector<int>& failed_ranks() const { return failed_ranks_; }

  /// Fresh communicator context id. Safe to call from rank code: the
  /// simulation is sequential, so this acts like a coordinated counter
  /// (callers still must agree on the value, e.g. leader + bcast).
  std::uint32_t alloc_context_id() { return next_ctx_++; }

 private:
  void kill_rank(int rank, bool announce);

  WorldConfig cfg_;
  sim::Engine eng_;
  std::unique_ptr<fabric::Fabric> fabric_;
  std::vector<std::unique_ptr<memsim::MemoryDomain>> mems_;
  std::vector<std::unique_ptr<portals::Portals>> portals_;
  std::vector<std::unique_ptr<P2p>> p2ps_;
  std::vector<int> rank_pids_;   // engine pid of each rank's process
  std::vector<int> failed_ranks_;  // in death order
  std::uint32_t next_ctx_ = 1;  // 0 is reserved for comm_world
  bool ran_ = false;
};

/// A rank's view of the machine, valid only inside World::run's body.
class Rank {
 public:
  Rank(World& w, sim::Context& ctx, int id);
  ~Rank();
  Rank(const Rank&) = delete;
  Rank& operator=(const Rank&) = delete;

  int id() const { return id_; }
  int size() const { return world_->size(); }
  World& world() { return *world_; }
  sim::Context& ctx() { return *ctx_; }
  memsim::MemoryDomain& memory() { return world_->memory(id_); }
  portals::Portals& portals() { return world_->portals(id_); }
  P2p& p2p() { return world_->p2p(id_); }

  /// The world communicator (all ranks, context id 0).
  Comm& comm_world() { return *comm_world_; }

  // ----- arena allocation (RMA-addressable memory) ------------------------

  struct Buffer {
    std::uint64_t addr = 0;   ///< domain address (what RMA peers use)
    std::byte* data = nullptr;  ///< host pointer for local access
    std::uint64_t size = 0;
  };
  Buffer alloc(std::uint64_t bytes, std::uint64_t align = 8);
  /// Typed convenience: buffer holding `count` objects of T, zeroed.
  template <class T>
  Buffer alloc_array(std::uint64_t count) {
    return alloc(count * sizeof(T), alignof(T));
  }
  void free(const Buffer& b);

 private:
  World* world_;
  sim::Context* ctx_;
  int id_;
  std::unique_ptr<Comm> comm_world_;
};

}  // namespace m3rma::runtime
