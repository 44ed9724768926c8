#include "runtime/world.hpp"

#include <numeric>
#include <string>

#include "common/diagnostics.hpp"
#include "runtime/comm.hpp"

namespace m3rma::runtime {

World::World(WorldConfig cfg) : cfg_(std::move(cfg)), eng_(cfg_.seed) {
  M3RMA_REQUIRE(cfg_.ranks > 0, "world needs at least one rank");
  fabric_ = std::make_unique<fabric::Fabric>(eng_, cfg_.ranks, cfg_.caps,
                                             cfg_.costs);
  if (cfg_.topo.has_value()) fabric_->set_topology(*cfg_.topo);
  // STONITH convergence: a reliability endpoint that exhausted its budget
  // cannot tell a dead peer from a partitioned one; declaring the peer
  // failed makes every rank's membership view agree, so survivors drain
  // their pending ops instead of waiting on messages the quarantined
  // endpoint would silently drop.
  fabric_->set_link_failure_policy([this](const fabric::LinkFailure& lf) {
    kill_rank(lf.peer, /*announce=*/true);
    return true;
  });
  for (int n = 0; n < cfg_.ranks; ++n) {
    auto it = cfg_.node_overrides.find(n);
    const memsim::DomainConfig& dc =
        it != cfg_.node_overrides.end() ? it->second : cfg_.node;
    mems_.push_back(std::make_unique<memsim::MemoryDomain>(dc));
    portals_.push_back(
        std::make_unique<portals::Portals>(fabric_->nic(n), *mems_.back()));
    p2ps_.push_back(std::make_unique<P2p>(eng_, fabric_->nic(n)));
  }
}

World::~World() = default;

memsim::MemoryDomain& World::memory(int node) {
  M3RMA_REQUIRE(node >= 0 && node < size(), "node index out of range");
  return *mems_[static_cast<std::size_t>(node)];
}

portals::Portals& World::portals(int node) {
  M3RMA_REQUIRE(node >= 0 && node < size(), "node index out of range");
  return *portals_[static_cast<std::size_t>(node)];
}

P2p& World::p2p(int node) {
  M3RMA_REQUIRE(node >= 0 && node < size(), "node index out of range");
  return *p2ps_[static_cast<std::size_t>(node)];
}

void World::run(const std::function<void(Rank&)>& fn) {
  M3RMA_REQUIRE(!ran_, "World::run is one-shot; create a new World");
  ran_ = true;
  for (int i = 0; i < cfg_.ranks; ++i) {
    rank_pids_.push_back(eng_.spawn(
        "rank" + std::to_string(i), [this, i, &fn](sim::Context& ctx) {
          Rank r(*this, ctx, i);
          fn(r);
        }));
  }
  for (const FaultEvent& fe : cfg_.faults.schedule) {
    M3RMA_REQUIRE(fe.rank >= 0 && fe.rank < cfg_.ranks,
                  "fault schedule names an out-of-range rank");
    const bool announce =
        fe.announce < 0 ? cfg_.faults.announce : fe.announce != 0;
    eng_.schedule_at(fe.at,
                     [this, fe, announce] { kill_rank(fe.rank, announce); });
  }
  eng_.run();
}

void World::kill_rank(int rank, bool announce) {
  M3RMA_REQUIRE(rank >= 0 && rank < cfg_.ranks, "kill of an out-of-range rank");
  if (fabric_->alive(rank)) {
    failed_ranks_.push_back(rank);
    if (static_cast<std::size_t>(rank) < rank_pids_.size()) {
      eng_.kill(rank_pids_[static_cast<std::size_t>(rank)]);
    }
  }
  // Always forwarded: a silent death recorded earlier may be announced now.
  fabric_->fail_node(rank, announce);
}

// ------------------------------------------------------------------- Rank

Rank::Rank(World& w, sim::Context& ctx, int id)
    : world_(&w), ctx_(&ctx), id_(id) {
  std::vector<int> everyone(static_cast<std::size_t>(w.size()));
  std::iota(everyone.begin(), everyone.end(), 0);
  comm_world_ = std::make_unique<Comm>(*this, /*context_id=*/0,
                                       std::move(everyone));
}

Rank::~Rank() = default;

Rank::Buffer Rank::alloc(std::uint64_t bytes, std::uint64_t align) {
  auto& mem = memory();
  const std::uint64_t addr = mem.alloc(bytes, align);
  return Buffer{addr, mem.raw(addr), bytes};
}

void Rank::free(const Buffer& b) { memory().dealloc(b.addr); }

}  // namespace m3rma::runtime
