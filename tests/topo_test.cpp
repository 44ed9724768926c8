// src/topo unit + integration tests: coordinate maps, dimension-ordered
// routing per topology kind, the store-and-forward link model, and the
// fabric's topology path (data integrity over multi-hop routes, per-link
// accounting, incast folding, loss recovery, derived parameters).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <utility>
#include <vector>

#include "common/diagnostics.hpp"
#include "core/rma_engine.hpp"
#include "runtime/world.hpp"
#include "topo/topology.hpp"

namespace m3rma {
namespace {

using runtime::Rank;
using runtime::World;
using runtime::WorldConfig;
using topo::Kind;
using topo::LinkId;
using topo::TopoConfig;
using topo::Topology;
using topo::TopologyModel;

// --------------------------------------------------------------- Topology

TEST(TopologyTest, CoordRoundTripTorus) {
  const auto t = Topology::torus3d(2, 3, 4);
  ASSERT_EQ(t.nodes(), 24);
  for (int n = 0; n < t.nodes(); ++n) {
    const auto c = t.coord_of(n);
    EXPECT_EQ(t.node_at(c), n);
    // x is the fastest-varying dimension.
    EXPECT_EQ(n, c.x + 2 * (c.y + 3 * c.z));
  }
}

TEST(TopologyTest, CrossbarIsOneHopDedicatedLinks) {
  const auto t = Topology::crossbar(5);
  EXPECT_EQ(t.link_count(), 5 * 4);  // every ordered pair gets a wire
  EXPECT_EQ(t.diameter(), 1);
  for (int s = 0; s < 5; ++s) {
    for (int d = 0; d < 5; ++d) {
      if (s == d) {
        EXPECT_TRUE(t.route(s, d).empty());
        continue;
      }
      const auto r = t.route(s, d);
      ASSERT_EQ(r.size(), 1u);
      EXPECT_EQ(t.link_src(r[0]), s);
      EXPECT_EQ(t.link_dst(r[0]), d);
    }
  }
}

TEST(TopologyTest, RingRoutesShortestDirectionTiesForward) {
  const auto t = Topology::torus3d(6, 1, 1);
  EXPECT_EQ(t.link_count(), 12);  // 6 nodes x 2 directions
  EXPECT_EQ(t.diameter(), 3);
  // Strictly shorter backward: 0 -> 5 -> 4.
  auto r = t.route(0, 4);
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(t.link_dst(r[0]), 5);
  EXPECT_EQ(t.link_dst(r[1]), 4);
  // Tie (3 hops either way): broken toward increasing coordinate.
  r = t.route(0, 3);
  ASSERT_EQ(r.size(), 3u);
  EXPECT_EQ(t.link_dst(r[0]), 1);
  EXPECT_EQ(t.link_dst(r[1]), 2);
  EXPECT_EQ(t.link_dst(r[2]), 3);
}

TEST(TopologyTest, TorusWrapsAroundShortestDirection) {
  const auto t = Topology::torus3d(4, 1, 1);
  // 0 -> 3 is one hop backward through the wrap link, not three forward.
  const auto r = t.route(0, 3);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(t.link_src(r[0]), 0);
  EXPECT_EQ(t.link_dst(r[0]), 3);
  EXPECT_EQ(t.distance(0, 3), 1);
  // 2x2x2: dim-ordered path 1=(1,0,0) -> 6=(0,1,1) goes x, y, then z.
  const auto t2 = Topology::torus3d(2, 2, 2);
  const auto r2 = t2.route(1, 6);
  ASSERT_EQ(r2.size(), 3u);
  EXPECT_EQ(t2.link_dst(r2[0]), 0);  // x: (1,0,0)->(0,0,0)
  EXPECT_EQ(t2.link_dst(r2[1]), 2);  // y: ->(0,1,0)
  EXPECT_EQ(t2.link_dst(r2[2]), 6);  // z: ->(0,1,1)
}

TEST(TopologyTest, RoutesAreContiguousChains) {
  const Topology topos[] = {Topology::crossbar(6), Topology::torus3d(7, 1, 1),
                            Topology::torus3d(3, 2, 2)};
  for (const auto& t : topos) {
    for (int s = 0; s < t.nodes(); ++s) {
      for (int d = 0; d < t.nodes(); ++d) {
        const auto r = t.route(s, d);
        int at = s;
        for (LinkId l : r) {
          EXPECT_EQ(t.link_src(l), at);
          at = t.link_dst(l);
        }
        EXPECT_EQ(at, d);
      }
    }
  }
}

TEST(TopologyTest, LinkNamesAreStableAndCsvSafe) {
  const auto t = Topology::torus3d(2, 2, 2);
  const LinkId l = t.link_between(4, 0);
  EXPECT_EQ(t.link_name(l), "plink:4->0");
  for (LinkId i = 0; i < t.link_count(); ++i) {
    EXPECT_EQ(t.link_name(i).find(','), std::string::npos);
  }
}

TEST(TopologyTest, BuildValidatesDimensions) {
  TopoConfig bad;
  bad.kind = Kind::torus3d;
  bad.dim_x = bad.dim_y = bad.dim_z = 2;
  EXPECT_THROW(TopologyModel::build(bad, /*nodes=*/7, 4200, 1.6),
               UsageError);
  TopoConfig ring;
  ring.kind = Kind::torus3d;
  ring.dim_x = 3;
  EXPECT_THROW(TopologyModel::build(ring, /*nodes=*/4, 4200, 1.6),
               UsageError);
}

TEST(TopologyTest, BuildDerivesLinkParamsFromFlatModel) {
  TopoConfig cfg;
  cfg.kind = Kind::torus3d;
  cfg.dim_x = cfg.dim_y = cfg.dim_z = 2;
  const auto m = TopologyModel::build(cfg, 8, /*flat_latency_ns=*/4200,
                                      /*flat_bytes_per_ns=*/1.6);
  // diameter(2x2x2) == 3, so per-hop latency is a third of the flat wire
  // latency and the longest route adds up to the flat model's number.
  ASSERT_EQ(m.topology().diameter(), 3);
  EXPECT_EQ(m.params().latency_ns, 1400u);
  EXPECT_DOUBLE_EQ(m.params().bytes_per_ns, 1.6);
}

TEST(TopologyModelTest, ReserveQueuesFifoStoreAndForward) {
  TopologyModel m(Topology::torus3d(2, 1, 1), topo::LinkParams{100, 2.0});
  const LinkId l = m.topology().link_between(0, 1);
  // First packet: 200 B at 2 B/ns = 100 ns serialization.
  const auto a = m.reserve(l, 1000, 200);
  EXPECT_EQ(a.depart, 1000u);
  EXPECT_EQ(a.serial, 100u);
  EXPECT_EQ(a.arrive, 1000u + 100u + 100u);  // store-and-forward tail
  // Second packet ready earlier still queues behind the first.
  const auto b = m.reserve(l, 900, 200);
  EXPECT_EQ(b.depart, 1100u);
  EXPECT_EQ(b.arrive, 1100u + 100u + 100u);
  const auto& st = m.state(l);
  EXPECT_EQ(st.msgs, 2u);
  EXPECT_EQ(st.bytes, 400u);
  EXPECT_EQ(st.busy_ns, 200u);
  EXPECT_EQ(st.busy_until, 1200u);
}

TEST(TopologyModelTest, ReserveRejectsLinkIdOutOfRange) {
  TopologyModel m(Topology::torus3d(2, 1, 1), topo::LinkParams{100, 2.0});
  EXPECT_THROW(m.reserve(-1, 0, 8), UsageError);
  EXPECT_THROW(m.reserve(m.topology().link_count(), 0, 8), UsageError);
}

// ------------------------------------------------------- fabric topo path

WorldConfig torus_config(int ranks, int x, int y, int z) {
  WorldConfig cfg;
  cfg.ranks = ranks;
  cfg.caps.ordered_delivery = true;
  cfg.costs.latency_ns = 4200;
  cfg.costs.bytes_per_ns = 1.6;
  cfg.seed = 20090922;
  TopoConfig tc;
  tc.kind = Kind::torus3d;
  tc.dim_x = x;
  tc.dim_y = y;
  tc.dim_z = z;
  cfg.topo = tc;
  return cfg;
}

TEST(TopoFabricTest, PutDataIntegrityOverMultiHopRoutes) {
  // Every rank puts a distinctive pattern to its successor; routes on the
  // 2x2x2 torus include 1-, 2- and 3-hop chains with transit nodes.
  auto cfg = torus_config(8, 2, 2, 2);
  World w(cfg);
  w.run([&](Rank& r) {
    core::RmaEngine rma(r, r.comm_world());
    auto buf = r.alloc(64);
    std::vector<std::byte> zeros(64, std::byte{0});
    r.memory().cpu_write(buf.addr, zeros);
    auto mems = rma.exchange_all(rma.attach(buf.addr, buf.size));
    r.comm_world().barrier();
    const int dst = (r.id() + 3) % 8;  // 1=(1,0,0)->4=(0,0,1): 2 hops, etc.
    auto src = r.alloc(64);
    std::vector<std::byte> pattern(64, static_cast<std::byte>(0xA0 + r.id()));
    r.memory().cpu_write(src.addr, pattern);
    rma.put_bytes(src.addr, mems[static_cast<std::size_t>(dst)], 0, 64, dst,
                  core::Attrs(core::RmaAttr::blocking) |
                      core::RmaAttr::remote_completion);
    rma.complete(dst);
    r.comm_world().barrier();
    std::vector<std::byte> got(64);
    r.memory().cpu_read_uncached(buf.addr, got);
    const auto want = static_cast<std::byte>(0xA0 + (r.id() + 5) % 8);
    for (std::byte b : got) EXPECT_EQ(b, want);
    rma.complete_collective();
  });
}

TEST(TopoFabricTest, BytesLandOnExactlyTheRoutedLinks) {
  // Two identical runs, except the second issues one extra 256 B put from
  // rank 1 to rank 6. The per-link byte-total delta must be: one data
  // packet on every hop of route(1,6) (x: 1->0, y: 0->2, z: 2->6), one
  // remote-completion ack on every hop of route(6,1), zero elsewhere —
  // collective traffic is structurally identical across the runs and
  // cancels out.
  auto run = [&](int puts) {
    auto cfg = torus_config(8, 2, 2, 2);
    World w(cfg);
    w.run([&](Rank& r) {
      core::RmaEngine rma(r, r.comm_world());
      auto [buf, mems] = rma.allocate_shared(256);
      if (r.id() == 1) {
        auto src = r.alloc(256);
        for (int i = 0; i < puts; ++i) {
          rma.put_bytes(src.addr, mems[6], 0, 256, 6,
                        core::Attrs(core::RmaAttr::blocking) |
                            core::RmaAttr::remote_completion);
        }
        rma.complete(6);
      }
      rma.complete_collective();
    });
    return w.fabric().topology()->byte_totals();
  };
  const auto base = run(1);
  const auto extra = run(2);
  ASSERT_EQ(base.size(), extra.size());

  const Topology t = Topology::torus3d(2, 2, 2);
  const auto fwd = t.route(1, 6);
  const auto rev = t.route(6, 1);
  ASSERT_EQ(fwd.size(), 3u);
  const std::uint64_t data_wire =
      extra[static_cast<std::size_t>(fwd[0])] -
      base[static_cast<std::size_t>(fwd[0])];
  EXPECT_GE(data_wire, 256u);  // payload + framing
  const std::uint64_t ack_wire =
      extra[static_cast<std::size_t>(rev[0])] -
      base[static_cast<std::size_t>(rev[0])];
  EXPECT_GT(ack_wire, 0u);
  EXPECT_LT(ack_wire, 256u);  // header-only
  for (LinkId l = 0; l < t.link_count(); ++l) {
    const std::uint64_t delta = extra[static_cast<std::size_t>(l)] -
                                base[static_cast<std::size_t>(l)];
    const bool on_fwd = std::find(fwd.begin(), fwd.end(), l) != fwd.end();
    const bool on_rev = std::find(rev.begin(), rev.end(), l) != rev.end();
    if (on_fwd) {
      EXPECT_EQ(delta, data_wire) << t.link_name(l);
    } else if (on_rev) {
      EXPECT_EQ(delta, ack_wire) << t.link_name(l);
    } else {
      EXPECT_EQ(delta, 0u) << t.link_name(l);
    }
  }
}

TEST(TopoFabricTest, IncastFoldsFlowsOntoTheLastZLink) {
  // The bench's Table S11 pin, miniaturized: 7 origins put to rank 0 on the
  // 2x2x2 torus; dimension-ordered routing folds the four z-far origins
  // (4,5,6,7) onto physical link 4->0, so it carries >= 2x (actually ~4x)
  // the bytes of the single-flow link 1->0.
  auto cfg = torus_config(8, 2, 2, 2);
  World w(cfg);
  w.run([&](Rank& r) {
    core::RmaEngine rma(r, r.comm_world());
    auto [buf, mems] = rma.allocate_shared(1024);
    if (r.id() != 0) {
      auto src = r.alloc(1024);
      for (int i = 0; i < 20; ++i) {
        rma.put_bytes(src.addr, mems[0], 0, 512, 0,
                      core::Attrs(core::RmaAttr::blocking));
      }
      rma.complete(0);
    }
    rma.complete_collective();
  });
  const TopologyModel* m = w.fabric().topology();
  const Topology& t = m->topology();
  const std::uint64_t hot = m->state(t.link_between(4, 0)).bytes;
  const std::uint64_t single = m->state(t.link_between(1, 0)).bytes;
  EXPECT_GE(hot, 2 * single);
  EXPECT_GT(m->state(t.link_between(2, 0)).bytes, single);
}

TEST(TopoFabricTest, LossOnTopoLinksRecoveredByReliability) {
  // Per-hop drop decisions come from per-physical-link rng streams; the
  // reliable transport must still deliver every put exactly once.
  constexpr int kPuts = 40;
  WorldConfig cfg;
  cfg.ranks = 2;
  cfg.costs.latency_ns = 4200;
  cfg.costs.bytes_per_ns = 1.6;
  cfg.costs.loss_rate = 0.15;
  cfg.costs.reliability.enabled = true;
  cfg.seed = 42;
  TopoConfig tc;
  tc.kind = Kind::torus3d;
  tc.dim_x = 2;
  cfg.topo = tc;
  World w(cfg);
  w.run([&](Rank& r) {
    core::RmaEngine rma(r, r.comm_world());
    auto [buf, mems] = rma.allocate_shared(64);
    if (r.id() == 0) {
      auto src = r.alloc(8);
      for (int i = 0; i < kPuts; ++i) {
        rma.put_bytes(src.addr, mems[1], 0, 8, 1,
                      core::Attrs(core::RmaAttr::blocking) |
                          core::RmaAttr::remote_completion);
      }
      rma.complete(1);
    }
    rma.complete_collective();
  });
  EXPECT_GT(w.fabric().dropped_packets(), 0u);
  EXPECT_GT(w.fabric().reliability_totals().retransmits, 0u);
  EXPECT_EQ(w.portals(1).received_data_ops(core::kPtData, 0),
            static_cast<std::uint64_t>(kPuts));
}

TEST(TopoFabricTest, DeadTransitNodeReroutesSurvivorTraffic) {
  // Raw fabric, 4-node ring: 0 -> 2 routes through node 1 (tie broken
  // forward). Before the crash the packet takes that route; after
  // fail_node(1) the same send is re-routed around the corpse (0 -> 3 -> 2)
  // and still delivers — survivor pairs stay connected across a dead
  // transit node. Traffic addressed AT the dead node still blackholes.
  sim::Engine eng{7};
  fabric::Fabric f(eng, 4, fabric::Capabilities{}, fabric::CostModel{});
  topo::TopoConfig tc;
  tc.kind = topo::Kind::torus3d;
  tc.dim_x = 4;
  f.set_topology(tc);
  int got_at_2 = 0;
  int got_at_0 = 0;
  f.nic(2).register_protocol(7, [&](fabric::Packet&&) { ++got_at_2; });
  f.nic(0).register_protocol(7, [&](fabric::Packet&&) { ++got_at_0; });
  auto make = [] {
    fabric::Packet p;
    p.protocol = 7;
    p.payload.assign(32, std::byte{0x5a});
    return p;
  };
  eng.spawn("driver", [&](sim::Context& ctx) {
    f.nic(0).send(2, make());
    ctx.delay(100'000);  // let it arrive
    f.fail_node(1, /*announce=*/true);
    f.nic(0).send(2, make());  // would transit dead node 1: rerouted 0->3->2
    ctx.delay(100'000);
    f.nic(0).send(1, make());  // addressed at the corpse itself: blackholed
    ctx.delay(100'000);
    f.nic(2).send(0, make());  // reverse route 2->3->0 never saw the corpse
  });
  eng.run();
  EXPECT_EQ(got_at_2, 2) << "survivor pair must stay connected via fallback";
  EXPECT_EQ(got_at_0, 1);
  EXPECT_EQ(f.rerouted_packets(), 1u);
  EXPECT_GT(f.blackholed_packets(), 0u);  // the send addressed at node 1
  // The quarantined router's links serialized nothing after the crash: the
  // fallback route is chosen at injection, before any dead hop is reserved.
  const topo::TopologyModel* m = f.topology();
  const topo::Topology& t = m->topology();
  EXPECT_EQ(m->state(t.link_between(1, 2)).msgs, 1u);  // pre-crash only
  EXPECT_EQ(m->state(t.link_between(0, 1)).msgs, 1u);  // pre-crash only
  EXPECT_EQ(m->state(t.link_between(3, 2)).msgs, 1u);  // the fallback hop
}

TEST(TopoFabricTest, RouterDyingMidFlightDivertsPacketAtCurrentHop) {
  // Raw fabric, 6-node ring: 0 -> 3 routes 0 -> 1 -> 2 -> 3 (tie broken
  // forward). Node 2 dies while the packet is still crossing the first
  // link, so the route was fine at injection; at node 1 the packet adapts
  // onto the live fallback 1 -> 0 -> 5 -> 4 -> 3 instead of carrying on
  // into the dead router.
  sim::Engine eng{7};
  fabric::Fabric f(eng, 6, fabric::Capabilities{}, fabric::CostModel{});
  topo::TopoConfig tc;
  tc.kind = topo::Kind::torus3d;
  tc.dim_x = 6;
  f.set_topology(tc);
  int got_at_3 = 0;
  std::vector<std::byte> payload;
  f.nic(3).register_protocol(7, [&](fabric::Packet&& p) {
    ++got_at_3;
    payload = p.payload;
  });
  eng.spawn("driver", [&](sim::Context& ctx) {
    fabric::Packet p;
    p.protocol = 7;
    p.payload.assign(32, std::byte{0x3c});
    f.nic(0).send(3, std::move(p));
    ctx.delay(500);  // first hop takes 1,400 ns of wire latency alone
    f.fail_node(2, /*announce=*/true);
  });
  eng.run();
  EXPECT_EQ(got_at_3, 1);
  EXPECT_EQ(payload, std::vector<std::byte>(32, std::byte{0x3c}));
  EXPECT_EQ(f.rerouted_packets(), 1u);
  EXPECT_EQ(f.blackholed_packets(), 0u);
  const topo::TopologyModel* m = f.topology();
  const topo::Topology& t = m->topology();
  EXPECT_EQ(m->state(t.link_between(0, 1)).msgs, 1u);  // before the death
  EXPECT_EQ(m->state(t.link_between(1, 2)).msgs, 0u);  // never entered
  for (auto [a, b] : {std::pair{1, 0}, {0, 5}, {5, 4}, {4, 3}}) {
    EXPECT_EQ(m->state(t.link_between(a, b)).msgs, 1u) << a << "->" << b;
  }
}

TEST(TopoFabricTest, NoTopologyMeansNoModel) {
  WorldConfig cfg;
  cfg.ranks = 2;
  World w(cfg);
  EXPECT_EQ(w.fabric().topology(), nullptr);
}

TEST(TopoFabricTest, SetTopologyIsOneShotAndPreTraffic) {
  WorldConfig cfg;
  cfg.ranks = 4;
  TopoConfig tc;
  tc.kind = Kind::crossbar;
  cfg.topo = tc;
  World w(cfg);
  EXPECT_THROW(w.fabric().set_topology(tc), UsageError);
}

}  // namespace
}  // namespace m3rma
