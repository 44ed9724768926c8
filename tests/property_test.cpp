// Property-based tests: randomized workloads checked against a sequential
// reference model, across seeds, serializers and network capabilities
// (parameterized gtest sweeps).
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <vector>

#include "common/rng.hpp"
#include "core/rma_engine.hpp"
#include "runtime/world.hpp"
#include "topo/topology.hpp"

namespace m3rma {
namespace {

using runtime::Rank;
using runtime::World;
using runtime::WorldConfig;

// ---------------------------------------------------------------------------
// Property 1: with atomicity, concurrent accumulates from many ranks equal
// the arithmetic sum regardless of serializer, network capabilities, seed.
// ---------------------------------------------------------------------------

struct AtomicityCase {
  core::SerializerKind serializer;
  bool ordered;
  bool acks;
  bool native_atomics;
  std::uint64_t seed;
};

class AtomicityProperty : public ::testing::TestWithParam<AtomicityCase> {};

TEST_P(AtomicityProperty, NoLostUpdatesUnderRandomContention) {
  const AtomicityCase& c = GetParam();
  WorldConfig cfg;
  cfg.ranks = 5;
  cfg.caps.ordered_delivery = c.ordered;
  cfg.caps.remote_completion_events = c.acks;
  cfg.caps.native_atomics = c.native_atomics;
  cfg.seed = c.seed;

  constexpr int kSlots = 8;
  std::vector<std::int64_t> expected(kSlots, 0);
  // Precompute each rank's random op stream (deterministic per seed).
  std::vector<std::vector<std::pair<int, std::int64_t>>> plans(5);
  {
    SplitMix64 rng(c.seed * 7919 + 13);
    for (int rk = 1; rk < 5; ++rk) {
      for (int i = 0; i < 15; ++i) {
        const int slot = static_cast<int>(rng.next_below(kSlots));
        const auto val = static_cast<std::int64_t>(rng.next_in(1, 9));
        plans[static_cast<std::size_t>(rk)].emplace_back(slot, val);
        expected[static_cast<std::size_t>(slot)] += val;
      }
    }
  }

  World w(cfg);
  std::vector<std::int64_t> got(kSlots, -1);
  w.run([&](Rank& r) {
    core::EngineConfig ec;
    ec.serializer = c.serializer;
    core::RmaEngine rma(r, r.comm_world(), ec);
    auto buf = r.alloc(kSlots * 8);
    std::vector<std::int64_t> zeros(kSlots, 0);
    r.memory().cpu_write(buf.addr,
                         std::span(reinterpret_cast<const std::byte*>(
                                       zeros.data()),
                                   kSlots * 8));
    auto mems = rma.exchange_all(rma.attach(buf.addr, buf.size));
    r.comm_world().barrier();
    const auto i64 = dt::Datatype::int64();
    if (r.id() != 0) {
      auto src = r.alloc(8);
      for (auto [slot, val] : plans[static_cast<std::size_t>(r.id())]) {
        std::memcpy(r.memory().raw(src.addr), &val, 8);
        rma.accumulate(portals::AccOp::sum, src.addr, 1, i64, mems[0],
                       static_cast<std::uint64_t>(slot) * 8, 1, i64, 0,
                       core::Attrs(core::RmaAttr::atomicity) |
                           core::RmaAttr::blocking);
      }
    } else if (c.serializer == core::SerializerKind::progress) {
      rma.progress_poll(5000000);
    }
    rma.complete_collective();
    if (r.id() == 0) {
      r.memory().cpu_read_uncached(
          buf.addr, std::span(reinterpret_cast<std::byte*>(got.data()),
                              kSlots * 8));
    }
    r.comm_world().barrier();
  });
  EXPECT_EQ(got, expected);
}

INSTANTIATE_TEST_SUITE_P(
    SerializersXNetworks, AtomicityProperty,
    ::testing::Values(
        AtomicityCase{core::SerializerKind::comm_thread, true, true, true, 1},
        AtomicityCase{core::SerializerKind::comm_thread, true, true, false,
                      2},
        AtomicityCase{core::SerializerKind::comm_thread, false, true, true,
                      3},
        AtomicityCase{core::SerializerKind::comm_thread, true, false, false,
                      4},
        AtomicityCase{core::SerializerKind::comm_thread, false, false, false,
                      5},
        AtomicityCase{core::SerializerKind::coarse_lock, true, true, true,
                      6},
        AtomicityCase{core::SerializerKind::coarse_lock, true, true, false,
                      7},
        AtomicityCase{core::SerializerKind::coarse_lock, true, false, false,
                      8},
        AtomicityCase{core::SerializerKind::progress, true, true, true, 9},
        AtomicityCase{core::SerializerKind::progress, true, true, false,
                      10}));

// ---------------------------------------------------------------------------
// Property 2: single-writer random put/get streams against a reference
// image — after complete(), a get returns exactly what the model predicts,
// for random datatype layouts and sizes.
// ---------------------------------------------------------------------------

class SingleWriterProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(SingleWriterProperty, PutsThenGetMatchesReferenceImage) {
  const std::uint64_t seed = GetParam();
  WorldConfig cfg;
  cfg.ranks = 2;
  cfg.seed = seed;
  constexpr std::uint64_t kRegion = 512;

  World w(cfg);
  w.run([&](Rank& r) {
    core::RmaEngine rma(r, r.comm_world());
    auto buf = r.alloc(kRegion);
    std::vector<std::byte> zeros(kRegion, std::byte{0});
    r.memory().cpu_write(buf.addr, zeros);
    auto mems = rma.exchange_all(rma.attach(buf.addr, buf.size));
    r.comm_world().barrier();
    if (r.id() == 0) {
      SplitMix64 rng(seed ^ 0xabcdef);
      std::vector<std::byte> reference(kRegion, std::byte{0});
      auto src = r.alloc(kRegion);
      for (int op = 0; op < 40; ++op) {
        const std::uint64_t len = rng.next_in(1, 64);
        const std::uint64_t disp = rng.next_below(kRegion - len + 1);
        std::vector<std::byte> data(len);
        for (auto& b : data) b = static_cast<std::byte>(rng.next());
        r.memory().cpu_write(src.addr, data);
        std::memcpy(reference.data() + disp, data.data(), len);
        // Ordering keeps the reference model valid (last write wins).
        rma.put_bytes(src.addr, mems[1], disp, len, 1,
                      core::Attrs(core::RmaAttr::ordering) |
                          core::RmaAttr::blocking);
      }
      rma.complete(1);
      auto probe = r.alloc(kRegion);
      rma.get_bytes(probe.addr, mems[1], 0, kRegion, 1,
                    core::Attrs(core::RmaAttr::blocking));
      std::vector<std::byte> got(kRegion);
      r.memory().cpu_read_uncached(probe.addr, got);
      EXPECT_EQ(got, reference);
    }
    rma.complete_collective();
  });
}

INSTANTIATE_TEST_SUITE_P(Seeds, SingleWriterProperty,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

// ---------------------------------------------------------------------------
// Property 3: random strided/indexed datatype transfers are equivalent to
// manual pack-transfer-unpack, across random layouts.
// ---------------------------------------------------------------------------

class DatatypeTransferProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DatatypeTransferProperty, TypedPutEqualsPackedPut) {
  const std::uint64_t seed = GetParam();
  SplitMix64 rng(seed * 31 + 7);

  // Random vector layout over int32.
  const std::uint64_t count = rng.next_in(2, 8);
  const std::uint64_t blocklen = rng.next_in(1, 6);
  const std::uint64_t stride = blocklen + rng.next_below(4);
  const auto i32 = dt::Datatype::int32();
  const auto layout = dt::Datatype::vector(count, blocklen, stride, i32);
  const auto packed_dt =
      dt::Datatype::contiguous(count * blocklen, i32);
  const std::uint64_t span = layout.extent();
  const std::uint64_t payload = layout.size();

  WorldConfig cfg;
  cfg.ranks = 2;
  cfg.seed = seed;
  World w(cfg);
  w.run([&](Rank& r) {
    core::RmaEngine rma(r, r.comm_world());
    auto buf = r.alloc(2 * span + 64);
    std::vector<std::byte> zeros(2 * span + 64, std::byte{0});
    r.memory().cpu_write(buf.addr, zeros);
    auto mems = rma.exchange_all(rma.attach(buf.addr, buf.size));
    r.comm_world().barrier();
    if (r.id() == 0) {
      SplitMix64 prng(seed ^ 0x1234);
      auto src = r.alloc(payload);
      std::vector<std::byte> data(payload);
      for (auto& b : data) b = static_cast<std::byte>(prng.next());
      r.memory().cpu_write(src.addr, data);

      // Route A: typed put (engine scatters into the layout at offset 0).
      rma.put(src.addr, count * blocklen, i32, mems[1], 0, 1, layout, 1,
              core::Attrs(core::RmaAttr::blocking) |
                  core::RmaAttr::remote_completion);
      // Route B: manual unpack locally, contiguous put of the whole span
      // at offset span (separate region).
      std::vector<std::byte> image(span, std::byte{0});
      layout.unpack(data.data(), 1, image.data());
      auto manual = r.alloc(span);
      r.memory().cpu_write(manual.addr, image);
      rma.put_bytes(manual.addr, mems[1], span, span, 1,
                    core::Attrs(core::RmaAttr::blocking) |
                        core::RmaAttr::remote_completion);

      // Compare both target regions (only bytes covered by the layout are
      // defined in region A; region B holds the full image).
      auto probe = r.alloc(2 * span);
      rma.get_bytes(probe.addr, mems[1], 0, 2 * span, 1,
                    core::Attrs(core::RmaAttr::blocking));
      std::vector<std::byte> got(2 * span);
      r.memory().cpu_read_uncached(probe.addr, got);
      layout.for_each_block(1, [&](const dt::Block& b) {
        for (std::uint64_t i = 0; i < b.nbytes(); ++i) {
          EXPECT_EQ(got[b.mem_offset + i], got[span + b.mem_offset + i])
              << "mismatch at layout offset " << b.mem_offset + i;
        }
      });
    }
    rma.complete_collective();
  });
  (void)packed_dt;
}

INSTANTIATE_TEST_SUITE_P(Layouts, DatatypeTransferProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ---------------------------------------------------------------------------
// Property 4: RMW linearizability — concurrent fetch_adds return unique
// preimages forming a contiguous range.
// ---------------------------------------------------------------------------

struct RmwCase {
  bool native;
  core::SerializerKind serializer;
  std::uint64_t seed;
};

class RmwProperty : public ::testing::TestWithParam<RmwCase> {};

TEST_P(RmwProperty, FetchAddPreimagesAreAPermutation) {
  const RmwCase& c = GetParam();
  WorldConfig cfg;
  cfg.ranks = 6;
  cfg.caps.native_atomics = c.native;
  cfg.seed = c.seed;
  constexpr int kPerRank = 8;

  std::vector<std::uint64_t> seen;
  World w(cfg);
  w.run([&](Rank& r) {
    core::EngineConfig ec;
    ec.serializer = c.serializer;
    core::RmaEngine rma(r, r.comm_world(), ec);
    auto buf = r.alloc(8);
    std::vector<std::byte> zeros(8, std::byte{0});
    r.memory().cpu_write(buf.addr, zeros);
    auto mems = rma.exchange_all(rma.attach(buf.addr, buf.size));
    r.comm_world().barrier();
    std::vector<std::uint64_t> mine;
    for (int i = 0; i < kPerRank; ++i) {
      mine.push_back(rma.fetch_add(mems[0], 0, 1, 0));
      // Random think time shuffles interleavings per seed.
      r.ctx().delay(r.world().engine().rng().next_below(5000));
    }
    // Gather everyone's preimages at rank 0.
    auto parts = r.comm_world().gather(
        std::span(reinterpret_cast<const std::byte*>(mine.data()),
                  mine.size() * 8),
        0);
    if (r.id() == 0) {
      for (const auto& part : parts) {
        const auto* vals =
            reinterpret_cast<const std::uint64_t*>(part.data());
        for (std::size_t i = 0; i < part.size() / 8; ++i) {
          seen.push_back(vals[i]);
        }
      }
    }
    rma.complete_collective();
  });
  std::sort(seen.begin(), seen.end());
  ASSERT_EQ(seen.size(), 6u * kPerRank);
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i], i) << "fetch_add preimages must form 0..N-1";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Routes, RmwProperty,
    ::testing::Values(RmwCase{true, core::SerializerKind::comm_thread, 100},
                      RmwCase{true, core::SerializerKind::comm_thread, 200},
                      RmwCase{false, core::SerializerKind::comm_thread, 300},
                      RmwCase{false, core::SerializerKind::coarse_lock, 400},
                      RmwCase{true, core::SerializerKind::coarse_lock, 500}));

// ---------------------------------------------------------------------------
// Property 5: determinism — identical configs and seeds give bit-identical
// timing; different seeds differ on unordered networks.
// ---------------------------------------------------------------------------

class DeterminismProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(DeterminismProperty, SameSeedSameClock) {
  auto run_once = [&](std::uint64_t seed) {
    WorldConfig cfg;
    cfg.ranks = 4;
    cfg.caps.ordered_delivery = false;
    cfg.costs.jitter_ns = 10000;
    cfg.seed = seed;
    World w(cfg);
    w.run([](Rank& r) {
      core::RmaEngine rma(r, r.comm_world());
      auto buf = r.alloc(1024);
      auto mems = rma.exchange_all(rma.attach(buf.addr, buf.size));
      auto src = r.alloc(1024);
      for (int i = 0; i < 10; ++i) {
        rma.put_bytes(src.addr, mems[(r.id() + 1) % 4], 0, 256,
                      (r.id() + 1) % 4);
      }
      rma.complete_collective();
    });
    return w.duration();
  };
  const std::uint64_t seed = GetParam();
  EXPECT_EQ(run_once(seed), run_once(seed));
  EXPECT_NE(run_once(seed), run_once(seed + 999));
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeterminismProperty,
                         ::testing::Values(7, 77, 777));

// ---------------------------------------------------------------------------
// Property 6: counter-delta conservation on a lossy reliable link. Whatever
// the wire drops, the reliability sublayer recovers: every put issued is
// applied at the target exactly once (retransmits make up the drops,
// duplicate suppression removes the excess), and every delayed-ack window
// the receiver opens is resolved by exactly one standalone or piggybacked
// ack.
// ---------------------------------------------------------------------------

class ConservationProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(ConservationProperty, LossyLinkConservesOpsAndAcks) {
  constexpr int kPuts = 40;
  WorldConfig cfg;
  cfg.ranks = 2;
  cfg.costs.loss_rate = 0.15;
  cfg.costs.reliability.enabled = true;
  cfg.seed = GetParam();
  World w(cfg);
  std::uint64_t puts_issued = 0;
  w.run([&](Rank& r) {
    core::RmaEngine eng(r, r.comm_world());
    auto [buf, mems] = eng.allocate_shared(64);
    if (r.id() == 0) {
      auto src = r.alloc(8);
      for (int i = 0; i < kPuts; ++i) {
        eng.put_bytes(src.addr, mems[1], 0, 8, 1,
                      core::Attrs(core::RmaAttr::blocking) |
                          core::RmaAttr::remote_completion);
      }
      puts_issued = eng.stats().puts;
    }
    eng.complete_collective();
  });
  // The run only makes sense as a conservation check if the wire actually
  // misbehaved and the sublayer actually repaired it.
  const fabric::ReliabilityStats totals = w.fabric().reliability_totals();
  EXPECT_GT(w.fabric().dropped_packets(), 0u);
  EXPECT_GT(totals.retransmits, 0u);
  // Put conservation: issued == applied at the target, exactly once each —
  // drops were recovered by retransmission, re-deliveries suppressed.
  EXPECT_EQ(puts_issued, static_cast<std::uint64_t>(kPuts));
  EXPECT_EQ(w.portals(1).received_data_ops(core::kPtData, 0),
            static_cast<std::uint64_t>(kPuts));
  // Ack conservation: each delayed-ack window opened is resolved by exactly
  // one ack, standalone or piggybacked on reverse data.
  EXPECT_EQ(totals.acks_sent + totals.acks_piggybacked, totals.ack_arms);
  // A healthy (if lossy) run quarantines nothing and drains nothing.
  EXPECT_EQ(totals.links_failed, 0u);
  EXPECT_EQ(totals.drained_packets, 0u);
  EXPECT_EQ(totals.sends_suppressed, 0u);
  EXPECT_TRUE(w.fabric().link_failures().empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConservationProperty,
                         ::testing::Values(11, 12, 13, 14, 15));

// ---------------------------------------------------------------------------
// Property 7: routing invariants, for every (src,dst) pair of every
// topology kind — routes are cycle-free chains whose length equals the
// wrap-aware Manhattan distance, and the fabric's per-link byte totals are
// a deterministic function of (seed, topology).
// ---------------------------------------------------------------------------

class TopoRoutingProperty : public ::testing::TestWithParam<int> {
 public:
  static topo::Topology make(int which) {
    switch (which) {
      case 0:
        return topo::Topology::crossbar(9);
      case 1:
        return topo::Topology::torus3d(5, 1, 1);
      case 2:
        return topo::Topology::torus3d(8, 1, 1);
      default:
        return topo::Topology::torus3d(3, 2, 2);
    }
  }
};

TEST_P(TopoRoutingProperty, RoutesAreCycleFreeShortestChains) {
  const topo::Topology t = make(GetParam());
  for (int s = 0; s < t.nodes(); ++s) {
    for (int d = 0; d < t.nodes(); ++d) {
      const auto route = t.route(s, d);
      // Chain contiguity and cycle freedom: every visited node is new.
      std::vector<bool> seen(static_cast<std::size_t>(t.nodes()), false);
      seen[static_cast<std::size_t>(s)] = true;
      int at = s;
      for (topo::LinkId l : route) {
        ASSERT_EQ(t.link_src(l), at);
        at = t.link_dst(l);
        ASSERT_FALSE(seen[static_cast<std::size_t>(at)])
            << "route " << s << "->" << d << " revisits node " << at;
        seen[static_cast<std::size_t>(at)] = true;
      }
      EXPECT_EQ(at, d);
      // Dimension-ordered routes are shortest: hop count equals the
      // wrap-aware Manhattan distance.
      EXPECT_EQ(static_cast<int>(route.size()), t.distance(s, d));
      EXPECT_EQ(t.hops(s, d), static_cast<int>(route.size()));
    }
  }
}

TEST_P(TopoRoutingProperty, SameSeedSameTopologySameLinkBytes) {
  // Only kinds whose dims fit the 8-rank world run the fabric half.
  topo::TopoConfig tc;
  switch (GetParam()) {
    case 0:
      tc.kind = topo::Kind::crossbar;
      break;
    case 2:
      tc.kind = topo::Kind::torus3d;
      tc.dim_x = 8;
      break;
    case 3:
      tc.kind = topo::Kind::torus3d;
      tc.dim_x = tc.dim_y = tc.dim_z = 2;
      break;
    default:
      GTEST_SKIP() << "dims do not tile 8 ranks";
  }
  auto run_once = [&]() {
    WorldConfig cfg;
    cfg.ranks = 8;
    cfg.caps.ordered_delivery = false;  // jitter draws exercise link rng
    cfg.costs.jitter_ns = 5000;
    cfg.seed = 4242;
    cfg.topo = tc;
    World w(cfg);
    w.run([](Rank& r) {
      core::RmaEngine rma(r, r.comm_world());
      auto [buf, mems] = rma.allocate_shared(512);
      auto src = r.alloc(512);
      for (int i = 0; i < 5; ++i) {
        const int dst = (r.id() + 1 + i) % 8;
        if (dst != r.id()) {
          rma.put_bytes(src.addr, mems[static_cast<std::size_t>(dst)], 0,
                        128, dst, core::Attrs(core::RmaAttr::blocking));
        }
      }
      rma.complete_collective();
    });
    return std::make_pair(w.fabric().topology()->byte_totals(),
                          w.duration());
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
  std::uint64_t total = 0;
  for (std::uint64_t v : a.first) total += v;
  EXPECT_GT(total, 0u);
}

INSTANTIATE_TEST_SUITE_P(Kinds, TopoRoutingProperty,
                         ::testing::Values(0, 1, 2, 3));

}  // namespace
}  // namespace m3rma
