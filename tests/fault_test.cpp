// Fail-stop fault injection: scheduled rank deaths (WorldConfig::faults)
// must leave the survivors able to finish. Every op addressed to a dead
// rank completes with an error status instead of hanging, complete()
// reports which targets failed, collectives degrade instead of
// deadlocking, and the whole schedule replays deterministically.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "core/rma_engine.hpp"
#include "runtime/comm.hpp"
#include "runtime/world.hpp"
#include "topo/topology.hpp"
#include "trace/recorder.hpp"

namespace m3rma {
namespace {

using core::Attrs;
using core::EngineConfig;
using core::OpStatus;
using core::RmaAttr;
using core::RmaEngine;
using core::SerializerKind;
using runtime::Rank;
using runtime::World;
using runtime::WorldConfig;

template <class T>
void store(Rank& r, std::uint64_t addr, const std::vector<T>& vals) {
  r.memory().cpu_write(
      addr, std::span(reinterpret_cast<const std::byte*>(vals.data()),
                      vals.size() * sizeof(T)));
}

template <class T>
std::vector<T> load(Rank& r, std::uint64_t addr, std::size_t n) {
  std::vector<T> out(n);
  r.memory().cpu_read_uncached(
      addr,
      std::span(reinterpret_cast<std::byte*>(out.data()), n * sizeof(T)));
  return out;
}

// The acceptance scenario: rank 2 dies mid-run while every survivor is
// putting at it and at each other. Survivors finish, ops to the dead rank
// carry target_failed, healthy traffic is untouched, Engine::run returns.
TEST(FaultInjection, ScheduledCrashDrainsOpsAndSurvivorsFinish) {
  WorldConfig cfg;
  cfg.ranks = 4;
  cfg.seed = 9;
  cfg.faults.schedule = {{/*rank=*/2, /*at=*/200'000}};
  World w(cfg);
  bool finished[4] = {false, false, false, false};
  int puts_to_dead_failed[4] = {0, 0, 0, 0};
  int puts_to_live_failed[4] = {0, 0, 0, 0};
  std::vector<int> failed_targets[4];
  std::uint64_t drained_plus_fast[4] = {0, 0, 0, 0};
  w.run([&](Rank& r) {
    const int me = r.id();
    RmaEngine eng(r, r.comm_world());
    auto [buf, mems] = eng.allocate_shared(64);
    auto src = r.alloc(8);
    const int live_peer = (me + 1) % 4 == 2 ? (me + 2) % 4 : (me + 1) % 4;
    for (int i = 0; i < 50; ++i) {
      core::Request to_dead =
          eng.put_bytes(src.addr, mems[2], 0, 8, 2,
                        Attrs(RmaAttr::blocking) |
                            RmaAttr::remote_completion);
      if (to_dead.failed()) puts_to_dead_failed[me] += 1;
      core::Request to_live =
          eng.put_bytes(src.addr, mems[static_cast<std::size_t>(live_peer)],
                        0, 8, live_peer,
                        Attrs(RmaAttr::blocking) |
                            RmaAttr::remote_completion);
      if (to_live.failed()) puts_to_live_failed[me] += 1;
      r.ctx().delay(10'000);
    }
    failed_targets[me] = eng.complete_collective();
    drained_plus_fast[me] = eng.stats().drained_ops + eng.stats().failed_fast;
    finished[me] = true;
  });
  EXPECT_EQ(w.failed_ranks(), std::vector<int>{2});
  EXPECT_FALSE(w.alive(2));
  for (int me : {0, 1, 3}) {
    EXPECT_TRUE(finished[me]) << "rank " << me;
    // The crash lands at 200'000, a fifth of the way into the put loop:
    // later puts to the dead rank must all carry the error status...
    EXPECT_GT(puts_to_dead_failed[me], 0) << "rank " << me;
    EXPECT_GT(drained_plus_fast[me], 0u) << "rank " << me;
    // ...while puts between survivors never fail.
    EXPECT_EQ(puts_to_live_failed[me], 0) << "rank " << me;
    EXPECT_EQ(failed_targets[me], std::vector<int>{2}) << "rank " << me;
  }
  EXPECT_FALSE(finished[2]);
}

// Same seed + same schedule => byte-identical run: durations, death times,
// per-rank op statistics all replay exactly.
TEST(FaultInjection, FaultScheduleReplaysDeterministically) {
  struct Outcome {
    sim::Time duration = 0;
    std::vector<int> failed;
    std::uint64_t drained = 0;
    std::uint64_t failed_fast = 0;
    sim::Time detected_at = 0;
    bool operator==(const Outcome&) const = default;
  };
  auto run_once = [] {
    WorldConfig cfg;
    cfg.ranks = 3;
    cfg.seed = 4242;
    cfg.faults.schedule = {{/*rank=*/1, /*at=*/150'000}};
    World w(cfg);
    Outcome o;
    w.run([&](Rank& r) {
      RmaEngine eng(r, r.comm_world());
      auto [buf, mems] = eng.allocate_shared(64);
      auto src = r.alloc(8);
      for (int i = 0; i < 40; ++i) {
        eng.put_bytes(src.addr, mems[1], 0, 8, 1,
                      Attrs(RmaAttr::blocking) |
                          RmaAttr::remote_completion);
        r.ctx().delay(8'000);
      }
      eng.complete_collective();
      if (r.id() == 0) {
        o.drained = eng.stats().drained_ops;
        o.failed_fast = eng.stats().failed_fast;
        o.detected_at = eng.target_failed_at(1);
      }
    });
    o.duration = w.duration();
    o.failed = w.failed_ranks();
    return o;
  };
  const Outcome a = run_once();
  const Outcome b = run_once();
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.failed, std::vector<int>{1});
  EXPECT_EQ(a.detected_at, 150'000u);
  EXPECT_GT(a.drained + a.failed_fast, 0u);
}

// Crash while a flush is in progress: the origin has a window of
// unconfirmed rc puts and sits inside complete() when the target dies.
// complete() must return (reporting the dead target), not spin forever
// waiting for acks that cannot arrive.
TEST(FaultInjection, CrashDuringFlushDrainsOutstandingOps) {
  WorldConfig cfg;
  cfg.ranks = 2;
  cfg.seed = 31;
  cfg.caps.remote_completion_events = true;
  // Injecting 64 puts costs ~300ns each, and every ack needs a >8us round
  // trip: a crash 10us after the issue burst starts is guaranteed to land
  // with unconfirmed puts outstanding.
  cfg.faults.schedule = {{/*rank=*/1, /*at=*/110'000}};
  World w(cfg);
  std::vector<int> failed;
  std::uint64_t drained = 0;
  bool finished = false;
  w.run([&](Rank& r) {
    RmaEngine eng(r, r.comm_world());
    auto [buf, mems] = eng.allocate_shared(4096);
    if (r.id() == 0) {
      r.ctx().delay(100'000 - r.ctx().now());
      auto src = r.alloc(1024);
      for (int i = 0; i < 64; ++i) {
        eng.put_bytes(src.addr, mems[1], 0, 1024, 1,
                      Attrs(RmaAttr::remote_completion));
      }
      failed = eng.complete(core::kAllRanks);
      drained = eng.stats().drained_ops;
      finished = true;
    }
    eng.complete_collective();
  });
  EXPECT_TRUE(finished);
  EXPECT_EQ(failed, std::vector<int>{1});
  EXPECT_GT(drained, 0u) << "the crash must land while puts are in flight";
  EXPECT_EQ(w.failed_ranks(), std::vector<int>{1});
}

// Two ranks crash at the same virtual instant; the deaths are processed in
// schedule order and both are reported.
TEST(FaultInjection, TwoRanksCrashingSameTick) {
  WorldConfig cfg;
  cfg.ranks = 4;
  cfg.seed = 5;
  cfg.faults.schedule = {{/*rank=*/1, /*at=*/120'000},
                         {/*rank=*/3, /*at=*/120'000}};
  World w(cfg);
  bool finished[4] = {false, false, false, false};
  std::vector<int> failed_targets[4];
  w.run([&](Rank& r) {
    const int me = r.id();
    RmaEngine eng(r, r.comm_world());
    auto [buf, mems] = eng.allocate_shared(64);
    auto src = r.alloc(8);
    for (int i = 0; i < 40; ++i) {
      for (int t = 0; t < 4; ++t) {
        if (t == me) continue;
        eng.put_bytes(src.addr, mems[static_cast<std::size_t>(t)], 0, 8, t,
                      Attrs(RmaAttr::blocking) |
                          RmaAttr::remote_completion);
      }
      r.ctx().delay(10'000);
    }
    failed_targets[me] = eng.complete_collective();
    finished[me] = true;
  });
  EXPECT_EQ(w.failed_ranks(), (std::vector<int>{1, 3}));
  for (int me : {0, 2}) {
    EXPECT_TRUE(finished[me]) << "rank " << me;
    EXPECT_EQ(failed_targets[me], (std::vector<int>{1, 3})) << "rank " << me;
  }
  EXPECT_FALSE(finished[1]);
  EXPECT_FALSE(finished[3]);
}

// Coarse-lock serializer: a rank dies somewhere inside its
// lock/transfer/unlock window. The lock manager must reclaim the lock so
// the surviving contender keeps making progress and its updates all land.
TEST(FaultInjection, CrashUnderCoarseLockReleasesTheLock) {
  WorldConfig cfg;
  cfg.ranks = 3;
  cfg.seed = 12;
  cfg.caps.native_atomics = false;
  cfg.faults.schedule = {{/*rank=*/1, /*at=*/300'000}};
  World w(cfg);
  std::int64_t counter_at_root = -1;
  int rank2_ok = 0;
  w.run([&](Rank& r) {
    EngineConfig ec;
    ec.serializer = SerializerKind::coarse_lock;
    RmaEngine eng(r, r.comm_world(), ec);
    auto buf = r.alloc(8);
    store(r, buf.addr, std::vector<std::int64_t>{0});
    auto mems = eng.exchange_all(eng.attach(buf.addr, buf.size));
    const auto i64 = dt::Datatype::int64();
    auto src = r.alloc(8);
    store(r, src.addr, std::vector<std::int64_t>{1});
    if (r.id() != 0) {
      for (int i = 0; i < 30; ++i) {
        core::Request req = eng.accumulate(
            portals::AccOp::sum, src.addr, 1, i64, mems[0], 0, 1, i64, 0,
            Attrs(RmaAttr::atomicity) | RmaAttr::blocking);
        if (r.id() == 2 && !req.failed()) rank2_ok += 1;
        r.ctx().delay(20'000);
      }
    }
    eng.complete_collective();
    if (r.id() == 0) {
      counter_at_root = load<std::int64_t>(r, buf.addr, 1)[0];
    }
  });
  EXPECT_EQ(w.failed_ranks(), std::vector<int>{1});
  // Rank 2 outlives the crash: all 30 of its atomic updates must have been
  // granted the lock and applied (rank 0, the target, is healthy).
  EXPECT_EQ(rank2_ok, 30);
  // The root's counter holds every surviving update plus whatever rank 1
  // finished before dying — between 30 and 60, and at least rank 2's share.
  EXPECT_GE(counter_at_root, 30);
  EXPECT_LE(counter_at_root, 60);
}

// Ops issued after the death announcement never touch the wire: they fail
// fast with a pre-completed request, and blocking RMW throws.
TEST(FaultInjection, OpsToKnownDeadTargetFailFast) {
  WorldConfig cfg;
  cfg.ranks = 3;
  cfg.seed = 77;
  cfg.faults.schedule = {{/*rank=*/1, /*at=*/50'000}};
  World w(cfg);
  bool checked = false;
  w.run([&](Rank& r) {
    RmaEngine eng(r, r.comm_world());
    auto [buf, mems] = eng.allocate_shared(64);
    r.ctx().delay(100'000);  // sleep through the announcement
    if (r.id() == 0) {
      EXPECT_TRUE(eng.target_failed(1));
      EXPECT_EQ(eng.target_failed_at(1), 50'000u);
      EXPECT_FALSE(eng.target_failed(2));
      auto src = r.alloc(8);
      const std::uint64_t wire_before = w.fabric().total_messages();
      for (int i = 0; i < 10; ++i) {
        core::Request req = eng.put_bytes(src.addr, mems[1], 0, 8, 1);
        EXPECT_TRUE(req.done());
        EXPECT_TRUE(req.failed());
        EXPECT_EQ(req.status(), OpStatus::target_failed);
      }
      EXPECT_EQ(eng.stats().failed_fast, 10u);
      EXPECT_EQ(w.fabric().total_messages(), wire_before);
      EXPECT_THROW(eng.fetch_add(mems[1], 0, 1, 1), RankFailedError);
      checked = true;
    }
    eng.complete_collective();
  });
  EXPECT_TRUE(checked);
}

// A blocking RMW whose unreplicated target dies after the request left but
// before the reply came back throws, whichever mechanism carried it: the
// NIC's fetch-atomic, the serializer's RMW active message, or the coarse
// lock's locked get-modify-put.
struct RmwMech {
  const char* name;
  bool native_atomics;
  SerializerKind serializer;
};

class RmwTargetDiesBeforeReplying : public ::testing::TestWithParam<RmwMech> {
};

TEST_P(RmwTargetDiesBeforeReplying, BlockingRmwThrows) {
  WorldConfig cfg;
  cfg.ranks = 2;
  cfg.seed = 21;
  cfg.caps.native_atomics = GetParam().native_atomics;
  World w(cfg);
  bool checked = false;
  w.run([&](Rank& r) {
    EngineConfig ec;
    ec.serializer = GetParam().serializer;
    RmaEngine eng(r, r.comm_world(), ec);
    auto [buf, mems] = eng.allocate_shared(64);
    if (r.id() == 0) {
      // Rank 1 dies while the first message of the RMW is on the wire.
      w.engine().schedule_in(1000, [&w] { w.kill_rank(1); });
      EXPECT_THROW(eng.fetch_add(mems[1], 0, 1, 1), RankFailedError);
      EXPECT_TRUE(eng.target_failed(1));
      checked = true;
    }
    eng.complete_collective();
  });
  EXPECT_TRUE(checked);
  EXPECT_EQ(w.failed_ranks(), std::vector<int>{1});
}

INSTANTIATE_TEST_SUITE_P(
    Mechanisms, RmwTargetDiesBeforeReplying,
    ::testing::Values(RmwMech{"nic", true, SerializerKind::comm_thread},
                      RmwMech{"am", false, SerializerKind::comm_thread},
                      RmwMech{"lock", false, SerializerKind::coarse_lock}),
    [](const auto& info) { return std::string(info.param.name); });

// Silent crash (announce=false): nobody tells the survivors, so detection
// must come endogenously from the reliable transport's retry budget, and
// only after the backed-off retransmission rounds have run their course.
TEST(FaultInjection, SilentCrashDetectedThroughRetryBudget) {
  WorldConfig cfg;
  cfg.ranks = 2;
  cfg.seed = 3;
  cfg.costs.reliability.enabled = true;
  cfg.costs.reliability.retry_budget = 3;
  cfg.faults.schedule = {{/*rank=*/1, /*at=*/50'000}};
  cfg.faults.announce = false;
  World w(cfg);
  sim::Time detected_at = 0;
  bool put_failed = false;
  bool finished = false;
  w.run([&](Rank& r) {
    RmaEngine eng(r, r.comm_world());
    auto [buf, mems] = eng.allocate_shared(64);
    if (r.id() == 0) {
      r.ctx().delay(60'000);  // the peer is already (silently) dead
      EXPECT_FALSE(eng.target_failed(1)) << "nothing announced the death";
      auto src = r.alloc(8);
      core::Request req =
          eng.put_bytes(src.addr, mems[1], 0, 8, 1,
                        Attrs(RmaAttr::blocking) |
                            RmaAttr::remote_completion);
      put_failed = req.failed();
      detected_at = eng.target_failed_at(1);
      finished = true;
    }
    eng.complete_collective();
  });
  EXPECT_TRUE(finished);
  EXPECT_TRUE(put_failed);
  // Detection strictly follows the crash: the put was issued at 60'000 and
  // had to sit through retry_budget backed-off retransmission rounds first.
  EXPECT_GT(detected_at, 60'000u);
  ASSERT_EQ(w.fabric().link_failures().size(), 1u);
  const fabric::LinkFailure& lf = w.fabric().link_failures().front();
  EXPECT_EQ(lf.src, 0);
  EXPECT_EQ(lf.peer, 1);
  EXPECT_EQ(lf.attempts, 3);
  EXPECT_EQ(lf.detected_at, detected_at);
  EXPECT_GT(w.fabric().blackholed_packets(), 0u);
  // The silent death was recorded when it happened; the STONITH
  // announcement later must not double-report it.
  EXPECT_EQ(w.failed_ranks(), std::vector<int>{1});
}

// Collectives with a dead member keep their message schedule minus the
// dead edges: barrier, gather, reduce and bcast all terminate, with the
// dead rank's contributions empty/zero.
TEST(FaultInjection, CollectivesDegradeWithDeadMember) {
  WorldConfig cfg;
  cfg.ranks = 4;
  cfg.seed = 8;
  cfg.faults.schedule = {{/*rank=*/3, /*at=*/10'000}};
  World w(cfg);
  std::vector<std::vector<std::byte>> gathered;
  std::uint64_t reduced = 0;
  std::vector<std::byte> bcast_seen;
  int barriers_done = 0;
  w.run([&](Rank& r) {
    auto& comm = r.comm_world();
    r.ctx().delay(20'000);  // rank 3 dies in this window
    comm.barrier();
    const std::byte tag{static_cast<unsigned char>(0x10 + r.id())};
    std::vector<std::byte> mine(3, tag);
    auto g = comm.gather(std::span<const std::byte>(mine), 0);
    reduced = comm.reduce_sum(static_cast<std::uint64_t>(r.id()) + 1, 0);
    std::vector<std::byte> payload;
    if (r.id() == 0) payload.assign(5, std::byte{0x7e});
    comm.bcast(payload, 0);
    if (r.id() == 0) gathered = std::move(g);
    if (r.id() == 1) bcast_seen = payload;
    barriers_done += 1;
  });
  EXPECT_EQ(barriers_done, 3);  // the three survivors
  ASSERT_EQ(gathered.size(), 4u);
  EXPECT_EQ(gathered[1], std::vector<std::byte>(3, std::byte{0x11}));
  EXPECT_EQ(gathered[2], std::vector<std::byte>(3, std::byte{0x12}));
  EXPECT_TRUE(gathered[3].empty()) << "dead rank contributes nothing";
  EXPECT_EQ(reduced, 1u + 2u + 3u);  // ranks 0,1,2; rank 3's 4 is lost
  EXPECT_EQ(bcast_seen, std::vector<std::byte>(5, std::byte{0x7e}));
}

// Fail-stop on a physical topology: a crash mid-incast quarantines the
// dead node's links — its in-flight packets vanish at the next hop instead
// of delivering. Survivor routes that avoid the dead node keep working,
// the degraded collectives finish, and the whole thing replays
// byte-identically down to per-physical-link byte totals.
//
// Geometry (2x2x2 torus, node = x + 2y + 4z): the corner 7 = (1,1,1) is
// transit only for traffic the survivors never exchange here — incast
// routes into 0 transit nodes {2,4,6}, the flush-probe replies out of 0
// transit {1,2}, and the dissemination barrier's surviving pairs are all
// routed off-corner — so killing 7 leaves every survivor path functional.
// (Flows that DO route through a dead transit node are covered at the
// fabric level by TopoFabricTest.DeadTransitNodeBlackholesRoutedPackets:
// with non-adaptive dimension-ordered routing such a directed pair is
// simply severed.)
TEST(FaultInjection, TorusCrashQuarantinesLinksButSurvivorsFinishIncast) {
  struct Outcome {
    sim::Time duration = 0;
    std::uint64_t at_root = 0;  // data ops delivered to rank 0
    std::uint64_t blackholed = 0;
    std::vector<int> failed;
    std::vector<std::uint64_t> link_bytes;
    int finished = 0;
    bool operator==(const Outcome&) const = default;
  };
  constexpr int kPuts = 30;
  auto run_once = [&] {
    WorldConfig cfg;
    cfg.ranks = 8;
    cfg.seed = 1337;
    cfg.costs.latency_ns = 4200;
    cfg.costs.bytes_per_ns = 1.6;
    topo::TopoConfig tc;
    tc.kind = topo::Kind::torus3d;
    tc.dim_x = tc.dim_y = tc.dim_z = 2;
    cfg.topo = tc;
    // Lands mid-stream: every origin is still issuing, so rank 7 dies with
    // packets of its own on the wire (quarantined at their next hop).
    cfg.faults.schedule = {{/*rank=*/7, /*at=*/295'000}};
    World w(cfg);
    Outcome o;
    w.run([&](Rank& r) {
      RmaEngine eng(r, r.comm_world());
      auto [buf, mems] = eng.allocate_shared(1024);
      auto src = r.alloc(256);
      if (r.id() != 0) {
        for (int i = 0; i < kPuts; ++i) {
          // The incast: everyone hammers rank 0. Local completion only, so
          // no ack has to find its way back through the dead region.
          eng.put_bytes(src.addr, mems[0], 0, 256, 0,
                        Attrs(RmaAttr::blocking));
          r.ctx().delay(10'000);
        }
      }
      o.failed = eng.complete_collective();
      o.finished += 1;
    });
    o.duration = w.duration();
    for (int src = 1; src < 8; ++src) {
      o.at_root += w.portals(0).received_data_ops(core::kPtData, src);
    }
    o.blackholed = w.fabric().blackholed_packets();
    o.link_bytes = w.fabric().topology()->byte_totals();
    return o;
  };
  const Outcome o = run_once();
  EXPECT_EQ(o.finished, 7);  // all survivors, not rank 7
  EXPECT_EQ(o.failed, std::vector<int>{7});
  // Every survivor origin's route to rank 0 avoids node 7, so all their
  // puts land; rank 7 itself delivered only what it issued before dying.
  EXPECT_GE(o.at_root, static_cast<std::uint64_t>(6 * kPuts));
  EXPECT_LT(o.at_root, static_cast<std::uint64_t>(7 * kPuts));
  // The quarantine ate rank 7's in-flight packets.
  EXPECT_GT(o.blackholed, 0u);
  // Deterministic replay, down to per-physical-link byte totals.
  EXPECT_EQ(o, run_once());
}

// The failure path is observable: detection and drain instants appear in the
// trace under the rma category, and the engine's stats count them.
TEST(FaultInjection, FaultEventsAppearInTrace) {
  trace::Recorder rec;
  WorldConfig cfg;
  cfg.ranks = 2;
  cfg.seed = 21;
  cfg.faults.schedule = {{/*rank=*/1, /*at=*/30'000}};
  World w(cfg);
  w.engine().set_tracer(&rec);
  core::OpStats origin;
  w.run([&](Rank& r) {
    RmaEngine eng(r, r.comm_world());
    auto [buf, mems] = eng.allocate_shared(64);
    if (r.id() == 0) {
      auto src = r.alloc(8);
      for (int i = 0; i < 20; ++i) {
        eng.put_bytes(src.addr, mems[1], 0, 8, 1,
                      Attrs(RmaAttr::remote_completion));
        r.ctx().delay(5'000);
      }
    }
    eng.complete_collective();
    if (r.id() == 0) origin = eng.stats();
  });
  EXPECT_EQ(origin.target_failures, 1u);
  EXPECT_GT(origin.drained_ops + origin.failed_fast, 0u);
  // The chrome export stays well-formed even though the dead rank's spans
  // were cut short.
  const std::string json = rec.chrome_json();
  EXPECT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '{');
}

// A rank's engine lives on its fiber stack, so every engine timer must
// stand down once the rank is killed. Lock grants leave the lock manager
// 300 ns after the request is serviced; killing the manager anywhere inside
// that window must neither crash nor strand the requesters, who see their
// atomic updates fail instead.
TEST(FaultInjection, KillLockManagerInsideGrantWindow) {
  for (sim::Time at = 22'000; at <= 26'000; at += 7) {
    WorldConfig cfg;
    cfg.ranks = 3;
    cfg.seed = 12;
    cfg.caps.native_atomics = false;
    cfg.faults.schedule = {{/*rank=*/0, at}};
    World w(cfg);
    int finished = 0;
    w.run([&](Rank& r) {
      EngineConfig ec;
      ec.serializer = SerializerKind::coarse_lock;
      RmaEngine eng(r, r.comm_world(), ec);
      auto buf = r.alloc(8);
      store(r, buf.addr, std::vector<std::int64_t>{0});
      auto mems = eng.exchange_all(eng.attach(buf.addr, buf.size));
      const auto i64 = dt::Datatype::int64();
      auto src = r.alloc(8);
      store(r, src.addr, std::vector<std::int64_t>{1});
      if (r.id() != 0) {
        for (int i = 0; i < 40; ++i) {
          eng.accumulate(portals::AccOp::sum, src.addr, 1, i64, mems[0], 0,
                         1, i64, 0,
                         Attrs(RmaAttr::atomicity) | RmaAttr::blocking);
        }
      }
      eng.complete_collective();
      finished += 1;
    });
    EXPECT_EQ(w.failed_ranks(), std::vector<int>{0}) << "kill at " << at;
    EXPECT_EQ(finished, 2) << "kill at " << at;
  }
}

// Same hazard at the origin: on a network without completion events,
// complete() confirms by count queries and re-queries 2 us after a short
// count. Killing the origin while such a retry is pending must not let the
// retry touch the dead rank's engine.
TEST(FaultInjection, KillOriginDuringFlushBackoff) {
  constexpr std::uint64_t kBlock = 4096;
  for (sim::Time at = 34'000; at <= 37'000; at += 7) {
    WorldConfig cfg;
    cfg.ranks = 2;
    cfg.seed = 5;
    cfg.caps.ordered_delivery = false;
    cfg.caps.remote_completion_events = false;
    cfg.faults.schedule = {{/*rank=*/1, at}};
    World w(cfg);
    bool target_finished = false;
    w.run([&](Rank& r) {
      RmaEngine eng(r, r.comm_world());
      auto [buf, mems] = eng.allocate_shared(16 * kBlock);
      if (r.id() == 1) {
        auto src = r.alloc(kBlock);
        for (int i = 0; i < 200; ++i) {
          for (std::uint64_t j = 0; j < 16; ++j) {
            eng.put_bytes(src.addr, mems[0], j * kBlock, kBlock, 0);
          }
          eng.complete(0);
        }
      }
      eng.complete_collective();
      if (r.id() == 0) target_finished = true;
    });
    EXPECT_EQ(w.failed_ranks(), std::vector<int>{1}) << "kill at " << at;
    EXPECT_TRUE(target_finished) << "kill at " << at;
  }
}

}  // namespace
}  // namespace m3rma
