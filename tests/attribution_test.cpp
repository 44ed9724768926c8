// Tests for cross-layer latency attribution (src/trace/attribution.*, wired
// through core::RmaEngine / fabric / portals): the conservation invariant
// across an op mix, serializer segments landing where the route predicts,
// byte-deterministic exports, the crash-failover stall segment, and the
// zero-perturbation contract (attaching a timeline must not move the
// simulation).
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "core/rma_engine.hpp"
#include "runtime/comm.hpp"
#include "runtime/world.hpp"
#include "simtime/engine.hpp"
#include "trace/attribution.hpp"
#include "trace/recorder.hpp"

namespace m3rma {
namespace {

using core::Attrs;
using core::RmaAttr;
using core::RmaEngine;
using runtime::Rank;
using runtime::World;
using runtime::WorldConfig;

constexpr std::size_t idx(trace::Segment s) {
  return static_cast<std::size_t>(s);
}

WorldConfig small_cfg(int ranks) {
  WorldConfig c;
  c.ranks = ranks;
  c.seed = 42;
  return c;
}

/// Puts (blocking + remote-complete), nonblocking gets, native RMWs and the
/// collective completion, all against rank 0.
void mixed_workload(Rank& r) {
  RmaEngine eng(r, r.comm_world());
  auto [buf, mems] = eng.allocate_shared(1024);
  if (r.id() != 0) {
    auto src = r.alloc(64);
    auto dst = r.alloc(64);
    std::vector<core::Request> gets;
    for (int i = 0; i < 10; ++i) {
      eng.put_bytes(src.addr, mems[0], 64, 64, 0,
                    Attrs(RmaAttr::blocking) | RmaAttr::remote_completion);
      if (i % 2 == 0) {
        gets.push_back(eng.get_bytes(dst.addr, mems[0], 0, 64, 0));
      }
      (void)eng.fetch_add(mems[0], 0, 1, 0);
    }
    for (auto& g : gets) g.wait();
    eng.complete(0);
  }
  eng.complete_collective();
}

/// Fig. 2-style atomicity workload: 3 origins hammer overlapping regions on
/// rank 0 with atomicity puts routed through the configured serializer.
void atomicity_workload(Rank& r, core::SerializerKind ser) {
  core::EngineConfig ec;
  ec.serializer = ser;
  RmaEngine eng(r, r.comm_world(), ec);
  auto [buf, mems] = eng.allocate_shared(1024);
  if (r.id() != 0) {
    auto src = r.alloc(64);
    for (int i = 0; i < 20; ++i) {
      eng.put_bytes(src.addr, mems[0], 0, 64, 0,
                    Attrs(RmaAttr::blocking) | RmaAttr::atomicity);
    }
    eng.complete(0);
  }
  eng.complete_collective();
}

// ------------------------------------------------------------ conservation

TEST(Attribution, ConservationHoldsAcrossPutGetRmwMix) {
  trace::Recorder rec;
  trace::OpTimeline tl;
  rec.set_op_timeline(&tl);
  World w(small_cfg(4));
  w.engine().set_tracer(&rec);
  w.run(mixed_workload);

  // The invariant, end-to-end through the real stack: every completed op's
  // segments sum EXACTLY to its end-to-end time, and nothing stays open
  // once completion has drained.
  EXPECT_TRUE(tl.conservation_ok());
  EXPECT_EQ(tl.open_ops(), 0u);
  ASSERT_GT(tl.completed_ops(), 0u);

  // Every op crossed the wire, so the request leg must be visible: inject
  // and wire are nonzero in aggregate, and no op has an empty breakdown.
  const auto all =
      tl.aggregate([](const trace::OpTimeline::Breakdown&) { return true; });
  EXPECT_GT(all.seg[idx(trace::Segment::inject)], 0u);
  EXPECT_GT(all.seg[idx(trace::Segment::wire)], 0u);
  for (const auto& b : tl.ops()) {
    EXPECT_GT(b.total(), 0u) << b.name;
  }

  // Puts, gets and RMWs each show up under their own name[attrs] key.
  const auto groups = tl.by_attrs();
  int puts = 0, gets = 0, rmws = 0;
  for (const auto& [key, wf] : groups) {
    if (key.rfind("rma.put", 0) == 0) puts += static_cast<int>(wf.count);
    if (key.rfind("rma.get", 0) == 0) gets += static_cast<int>(wf.count);
    if (key.rfind("rma.rmw", 0) == 0) rmws += static_cast<int>(wf.count);
  }
  EXPECT_EQ(puts, 3 * 10);
  EXPECT_EQ(gets, 3 * 5);
  EXPECT_EQ(rmws, 3 * 10);
}

// ------------------------------------------------- serializer attribution

TEST(Attribution, CommThreadAtomicityChargesSerializeWait) {
  trace::Recorder rec;
  trace::OpTimeline tl;
  rec.set_op_timeline(&tl);
  World w(small_cfg(4));
  w.engine().set_tracer(&rec);
  w.run([](Rank& r) {
    atomicity_workload(r, core::SerializerKind::comm_thread);
  });
  EXPECT_TRUE(tl.conservation_ok());
  EXPECT_EQ(tl.open_ops(), 0u);
  const auto all =
      tl.aggregate([](const trace::OpTimeline::Breakdown&) { return true; });
  // The comm-thread route queues the op at the target and applies it in
  // software: both legs must be visible in the decomposition.
  EXPECT_GT(all.seg[idx(trace::Segment::serialize_wait)], 0u);
  EXPECT_GT(all.seg[idx(trace::Segment::apply)], 0u);
  EXPECT_EQ(all.seg[idx(trace::Segment::lock_wait)], 0u);
}

TEST(Attribution, CoarseLockAtomicityChargesLockWait) {
  trace::Recorder rec;
  trace::OpTimeline tl;
  rec.set_op_timeline(&tl);
  World w(small_cfg(4));
  w.engine().set_tracer(&rec);
  w.run([](Rank& r) {
    atomicity_workload(r, core::SerializerKind::coarse_lock);
  });
  EXPECT_TRUE(tl.conservation_ok());
  EXPECT_EQ(tl.open_ops(), 0u);
  const auto all =
      tl.aggregate([](const trace::OpTimeline::Breakdown&) { return true; });
  // The coarse-lock route pays a remote lock round trip per op — the
  // Figure 2 8-10x lives in lock_wait (cf. Table S14: ~86% of end-to-end).
  EXPECT_GT(all.seg[idx(trace::Segment::lock_wait)], 0u);
  EXPECT_GT(all.seg[idx(trace::Segment::lock_wait)],
            all.seg[idx(trace::Segment::wire)]);
}

// One timeline may span several Worlds (a bench traces each series in its
// own World). Request ids restart per World, so an op must not resolve
// through an alias that a locked op registered in an earlier World.
TEST(Attribution, TimelineSpanningWorldsKeepsEachOpsLatency) {
  auto run = [](trace::OpTimeline& tl, core::SerializerKind k) {
    trace::Recorder rec;
    rec.set_op_timeline(&tl);
    World w(small_cfg(4));
    w.engine().set_tracer(&rec);
    w.run([k](Rank& r) { atomicity_workload(r, k); });
  };
  trace::OpTimeline shared, fresh;
  run(shared, core::SerializerKind::coarse_lock);
  const std::size_t first = shared.ops().size();
  run(shared, core::SerializerKind::comm_thread);
  run(fresh, core::SerializerKind::comm_thread);
  ASSERT_EQ(shared.ops().size() - first, fresh.ops().size());
  for (std::size_t i = 0; i < fresh.ops().size(); ++i) {
    EXPECT_EQ(shared.ops()[first + i].total(), fresh.ops()[i].total()) << i;
  }
}

// -------------------------------------------------------- byte-determinism

TEST(Attribution, ExportsAreByteIdenticalAcrossRuns) {
  auto run_once = [](std::string& json, std::string& flame) {
    trace::Recorder rec;
    trace::OpTimeline tl;
    rec.set_op_timeline(&tl);
    World w(small_cfg(4));
    w.engine().set_tracer(&rec);
    w.run(mixed_workload);
    std::ostringstream js, fl;
    tl.write_json(js);
    tl.write_flame(fl);
    json = js.str();
    flame = fl.str();
  };
  std::string json1, flame1, json2, flame2;
  run_once(json1, flame1);
  run_once(json2, flame2);
  EXPECT_FALSE(json1.empty());
  EXPECT_FALSE(flame1.empty());
  EXPECT_EQ(json1, json2);
  EXPECT_EQ(flame1, flame2);
}

// ----------------------------------------------------------- failover stall

// A replicated target dies with ops in the air (same shape as
// Replication.InFlightOpsRescuedOrReissuedAtCrash): every op that straddles
// the (announced) crash instant must charge its stall from failure
// detection to its rescued completion to the failover segment — EXACTLY
// t1 - detection, the Table S12 failover window per op.
TEST(Attribution, CrashMidOpChargesTheFailoverSegment) {
  trace::Recorder rec;
  trace::OpTimeline tl;
  rec.set_op_timeline(&tl);
  WorldConfig cfg = small_cfg(4);
  cfg.seed = 31;
  cfg.replication.enabled = true;
  cfg.faults.schedule = {{/*rank=*/1, /*at=*/300'000}};
  World w(cfg);
  w.engine().set_tracer(&rec);
  std::uint64_t failed = 0;
  w.run([&](Rank& r) {
    const int me = r.id();
    RmaEngine eng(r, r.comm_world());
    auto [buf, mems] = eng.allocate_shared(256);
    if (me == 1) {
      r.ctx().delay(2'000'000);  // victim idles until death
      return;
    }
    if (me != 0) return;
    auto src = r.alloc(8);
    std::vector<core::Request> reqs;
    for (int i = 0; i < 40; ++i) {
      reqs.push_back(eng.put_bytes(src.addr, mems[1],
                                   8 * static_cast<std::uint64_t>(i % 16), 8,
                                   1, Attrs(RmaAttr::remote_completion)));
      r.ctx().delay(9'000);
    }
    for (auto& q : reqs) {
      q.wait();
      if (q.failed()) ++failed;
    }
    eng.complete(core::kAllRanks);
  });
  EXPECT_EQ(failed, 0u) << "with a live backup no op may fail";
  EXPECT_TRUE(tl.conservation_ok());
  EXPECT_EQ(tl.open_ops(), 0u);

  constexpr trace::Time kDetectAt = 300'000;  // announced => detect = crash
  std::uint64_t stalled = 0;
  for (const auto& b : tl.ops()) {
    const trace::Time fo = b.seg[idx(trace::Segment::failover)];
    if (fo == 0) continue;
    ++stalled;
    // The stall spans detection -> rescued completion, exactly.
    ASSERT_LT(b.t0, kDetectAt) << "failover charged to a post-crash op";
    ASSERT_GT(b.t1, kDetectAt);
    EXPECT_EQ(fo, b.t1 - kDetectAt) << b.name << " total=" << b.total();
  }
  EXPECT_GT(stalled, 0u) << "the crash lands mid-stream; some op must stall";
}

// -------------------------------------------------------- zero-perturbation

TEST(Attribution, AttachedTimelineDoesNotPerturbTheSimulation) {
  std::uint64_t traced_now = 0, traced_events = 0;
  {
    trace::Recorder rec;
    trace::OpTimeline tl;
    rec.set_op_timeline(&tl);
    World w(small_cfg(4));
    w.engine().set_tracer(&rec);
    w.run(mixed_workload);
    traced_now = w.engine().now();
    traced_events = w.engine().events_processed();
    ASSERT_GT(tl.completed_ops(), 0u);
  }
  std::uint64_t bare_now = 0, bare_events = 0;
  {
    World w(small_cfg(4));
    w.run(mixed_workload);
    bare_now = w.engine().now();
    bare_events = w.engine().events_processed();
  }
  // Attribution must not advance virtual time, schedule events, or draw
  // RNG: id allocation is unconditional, recording is passive.
  EXPECT_EQ(traced_now, bare_now);
  EXPECT_EQ(traced_events, bare_events);
}

}  // namespace
}  // namespace m3rma
