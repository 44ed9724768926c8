// Tests for the virtual-time tracing layer (src/trace) and its
// instrumentation hooks across the stack: recorder semantics, exporter
// byte-determinism, tracing-off invariance, per-attribute latency
// percentiles, and the DeadlockError last-site enrichment.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/diagnostics.hpp"
#include "core/rma_engine.hpp"
#include "runtime/comm.hpp"
#include "runtime/world.hpp"
#include "simtime/engine.hpp"
#include "trace/attribution.hpp"
#include "trace/recorder.hpp"

namespace m3rma::trace {
namespace {

using runtime::Rank;
using runtime::World;
using runtime::WorldConfig;

WorldConfig small_cfg(int ranks) {
  WorldConfig c;
  c.ranks = ranks;
  c.seed = 42;
  return c;
}

// ----------------------------------------------------------- recorder core

TEST(RecorderTest, SpansAndInstantsRecorded) {
  Recorder rec;
  Time clock = 0;
  rec.bind_clock(&clock);
  const int t = rec.track("rank0");
  clock = 1000;
  const SpanHandle h = rec.span_begin(t, Category::rma, "rma.put", "bytes=8");
  clock = 2500;
  rec.instant(t, Category::portals, "eq:ack");
  rec.span_end(h);
  EXPECT_EQ(rec.record_count(), 2u);
  EXPECT_EQ(rec.span_count(Category::rma), 1u);
  EXPECT_EQ(rec.span_count(Category::portals), 0u);
  EXPECT_EQ(rec.open_span_count(), 0u);
}

TEST(RecorderTest, SpanEndIsNoopForNullHandle) {
  Recorder rec;
  rec.span_end(0);  // must not throw
  EXPECT_EQ(rec.record_count(), 0u);
}

TEST(RecorderTest, NearestRankPercentiles) {
  std::vector<Time> v;
  for (Time x = 1; x <= 100; ++x) v.push_back(x);
  EXPECT_EQ(nearest_rank(v, 50.0), 50u);
  EXPECT_EQ(nearest_rank(v, 90.0), 90u);
  EXPECT_EQ(nearest_rank(v, 99.0), 99u);
  EXPECT_EQ(nearest_rank(v, 99.9), 100u);  // rank ceil(99.9) = 100
  EXPECT_EQ(nearest_rank(v, 100.0), 100u);
  EXPECT_EQ(nearest_rank(std::vector<Time>{7}, 0.1), 7u);
}

TEST(OpTimelineTest, LatencyPercentileIsNearestRankPerKey) {
  OpTimeline tl;
  // 1000 puts with latencies 1..1000 ns, and one get of 5000 ns.
  for (Time v = 1; v <= 1000; ++v) {
    tl.op_begin(v, "rma.put", "blocking", "strawman", 0);
    tl.op_end(v, v);
  }
  tl.op_begin(2000, "rma.get", "blocking", "strawman", 100);
  tl.op_end(2000, 5100);
  EXPECT_EQ(tl.latency_percentile(50.0, "rma.put[blocking]"), 500u);
  EXPECT_EQ(tl.latency_percentile(99.0, "rma.put[blocking]"), 990u);
  EXPECT_EQ(tl.latency_percentile(99.9, "rma.put[blocking]"), 999u);
  EXPECT_EQ(tl.latency_percentile(100.0, "rma.put[blocking]"), 1000u);
  EXPECT_EQ(tl.latency_percentile(50.0, "rma.get[blocking]"), 5000u);
  // No key pools every op; an unknown key has no samples.
  EXPECT_EQ(tl.latency_percentile(100.0), 5000u);
  EXPECT_FALSE(tl.latency_percentile(50.0, "rma.put[none]").has_value());
  EXPECT_THROW(tl.latency_percentile(0.0), m3rma::UsageError);
  EXPECT_THROW(tl.latency_percentile(101.0), m3rma::UsageError);
}

TEST(RecorderTest, LastSiteTracksMeaningfulRecords) {
  Recorder rec;
  Time clock = 0;
  rec.bind_clock(&clock);
  const int t = rec.track("rank0");
  EXPECT_FALSE(rec.has_last_site());
  clock = 700;
  const SpanHandle h = rec.span_begin(t, Category::rma, "rma.put");
  clock = 900;
  rec.span_end(h);  // closing a span is not a new site
  ASSERT_TRUE(rec.has_last_site());
  EXPECT_EQ(rec.last_site(), "rma.put @700ns");
}

// ------------------------------------------------------------- exporters

TEST(ExportTest, ChromeJsonShape) {
  Recorder rec;
  Time clock = 0;
  rec.bind_clock(&clock);
  rec.begin_process("world A");
  const int t = rec.track("rank0");
  clock = 1234;
  const SpanHandle h = rec.span_begin(t, Category::rma, "rma.put", "b=\"8\"");
  clock = 5234;
  rec.span_end(h);
  rec.instant(t, Category::portals, "eq:ack");
  const std::string js = rec.chrome_json();
  EXPECT_NE(js.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(js.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(js.find("\"name\":\"process_name\""), std::string::npos);
  EXPECT_NE(js.find("\"world A\""), std::string::npos);
  EXPECT_NE(js.find("\"thread_name\""), std::string::npos);
  // 1234 ns -> 1.234 us, duration 4 us; quotes in args escaped.
  EXPECT_NE(js.find("\"ts\":1.234,\"dur\":4.000"), std::string::npos);
  EXPECT_NE(js.find("b=\\\"8\\\""), std::string::npos);
  EXPECT_NE(js.find("\"ph\":\"i\""), std::string::npos);
}

TEST(ExportTest, OpenSpansAreFlushedAsUnfinished) {
  Recorder rec;
  Time clock = 1000;
  rec.bind_clock(&clock);
  const int t = rec.track("rank0");
  rec.span_begin(t, Category::serializer, "serialize");
  clock = 9000;
  rec.instant(t, Category::portals, "eq:ack");  // advances max_ts
  EXPECT_EQ(rec.open_span_count(), 1u);
  const std::string js = rec.chrome_json();
  EXPECT_NE(js.find("\"unfinished\":\"true\""), std::string::npos);
  EXPECT_NE(js.find("\"ts\":1.000,\"dur\":8.000"), std::string::npos);
}

TEST(ExportTest, SpanAtRecordsClosedFutureSpans) {
  Recorder rec;
  Time clock = 0;
  rec.bind_clock(&clock);
  const int t = rec.track("plink:0->1");
  clock = 1000;
  // The interval lies entirely in the virtual future — legal: the fabric
  // reserves link windows ahead of time and records them immediately.
  rec.span_at(t, Category::fabric, "xmit", 5000, 5200, "bytes=320");
  EXPECT_EQ(rec.span_count(Category::fabric), 1u);
  EXPECT_EQ(rec.open_span_count(), 0u);
  bool seen = false;
  rec.for_each_span([&](const std::string& process, const std::string& track,
                        const std::string& name, Category cat, Time t0,
                        Time t1) {
    (void)process;
    seen = true;
    EXPECT_EQ(track, "plink:0->1");
    EXPECT_EQ(name, "xmit");
    EXPECT_EQ(cat, Category::fabric);
    EXPECT_EQ(t0, 5000u);
    EXPECT_EQ(t1, 5200u);
  });
  EXPECT_TRUE(seen);
  EXPECT_THROW(rec.span_at(t, Category::fabric, "xmit", 300, 200), Panic);
}

TEST(ExportTest, FlameAggregatesNestedSpansInclusiveTime) {
  Recorder rec;
  Time clock = 0;
  rec.bind_clock(&clock);
  const int t = rec.track("rank0");
  // outer [0,1000) with child [200,500), twice; plus a root-level sibling.
  for (int i = 0; i < 2; ++i) {
    clock = static_cast<Time>(i) * 2000;
    const SpanHandle outer = rec.span_begin(t, Category::rma, "outer");
    clock += 200;
    const SpanHandle inner = rec.span_begin(t, Category::rma, "inner");
    clock += 300;
    rec.span_end(inner);
    clock = static_cast<Time>(i) * 2000 + 1000;
    rec.span_end(outer);
  }
  clock = 5000;
  const SpanHandle lone = rec.span_begin(t, Category::rma, "lone");
  clock = 5400;
  rec.span_end(lone);

  const std::string flame = rec.flame_text();
  // Inclusive totals: outer keeps its full 2x1000, the nested child shows
  // up as a separate "outer;inner" stack with 2x300. Stacks merge across
  // tracks/processes, so the track name is not part of the path.
  EXPECT_NE(flame.find("outer 2000 2"), std::string::npos);
  EXPECT_NE(flame.find("outer;inner 600 2"), std::string::npos);
  EXPECT_NE(flame.find("lone 400 1"), std::string::npos);
  // Deterministic: a second serialization is byte-identical.
  EXPECT_EQ(flame, rec.flame_text());
}

// --------------------------------------------- instrumented RMA workloads

void rma_workload(Rank& r) {
  core::RmaEngine rma(r, r.comm_world());
  auto [buf, mems] = rma.allocate_shared(1024);
  auto src = r.alloc(1024);
  r.comm_world().barrier();
  const int peer = (r.id() + 1) % r.size();
  for (int i = 0; i < 4; ++i) {
    rma.put_bytes(src.addr, mems[static_cast<std::size_t>(peer)], 0, 64,
                  peer, core::Attrs(core::RmaAttr::blocking));
  }
  rma.put_bytes(src.addr, mems[static_cast<std::size_t>(peer)], 64, 64, peer,
                core::RmaAttr::blocking | core::RmaAttr::remote_completion);
  rma.get_bytes(src.addr, mems[static_cast<std::size_t>(peer)], 0, 64, peer,
                core::Attrs(core::RmaAttr::blocking));
  rma.accumulate(portals::AccOp::sum, src.addr, 8,
                 dt::Datatype::int64(), mems[static_cast<std::size_t>(peer)],
                 128, 8, dt::Datatype::int64(), peer,
                 core::RmaAttr::blocking | core::RmaAttr::atomicity);
  rma.fetch_add(mems[static_cast<std::size_t>(peer)], 256, 1, peer);
  rma.complete_collective();
}

TEST(TraceWorldTest, RmaSpansHistogramsAndLinkCounters) {
  Recorder rec;
  OpTimeline tl;
  rec.set_op_timeline(&tl);
  World w(small_cfg(2));
  rec.begin_process("trace world");
  w.engine().set_tracer(&rec);
  w.run(rma_workload);

  // One rma span per op, per rank: 2 ranks x (5 puts + 1 get + 1 acc + 1
  // rmw) plus rma.complete spans.
  EXPECT_GE(rec.span_count(Category::rma), 16u);
  EXPECT_EQ(rec.open_span_count(), 0u);
  // Comm-thread serializer occupancy spans (atomicity accumulate).
  EXPECT_GE(rec.span_count(Category::serializer), 2u);

  // Per-attribute latency in the op timeline, keyed "name[attrs]".
  const auto by_attrs = tl.by_attrs();
  ASSERT_TRUE(by_attrs.contains("rma.put[blocking]"));
  EXPECT_EQ(by_attrs.at("rma.put[blocking]").count, 8u);  // 4 per rank
  const auto p50 = tl.latency_percentile(50.0, "rma.put[blocking]");
  ASSERT_TRUE(p50.has_value());
  EXPECT_GT(*p50, 0u);
  EXPECT_LE(*p50, tl.latency_percentile(99.0, "rma.put[blocking]"));
  for (const char* key :
       {"rma.put[remote_completion+blocking]", "rma.get[blocking]",
        "rma.accumulate[atomicity+blocking]", "rma.rmw[nic]"}) {
    EXPECT_TRUE(tl.latency_percentile(50.0, key).has_value()) << key;
  }
  EXPECT_TRUE(tl.conservation_ok());

  // Per-NIC fabric counts: both directions saw traffic, and every packet
  // sent was received (a lossless crossbar).
  fabric::Fabric& f = w.fabric();
  EXPECT_GT(f.nic(0).sent_messages(), 0u);
  EXPECT_GT(f.nic(1).sent_messages(), 0u);
  EXPECT_GT(f.nic(0).sent_bytes(), f.nic(0).sent_messages());
  EXPECT_EQ(f.total_messages(),
            f.nic(0).sent_messages() + f.nic(1).sent_messages());
  EXPECT_EQ(f.nic(1).received_messages() + f.nic(0).received_messages(),
            f.total_messages());
  EXPECT_EQ(f.dropped_packets(), 0u);
  // Portals EQ instants flowed (SEND at least).
  EXPECT_NE(rec.chrome_json().find("\"eq:send\""), std::string::npos);
}

TEST(TraceWorldTest, SameSeedSameTraceBytes) {
  auto run_once = [](std::string& json, std::string& flame) {
    Recorder rec;
    World w(small_cfg(2));
    rec.begin_process("det world");
    w.engine().set_tracer(&rec);
    w.run(rma_workload);
    json = rec.chrome_json();
    flame = rec.flame_text();
  };
  std::string j1, f1, j2, f2;
  run_once(j1, f1);
  run_once(j2, f2);
  EXPECT_EQ(j1, j2);  // byte-identical chrome trace
  EXPECT_EQ(f1, f2);  // byte-identical flame aggregation
  EXPECT_FALSE(j1.empty());
}

TEST(TraceWorldTest, FlameExportIsDeterministicAndWellFormed) {
  auto run_once = [] {
    Recorder rec;
    World w(small_cfg(3));
    rec.begin_process("flame world");
    w.engine().set_tracer(&rec);
    w.run(rma_workload);
    return rec.flame_text();
  };
  const std::string a = run_once();
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a.front(), '#');  // header comment names the format
  EXPECT_EQ(a, run_once());
  // Every data line is "stack total_ns count", stacks ';'-joined.
  std::size_t lines = 0;
  bool saw_rma = false;
  for (std::size_t pos = a.find('\n') + 1; pos < a.size();) {
    const std::size_t end = a.find('\n', pos);
    const std::string line = a.substr(pos, end - pos);
    EXPECT_EQ(std::count(line.begin(), line.end(), ' '), 2) << line;
    if (line.find("rma.put") != std::string::npos) saw_rma = true;
    ++lines;
    pos = end + 1;
  }
  EXPECT_GT(lines, 0u);
  EXPECT_TRUE(saw_rma) << "rma spans must appear in the aggregation";
}

TEST(TraceWorldTest, TracingOffDoesNotPerturbTheSimulation) {
  std::uint64_t traced_now = 0, traced_events = 0;
  {
    Recorder rec;
    World w(small_cfg(2));
    w.engine().set_tracer(&rec);
    w.run(rma_workload);
    traced_now = w.engine().now();
    traced_events = w.engine().events_processed();
  }
  std::uint64_t bare_now = 0, bare_events = 0;
  {
    World w(small_cfg(2));
    w.run(rma_workload);
    bare_now = w.engine().now();
    bare_events = w.engine().events_processed();
  }
  // Recording must not advance virtual time, schedule events, or draw RNG:
  // the traced and untraced runs are the same simulation.
  EXPECT_EQ(traced_now, bare_now);
  EXPECT_EQ(traced_events, bare_events);
}

TEST(TraceWorldTest, CoarseLockSerializerEmitsLockSpans) {
  Recorder rec;
  World w(small_cfg(2));
  w.engine().set_tracer(&rec);
  std::uint64_t grants = 0;
  w.run([&](Rank& r) {
    core::EngineConfig ec;
    ec.serializer = core::SerializerKind::coarse_lock;
    core::RmaEngine rma(r, r.comm_world(), ec);
    auto [buf, mems] = rma.allocate_shared(256);
    auto src = r.alloc(256);
    r.comm_world().barrier();
    const int peer = (r.id() + 1) % r.size();
    rma.put_bytes(src.addr, mems[static_cast<std::size_t>(peer)], 0, 32,
                  peer,
                  core::RmaAttr::blocking | core::RmaAttr::atomicity);
    rma.complete_collective();
    grants += rma.lock_acquisitions();
  });
  EXPECT_GT(grants, 0u);
  const std::string js = rec.chrome_json();
  EXPECT_NE(js.find("lock.acquire"), std::string::npos);
  EXPECT_NE(js.find("lock.hold"), std::string::npos);
  EXPECT_NE(js.find("lock.grant"), std::string::npos);
}

// -------------------------------------------------- deadlock enrichment

TEST(DeadlockSiteTest, ReportNamesLastTraceSiteWhenTracing) {
  sim::Engine eng;
  Recorder rec;
  eng.set_tracer(&rec);
  sim::Condition never(eng);
  eng.spawn("the-stuck-one", [&](sim::Context& ctx) {
    rec.instant(rec.track("rank0"), Category::rma, "rma.put");
    ctx.await(never);
  });
  try {
    eng.run();
    FAIL() << "expected DeadlockError";
  } catch (const DeadlockError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("the-stuck-one"), std::string::npos);
    EXPECT_NE(msg.find("(last: rma.put @"), std::string::npos);
  }
}

TEST(DeadlockSiteTest, FallsBackToPlainRankListWithoutTracer) {
  sim::Engine eng;
  sim::Condition never(eng);
  eng.spawn("blocked-proc", [&](sim::Context& ctx) { ctx.await(never); });
  try {
    eng.run();
    FAIL() << "expected DeadlockError";
  } catch (const DeadlockError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("blocked-proc"), std::string::npos);
    EXPECT_EQ(msg.find("(last:"), std::string::npos);
  }
}

}  // namespace
}  // namespace m3rma::trace
