// Table S14: cross-layer latency attribution — per-op critical-path
// waterfalls for the Figure 2 attribute sets and the Table S13 KV-store
// tail, via trace::OpTimeline (DESIGN.md §10).
//
// Part A re-runs the Figure 2 workload (7 origins x 100 puts to overlapping
// regions on rank 0, 64 B per put) once per attribute series with an
// OpTimeline attached and decomposes every put's end-to-end latency into
// named segments: where the "atomicity + coarse lock" series' 8-10x really
// goes (lock_wait), what ordering costs (contention), what the comm-thread
// serializer adds (serialize_wait + apply), what remote completion adds
// (completion). Each cell is the MEAN virtual us per op spent in that
// segment; the "end-to-end" row is the column sum, and by the conservation
// invariant it equals the mean measured latency exactly — no "unaccounted"
// tolerance.
//
// Part B runs the Table S13 KV-store macro-workload's worst config (2x2x2
// torus, Zipf(0.99), range sharding) and contrasts the all-ops waterfall
// against the p99.9 tail's: the tail is not "everything proportionally
// slower" — its contention share roughly doubles (dimension-ordered routes
// into the hot shard folding onto a couple of physical links) and the
// extra time rides the wire/completion legs queued behind them, which is
// Table S13's hot-spot story made quantitative per op.
//
// The conservation self-check at the bottom asserts, for every timeline,
// that segments sum EXACTLY to end-to-end on every completed op and that no
// tracked op was left open; the bench exits nonzero if either fails.
//
//   build/bench/tab_latency_breakdown [--trace[=FILE]] [--trace-flame=FILE]
//                                     [--breakdown-json[=FILE]]
//                                     [--metrics-json[=FILE]]
//
// --trace-flame here is the SEGMENT-keyed flame (OpTimeline::write_flame:
// "api;op[attrs];segment total_ns count"), not the recorder's span flame —
// this is the attribution bench. --breakdown-json emits every waterfall as
// one JSON document; --metrics-json additionally wraps the printed tables
// (benchutil::MetricsJson). All output is virtual-time deterministic: two
// runs are byte-identical, which CI enforces.
#include <algorithm>
#include <array>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "apps/kv_store.hpp"
#include "apps/workload.hpp"
#include "bench/bench_util.hpp"
#include "core/rma_engine.hpp"
#include "topo/topology.hpp"
#include "trace/attribution.hpp"

using namespace m3rma;
using benchutil::Table;

namespace {

// ----------------------------------------------------------- Fig. 2 part

struct Series {
  const char* name;    // table column header
  const char* label;   // trace process label
  core::SerializerKind serializer;
  core::Attrs attrs;
};

// Same workload as fig2_attribute_cost.cpp at the representative 64 B
// point, with the recorder (and through it the OpTimeline) attached.
void run_fig2(const Series& s, trace::Recorder& rec) {
  auto cfg = benchutil::xt5_config(8);
  benchutil::run_world_traced(
      std::move(cfg), rec, std::string("S14 fig2 64B ") + s.name,
      [&](runtime::Rank& r) {
        core::EngineConfig ec;
        ec.serializer = s.serializer;
        core::RmaEngine rma(r, r.comm_world(), ec);
        auto buf = r.alloc(2048);
        auto mems = rma.exchange_all(rma.attach(buf.addr, buf.size));
        auto src = r.alloc(2048);
        r.comm_world().barrier();
        if (r.id() != 0) {
          for (int i = 0; i < 100; ++i) {
            rma.put_bytes(src.addr, mems[0], 0, 64, 0,
                          s.attrs | core::RmaAttr::blocking);
          }
          rma.complete(0);
        }
        rma.complete_collective();
      });
}

// ---------------------------------------------------------- KV-store part

constexpr int kRanks = 8;
constexpr int kServers = 4;
constexpr int kClients = kRanks - kServers;

// Table S13's torus/Zipf(0.99) config (tab_kvstore.cpp), reduced to 2000
// ops per client: enough completions (~8000 measured) for a stable p99.9
// tail while keeping the per-op timeline cheap. `tl` is attached to `rec`
// when the measured phase opens (the first client past the set-up
// barrier; no op is in flight then), so preload and warm-up ops stay out
// of the waterfalls, the flame and the JSON alike.
void run_kv(trace::Recorder& rec, trace::OpTimeline& tl) {
  auto cfg = benchutil::xt5_config(kRanks);
  topo::TopoConfig torus;
  torus.kind = topo::Kind::torus3d;
  torus.dim_x = 2;
  torus.dim_y = 2;
  torus.dim_z = 2;
  cfg.topo = torus;
  runtime::World w(std::move(cfg));
  rec.begin_process("S14 kv-torus-zipf99");
  rec.set_op_timeline(nullptr);  // set-up ops go to no timeline
  w.engine().set_tracer(&rec);
  w.run([&](runtime::Rank& r) {
    core::RmaEngine eng(r, r.comm_world());
    apps::KvConfig kc;
    kc.servers = kServers;
    kc.slots_per_shard = 1024;
    kc.value_bytes = 2048;
    kc.key_space = 2048;
    kc.sharding = apps::Sharding::range;  // the Zipf head lands on shard 0
    apps::KvStore kv(r, eng, kc);
    apps::WorkloadConfig wc;
    wc.zipf_s = 0.99;
    wc.get_frac = 0.70;
    wc.put_frac = 0.20;
    wc.rmw_frac = 0.10;
    wc.ops = 2000;
    wc.window = 8;
    wc.seed = 20090922;
    apps::WorkloadGen gen(r, kv, wc);
    if (!kv.is_server()) {
      gen.preload(static_cast<std::uint64_t>(r.id() - kServers), kClients);
      r.comm_world().barrier();
      gen.warm();
      r.comm_world().barrier();
      rec.set_op_timeline(&tl);
      gen.run();
      r.comm_world().barrier();
    } else {
      r.comm_world().barrier();
      r.comm_world().barrier();
      r.comm_world().barrier();
    }
  });
  rec.set_op_timeline(nullptr);
}

// ------------------------------------------------------------- formatting

std::string fmt_mean_us(trace::Time sum_ns, std::uint64_t count) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f",
                count == 0 ? 0.0
                           : static_cast<double>(sum_ns) /
                                 static_cast<double>(count) / 1e3);
  return buf;
}

/// Mean share of the waterfall taken by segment `s`, in percent.
std::string fmt_share(const trace::OpTimeline::Waterfall& w, int s) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f%%",
                w.end_to_end == 0
                    ? 0.0
                    : 100.0 *
                          static_cast<double>(
                              w.seg[static_cast<std::size_t>(s)]) /
                          static_cast<double>(w.end_to_end));
  return buf;
}

std::string timeline_json(const trace::OpTimeline& tl) {
  std::ostringstream os;
  tl.write_json(os);
  std::string s = os.str();
  while (!s.empty() && s.back() == '\n') s.pop_back();
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  const Series series[] = {
      {"no attrs", "no attributes", core::SerializerKind::comm_thread,
       core::Attrs::none()},
      {"+ordering", "with ordering", core::SerializerKind::comm_thread,
       core::Attrs(core::RmaAttr::ordering)},
      {"+remote complete", "with remote complete",
       core::SerializerKind::comm_thread,
       core::Attrs(core::RmaAttr::remote_completion)},
      {"+atomicity (coarse lock)", "atomicity coarse lock",
       core::SerializerKind::coarse_lock,
       core::Attrs(core::RmaAttr::atomicity)},
      {"+atomicity (comm thread)", "atomicity comm thread",
       core::SerializerKind::comm_thread,
       core::Attrs(core::RmaAttr::atomicity)},
  };
  constexpr std::size_t kSeries = std::size(series);

  trace::Recorder rec;  // one recorder for every pass: --trace gets it all

  // Part A: one timeline per series (the two atomicity serializers share an
  // attribute string, so by_attrs alone could not keep them apart).
  std::array<trace::OpTimeline, kSeries> fig2_tl;
  std::array<trace::OpTimeline::Waterfall, kSeries> fig2_wf;
  for (std::size_t i = 0; i < kSeries; ++i) {
    rec.set_op_timeline(&fig2_tl[i]);
    run_fig2(series[i], rec);
    fig2_wf[i] =
        fig2_tl[i].aggregate([](const trace::OpTimeline::Breakdown&) {
          return true;
        });
  }

  Table ta;
  ta.title =
      "Latency attribution, Figure 2 attribute sets (Table S14a) — mean "
      "virtual us per op in each critical-path segment; 7 origins x 100 "
      "puts of 64 B to overlapping regions on rank 0, Cray-XT5-like "
      "calibration. Columns sum exactly to end-to-end (conservation "
      "invariant)";
  ta.header = {"segment"};
  for (const Series& s : series) ta.header.push_back(s.name);
  for (int seg = 0; seg < trace::kSegmentCount; ++seg) {
    std::vector<std::string> row{
        trace::segment_name(static_cast<trace::Segment>(seg))};
    for (std::size_t i = 0; i < kSeries; ++i) {
      row.push_back(fmt_mean_us(fig2_wf[i].seg[static_cast<std::size_t>(seg)],
                                fig2_wf[i].count));
    }
    ta.rows.push_back(std::move(row));
  }
  {
    std::vector<std::string> sum{"end-to-end"};
    std::vector<std::string> cnt{"ops"};
    for (std::size_t i = 0; i < kSeries; ++i) {
      sum.push_back(fmt_mean_us(fig2_wf[i].end_to_end, fig2_wf[i].count));
      cnt.push_back(benchutil::fmt_u64(fig2_wf[i].count));
    }
    ta.rows.push_back(std::move(sum));
    ta.rows.push_back(std::move(cnt));
  }
  ta.print();

  std::printf("\nwhere each attribute's cost lands (share of end-to-end):\n");
  std::printf("  coarse-lock serializer -> lock_wait     : %s\n",
              fmt_share(fig2_wf[3],
                        static_cast<int>(trace::Segment::lock_wait)).c_str());
  std::printf("  comm-thread serializer -> serialize_wait: %s\n",
              fmt_share(fig2_wf[4],
                        static_cast<int>(trace::Segment::serialize_wait))
                  .c_str());
  std::printf("  ordering -> contention                  : %s (vs %s no-attrs)\n",
              fmt_share(fig2_wf[1],
                        static_cast<int>(trace::Segment::contention)).c_str(),
              fmt_share(fig2_wf[0],
                        static_cast<int>(trace::Segment::contention)).c_str());
  std::printf("  remote complete -> completion           : %s (vs %s no-attrs)\n",
              fmt_share(fig2_wf[2],
                        static_cast<int>(trace::Segment::completion)).c_str(),
              fmt_share(fig2_wf[0],
                        static_cast<int>(trace::Segment::completion)).c_str());
  std::printf("\nput end-to-end percentiles per series (virtual us, 64 B):\n");
  for (std::size_t i = 0; i < kSeries; ++i) {
    const auto p50 = fig2_tl[i].latency_percentile(50.0);
    const auto p999 = fig2_tl[i].latency_percentile(99.9);
    std::printf("  %-26s: p50=%s p99.9=%s\n", series[i].name,
                benchutil::fmt_us(p50.value_or(0)).c_str(),
                benchutil::fmt_us(p999.value_or(0)).c_str());
  }

  // Part B: the S13 KV tail. kv_tl holds the measured phase's ops only.
  trace::OpTimeline kv_tl;
  run_kv(rec, kv_tl);

  const auto all_wf =
      kv_tl.aggregate([](const trace::OpTimeline::Breakdown&) { return true; });
  // Nearest-rank p99.9 threshold over the measured ops' end-to-end times,
  // then the tail waterfall = every op at or above it.
  std::vector<trace::Time> lat;
  for (const auto& b : kv_tl.ops()) lat.push_back(b.total());
  std::sort(lat.begin(), lat.end());
  trace::Time thr = 0;
  if (!lat.empty()) {
    const std::uint64_t n = lat.size();
    std::uint64_t rank = (999 * n + 999) / 1000;  // nearest-rank, 1-based
    if (rank < 1) rank = 1;
    thr = lat[static_cast<std::size_t>(rank - 1)];
  }
  const auto tail_wf = kv_tl.aggregate(
      [&](const trace::OpTimeline::Breakdown& b) { return b.total() >= thr; });

  Table tb;
  tb.title =
      "Latency attribution, KV-store p99.9 tail (Table S14b) — Table S13's "
      "worst config (2x2x2 torus, Zipf(0.99), range sharding, 4 clients x "
      "2000 ops, window 8, 2 KiB values): mean virtual us per op in each "
      "segment, all measured ops vs the p99.9 tail";
  tb.header = {"segment", "all ops (us)", "all share", "p99.9 tail (us)",
               "tail share"};
  for (int seg = 0; seg < trace::kSegmentCount; ++seg) {
    const auto s = static_cast<std::size_t>(seg);
    tb.rows.push_back(
        {trace::segment_name(static_cast<trace::Segment>(seg)),
         fmt_mean_us(all_wf.seg[s], all_wf.count), fmt_share(all_wf, seg),
         fmt_mean_us(tail_wf.seg[s], tail_wf.count), fmt_share(tail_wf, seg)});
  }
  tb.rows.push_back({"end-to-end", fmt_mean_us(all_wf.end_to_end, all_wf.count),
                     "100.0%", fmt_mean_us(tail_wf.end_to_end, tail_wf.count),
                     "100.0%"});
  tb.rows.push_back({"ops", benchutil::fmt_u64(all_wf.count), "",
                     benchutil::fmt_u64(tail_wf.count), ""});
  tb.print();

  std::printf("\ntail anatomy (p99.9 threshold %s us):\n",
              benchutil::fmt_us(thr).c_str());
  std::printf("  tail / all end-to-end ratio             : %s\n",
              benchutil::fmt_ratio(
                  tail_wf.count == 0 ? 0 : tail_wf.end_to_end / tail_wf.count,
                  all_wf.count == 0 ? 0 : all_wf.end_to_end / all_wf.count)
                  .c_str());
  std::printf("  serialize_wait share, tail vs all       : %s vs %s\n",
              fmt_share(tail_wf,
                        static_cast<int>(trace::Segment::serialize_wait))
                  .c_str(),
              fmt_share(all_wf,
                        static_cast<int>(trace::Segment::serialize_wait))
                  .c_str());
  std::printf("  contention share, tail vs all           : %s vs %s\n",
              fmt_share(tail_wf,
                        static_cast<int>(trace::Segment::contention)).c_str(),
              fmt_share(all_wf,
                        static_cast<int>(trace::Segment::contention)).c_str());

  // Conservation self-check over every timeline this bench built. The
  // invariant is structural (op_end charges every elementary slice to
  // exactly one segment) — this re-verifies it end-to-end, ops included.
  bool ok = true;
  std::uint64_t total_ops = 0, open = 0;
  for (const auto& tl : fig2_tl) {
    ok = ok && tl.conservation_ok();
    total_ops += tl.completed_ops();
    open += tl.open_ops();
  }
  ok = ok && kv_tl.conservation_ok();
  total_ops += kv_tl.completed_ops();
  open += kv_tl.open_ops();
  std::printf("\nconservation self-check:\n");
  std::printf("  segments sum exactly to end-to-end      : %s (%llu ops)\n",
              ok ? "yes" : "NO",
              static_cast<unsigned long long>(total_ops));
  std::printf("  tracked ops left open at teardown       : %llu\n",
              static_cast<unsigned long long>(open));

  // ------------------------------------------------------------- exports
  const std::string trace_file =
      benchutil::trace_flag(argc, argv, "tab_latency_breakdown_trace.json");
  if (!trace_file.empty()) benchutil::export_trace(rec, trace_file);

  const std::string flame_file =
      benchutil::flame_flag(argc, argv, "tab_latency_breakdown.flame");
  if (!flame_file.empty()) {
    std::ofstream os(flame_file, std::ios::binary);
    for (const auto& tl : fig2_tl) tl.write_flame(os);
    kv_tl.write_flame(os);
    std::printf("segment flame: -> %s\n", flame_file.c_str());
  }

  const std::string bd_file = benchutil::csv_flag(
      argc, argv, "tab_latency_breakdown.json", "--breakdown-json");
  if (!bd_file.empty()) {
    std::ofstream os(bd_file, std::ios::binary);
    os << "{\"bench\":\"tab_latency_breakdown\",\"fig2\":{";
    for (std::size_t i = 0; i < kSeries; ++i) {
      if (i > 0) os << ",";
      os << "\"" << benchutil::json_escape(series[i].label)
         << "\":" << timeline_json(fig2_tl[i]);
    }
    os << "},\"kv_torus_zipf99\":" << timeline_json(kv_tl) << "}\n";
    std::printf("breakdown json: -> %s\n", bd_file.c_str());
  }

  benchutil::MetricsJson mj{
      "tab_latency_breakdown",
      benchutil::metrics_json_flag(argc, argv, "tab_latency_breakdown"), {},
      {}};
  mj.add(ta);
  mj.add(tb);
  if (mj.enabled()) mj.attribution = timeline_json(kv_tl);
  mj.write();

  return ok && open == 0 ? 0 : 1;
}
