// Figure 2 of the paper: "The cost of each attribute on the Cray XT5".
//
// Workload (paper §V-A): seven MPI processes concurrently do 100 puts to
// OVERLAPPING memory regions on process 0, followed by a single RMA
// Complete call. Puts carry the blocking attribute (single-call RMA).
// Series:
//   1. no attributes
//   2. + ordering          (overlaps series 1: the XT network orders)
//   3. + remote completion
//   4. + atomicity, coarse-grain (process-level) lock serializer
//   5. + atomicity, communication-thread serializer
// X axis: bytes per put, 8 B .. 1 KiB. Y: ms for 100 puts + 1 complete
// (maximum over the seven origins).
//
//   build/bench/fig2_attribute_cost [--csv=FILE] [--trace[=FILE]]
//                                   [--trace-flame[=FILE]]
//                                   [--metrics-json[=FILE]]
//
// --csv dumps the table cells machine-readably (Table::write_csv) —
// virtual time, byte-identical across runs.
#include <algorithm>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "core/rma_engine.hpp"

using namespace m3rma;
using benchutil::Table;

namespace {

struct Series {
  const char* name;
  core::SerializerKind serializer;
  core::Attrs attrs;
};

sim::Time run_fig2(const Series& s, std::uint64_t bytes,
                   trace::Recorder* rec = nullptr,
                   const std::string& label = {}) {
  auto cfg = benchutil::xt5_config(8);
  std::vector<sim::Time> elapsed(8, 0);
  auto body = std::function<void(runtime::Rank&)>([&](runtime::Rank& r) {
    core::EngineConfig ec;
    ec.serializer = s.serializer;
    core::RmaEngine rma(r, r.comm_world(), ec);
    auto buf = r.alloc(2048);
    auto mems = rma.exchange_all(rma.attach(buf.addr, buf.size));
    auto src = r.alloc(2048);
    r.comm_world().barrier();

    if (r.id() != 0) {
      const sim::Time t0 = r.ctx().now();
      for (int i = 0; i < 100; ++i) {
        // All seven origins target the same region: offset 0.
        rma.put_bytes(src.addr, mems[0], 0, bytes, 0,
                      s.attrs | core::RmaAttr::blocking);
      }
      rma.complete(0);
      elapsed[static_cast<std::size_t>(r.id())] = r.ctx().now() - t0;
    }
    rma.complete_collective();
  });
  if (rec != nullptr) {
    benchutil::run_world_traced(cfg, *rec, label, body);
  } else {
    benchutil::run_world(cfg, body);
  }
  return *std::max_element(elapsed.begin(), elapsed.end());
}

}  // namespace

int main(int argc, char** argv) {
  const Series series[] = {
      {"no attributes", core::SerializerKind::comm_thread,
       core::Attrs::none()},
      {"with ordering", core::SerializerKind::comm_thread,
       core::Attrs(core::RmaAttr::ordering)},
      {"with remote complete", core::SerializerKind::comm_thread,
       core::Attrs(core::RmaAttr::remote_completion)},
      {"atomicity + coarse grain lock serializer",
       core::SerializerKind::coarse_lock,
       core::Attrs(core::RmaAttr::atomicity)},
      {"atomicity + thread serializer", core::SerializerKind::comm_thread,
       core::Attrs(core::RmaAttr::atomicity)},
  };
  const std::uint64_t sizes[] = {8, 16, 32, 64, 128, 256, 512, 1024};

  Table t;
  t.title =
      "Figure 2 — time (ms) for 100 RMA puts + 1 RMA complete, 7 origins "
      "to overlapping regions on rank 0 (Cray-XT5-like simulator)";
  t.header = {"bytes/put",
              "no attrs",
              "+ordering",
              "+remote complete",
              "+atomicity (coarse lock)",
              "+atomicity (comm thread)"};

  std::vector<std::vector<sim::Time>> raw;
  for (std::uint64_t bytes : sizes) {
    std::vector<std::string> row{std::to_string(bytes)};
    std::vector<sim::Time> vals;
    for (const Series& s : series) {
      const sim::Time ns = run_fig2(s, bytes);
      vals.push_back(ns);
      row.push_back(benchutil::fmt_ms(ns));
    }
    raw.push_back(vals);
    t.rows.push_back(std::move(row));
  }
  t.print();

  const std::string csv_file =
      benchutil::csv_flag(argc, argv, "fig2_attribute_cost.csv");
  if (!csv_file.empty()) {
    std::ofstream os(csv_file, std::ios::binary);
    t.write_csv(os);
    std::printf("\ncsv: -> %s\n", csv_file.c_str());
  }

  // Shape checks the paper's figure exhibits.
  std::printf("\nshape checks (8 B row):\n");
  const auto& r8 = raw.front();
  std::printf("  ordering / no-attrs           : %s (paper: overlapping)\n",
              benchutil::fmt_ratio(r8[1], r8[0]).c_str());
  std::printf("  remote-complete / no-attrs    : %s (paper: slight)\n",
              benchutil::fmt_ratio(r8[2], r8[0]).c_str());
  std::printf("  coarse-lock / no-attrs        : %s (paper: ~8-10x, worst)\n",
              benchutil::fmt_ratio(r8[3], r8[0]).c_str());
  std::printf("  comm-thread / no-attrs        : %s (paper: low overhead)\n",
              benchutil::fmt_ratio(r8[4], r8[0]).c_str());
  std::printf("  coarse-lock / comm-thread     : %s (paper: >>1)\n",
              benchutil::fmt_ratio(r8[3], r8[4]).c_str());

  // Optional trace pass: re-run one representative size (64 B) per series
  // with the recorder attached. Kept off the table path so the numbers above
  // stay byte-identical whether or not --trace / --trace-flame is given.
  const std::string trace_file =
      benchutil::trace_flag(argc, argv, "fig2_attribute_cost_trace.json");
  const std::string flame_file =
      benchutil::flame_flag(argc, argv, "fig2_attribute_cost.flame");
  if (!trace_file.empty() || !flame_file.empty()) {
    trace::Recorder rec;
    trace::OpTimeline tl;
    rec.set_op_timeline(&tl);
    for (const Series& s : series) {
      run_fig2(s, 64, &rec, std::string("fig2 64B ") + s.name);
    }
    if (!trace_file.empty()) benchutil::export_trace(rec, trace_file);
    if (!flame_file.empty()) benchutil::export_flame(rec, flame_file);
    // Per-op tail latency by attribute set, from the op timeline's
    // nearest-rank percentiles: serializer queueing shows up as a fat tail
    // long before it moves the median. Ops are keyed by attrs, so the two
    // atomicity serializers pool into one line.
    std::printf("\nput tail latency by attrs (virtual us, 64 B):\n");
    std::set<std::string> seen;
    for (const Series& s : series) {
      const std::string key =
          "rma.put[" + (s.attrs | core::RmaAttr::blocking).describe() + "]";
      if (!seen.insert(key).second) continue;
      if (auto p50 = tl.latency_percentile(50.0, key)) {
        const auto p99 = tl.latency_percentile(99.0, key);
        const auto p999 = tl.latency_percentile(99.9, key);
        std::printf("  %-40s: p50=%s p99=%s p99.9=%s\n", key.c_str(),
                    benchutil::fmt_us(*p50).c_str(),
                    benchutil::fmt_us(*p99).c_str(),
                    benchutil::fmt_us(*p999).c_str());
      }
    }
  }
  benchutil::MetricsJson mj{
      "fig2_attribute_cost",
      benchutil::metrics_json_flag(argc, argv, "fig2_attribute_cost"),
      {},
      {}};
  mj.add(t);
  mj.write();
  return 0;
}
