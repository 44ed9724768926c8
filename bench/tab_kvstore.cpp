// Table S13: sharded RMA key-value store macro-workload — skewed vs uniform
// traffic, crossbar vs 3D torus, with tail-latency reporting.
//
// The micro-benches price one attribute at a time; this bench runs the
// apps::KvStore macro-workload (DESIGN.md §9) end-to-end on the strawman
// API: 4 server ranks each expose one range-sharded bucket-table window, 4
// client ranks drive a closed-loop get/put/RMW mix (window of 8 outstanding
// one-sided ops per client) over a 2048-key space. Every data-path byte
// moves one-sided — gets, atomicity puts, NIC-executed fetch_adds — so the
// store inherits exactly the cost model the paper's Figure 2 machinery
// prices.
//
// The sweep crosses key popularity {uniform, Zipf(0.99)} with physical
// topology {dedicated-link crossbar, 2x2x2 torus}. Range sharding makes the
// Zipf head land on one server, so skew shows up twice: the hot shard
// serializes more than its share of ops (tail latency grows), and on the
// torus the flows into that server's node fold onto a couple of physical
// links (dimension-ordered routing), amplifying the p99.9 further. The
// crossbar gives every pair a private wire, isolating the pure hot-shard
// effect from the interconnect effect.
//
// Reported per config: throughput, nearest-rank p50/p99/p99.9 over all ops
// (trace::nearest_rank over the clients' completion logs), the hot shard's
// share of ops, and the hottest physical link's utilization over the
// measured phase (its busy time from the phase's first issue to its last
// retire, over that span, as perfbench's harness measures it). --csv=FILE
// appends a per-bucket completion timeline (config, bucket start, ops,
// hot-shard ops) for plotting the hot-shard wave. All numbers are virtual
// time under seed 20090922: two runs produce byte-identical tables and CSV.
// --trace attaches a Recorder to every config's run and writes its trace.
//
//   build/bench/tab_kvstore [--csv[=FILE]] [--trace[=FILE]]
#include <algorithm>
#include <array>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "apps/kv_store.hpp"
#include "apps/workload.hpp"
#include "bench/bench_util.hpp"
#include "topo/topology.hpp"

using namespace m3rma;
using benchutil::Table;

namespace {

constexpr int kRanks = 8;
constexpr int kServers = 4;
constexpr int kClients = kRanks - kServers;
constexpr std::uint64_t kKeySpace = 2048;
constexpr std::uint64_t kSlotsPerShard = 1024;  // load factor 0.5 per shard
constexpr std::uint64_t kValueBytes = 2048;     // bandwidth-bound payloads
constexpr std::uint64_t kOpsPerClient = 13'000;
constexpr int kWindow = 8;
constexpr sim::Time kBucket = 2'000'000;  // csv timeline resolution (2 ms)

/// Nearest-rank latency percentiles, virtual ns.
struct Tail {
  sim::Time p50 = 0;
  sim::Time p99 = 0;
  sim::Time p999 = 0;
};

struct RunResult {
  std::string label;
  sim::Time phase_ns = 0;     // measured closed loop, first issue..last done
  std::uint64_t ops = 0;      // measured completions
  std::uint64_t ok = 0;       // ...with a success outcome
  std::array<std::uint64_t, kServers> shard_ops{};
  std::array<std::uint64_t, kServers> occupancy{};
  Tail tail;                          // over all op kinds
  std::vector<apps::WorkloadGen::Completion> completions;
  std::string hot_link;               // hottest link, measured-phase busy
  std::uint64_t hot_link_bp = 0;      // its utilization, basis points
};

std::uint64_t util_bp(sim::Time busy, sim::Time total) {
  return total == 0 ? 0 : busy * 10'000 / total;
}

std::string fmt_pct(std::uint64_t bp) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu.%02llu%%",
                static_cast<unsigned long long>(bp / 100),
                static_cast<unsigned long long>(bp % 100));
  return buf;
}

/// `rec` (may be null) records the run's trace, one process per config.
RunResult run_config(const topo::TopoConfig& tc, double zipf_s,
                     const std::string& label, trace::Recorder* rec) {
  auto cfg = benchutil::xt5_config(kRanks);
  cfg.topo = tc;
  RunResult res;
  res.label = label;
  std::vector<sim::Time> started(kRanks, 0);
  runtime::World w(std::move(cfg));
  const topo::TopologyModel* model = w.fabric().topology();
  const topo::Topology& t = model->topology();
  // Every link's busy time when the measured phase opens and when it
  // closes: preload and warm-up traffic stays out of the hot-link column.
  const auto link_busy = [&] {
    std::vector<sim::Time> busy;
    for (int l = 0; l < t.link_count(); ++l) {
      busy.push_back(model->state(l).busy_ns);
    }
    return busy;
  };
  std::vector<sim::Time> busy_from, busy_to;
  int clients_done = 0;
  if (rec != nullptr) {
    rec->begin_process(label);
    w.engine().set_tracer(rec);
  }
  w.run([&](runtime::Rank& r) {
    core::RmaEngine eng(r, r.comm_world());
    apps::KvConfig kc;
    kc.servers = kServers;
    kc.slots_per_shard = kSlotsPerShard;
    kc.value_bytes = kValueBytes;
    kc.key_space = kKeySpace;
    kc.sharding = apps::Sharding::range;  // the Zipf head lands on shard 0
    apps::KvStore kv(r, eng, kc);
    apps::WorkloadConfig wc;
    wc.zipf_s = zipf_s;
    wc.get_frac = 0.70;
    wc.put_frac = 0.20;
    wc.rmw_frac = 0.10;
    wc.ops = kOpsPerClient;
    wc.window = kWindow;
    wc.seed = 20090922;
    apps::WorkloadGen gen(r, kv, wc);
    if (!kv.is_server()) {
      const auto idx = static_cast<std::uint64_t>(r.id() - kServers);
      gen.preload(idx, kClients);
      r.comm_world().barrier();
      gen.warm();  // steady state: every key's slot location cached
      r.comm_world().barrier();
      if (busy_from.empty()) busy_from = link_busy();
      started[static_cast<std::size_t>(r.id())] = r.ctx().now();
      res.ok += gen.run();
      if (++clients_done == kClients) busy_to = link_busy();
      for (const auto& c : gen.completions()) {
        res.ops += 1;
        res.shard_ops[c.shard] += 1;
        res.completions.push_back(c);
      }
      r.comm_world().barrier();
      if (r.id() == kServers) {  // first client audits the shards
        for (int s = 0; s < kServers; ++s) {
          res.occupancy[static_cast<std::size_t>(s)] =
              kv.shard_occupancy(s);
        }
      }
    } else {
      r.comm_world().barrier();
      r.comm_world().barrier();
      r.comm_world().barrier();
    }
  });
  const sim::Time t0 = *std::min_element(started.begin() + kServers,
                                         started.end());
  sim::Time t1 = t0;
  std::vector<sim::Time> lat;
  lat.reserve(res.completions.size());
  for (const auto& c : res.completions) {
    t1 = std::max(t1, c.done_at);
    lat.push_back(c.latency);
  }
  res.phase_ns = t1 - t0;
  std::sort(lat.begin(), lat.end());
  res.tail = {trace::nearest_rank(lat, 50.0), trace::nearest_rank(lat, 99.0),
              trace::nearest_rank(lat, 99.9)};
  for (int l = 0; l < t.link_count(); ++l) {
    const auto i = static_cast<std::size_t>(l);
    const std::uint64_t bp = util_bp(busy_to[i] - busy_from[i], res.phase_ns);
    if (bp > res.hot_link_bp) {
      res.hot_link_bp = bp;
      res.hot_link = t.link_name(l);
    }
  }
  return res;
}

/// Share of measured ops taken by the busiest shard, in basis points.
std::uint64_t hot_shard_bp(const RunResult& r) {
  const std::uint64_t hot =
      *std::max_element(r.shard_ops.begin(), r.shard_ops.end());
  return r.ops == 0 ? 0 : hot * 10'000 / r.ops;
}

std::string fmt_kops(const RunResult& r) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f",
                static_cast<double>(r.ops) * 1e6 /
                    static_cast<double>(r.phase_ns));
  return buf;
}

void write_csv(std::ostream& os, const RunResult& r) {
  // Per-bucket completion timeline of the measured phase (virtual time,
  // byte-identical run to run). hot_shard is fixed per config so the
  // columns are comparable across buckets.
  const std::size_t hot = static_cast<std::size_t>(
      std::max_element(r.shard_ops.begin(), r.shard_ops.end()) -
      r.shard_ops.begin());
  const sim::Time t0 =
      r.completions.empty()
          ? 0
          : std::min_element(r.completions.begin(), r.completions.end(),
                             [](const auto& a, const auto& b) {
                               return a.done_at < b.done_at;
                             })
                ->done_at;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> buckets;
  for (const auto& c : r.completions) {
    const auto b = static_cast<std::size_t>((c.done_at - t0) / kBucket);
    if (b >= buckets.size()) buckets.resize(b + 1, {0, 0});
    buckets[b].first += 1;
    if (c.shard == hot) buckets[b].second += 1;
  }
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    os << r.label << ',' << b * (kBucket / 1000) << ',' << buckets[b].first
       << ',' << buckets[b].second << '\n';
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::string trace_file =
      benchutil::trace_flag(argc, argv, "tab_kvstore_trace.json");
  trace::Recorder rec;
  trace::Recorder* const tracer = trace_file.empty() ? nullptr : &rec;
  topo::TopoConfig crossbar;
  crossbar.kind = topo::Kind::crossbar;
  topo::TopoConfig torus;
  torus.kind = topo::Kind::torus3d;
  torus.dim_x = 2;
  torus.dim_y = 2;
  torus.dim_z = 2;

  const RunResult xu =
      run_config(crossbar, 0.0, "kv-crossbar-uniform", tracer);
  const RunResult xz =
      run_config(crossbar, 0.99, "kv-crossbar-zipf99", tracer);
  const RunResult tu = run_config(torus, 0.0, "kv-torus-uniform", tracer);
  const RunResult tz = run_config(torus, 0.99, "kv-torus-zipf99", tracer);
  const RunResult* runs[] = {&xu, &xz, &tu, &tz};

  Table t;
  t.title =
      "KV store macro-workload (Table S13) — " +
      std::to_string(kClients) + " clients x " +
      std::to_string(kOpsPerClient) +
      " ops (70/20/10 get/put/rmw, window 8, 2 KiB values) against " +
      std::to_string(kServers) +
      " range-sharded servers, 2048 keys; Cray-XT5-like calibration. "
      "Latency percentiles over all ops, virtual us";
  t.header = {"topology", "keys",       "ops",       "elapsed (ms)",
              "kops/s",   "p50 (us)",   "p99 (us)",  "p99.9 (us)",
              "hot shard", "hot link util"};
  for (const RunResult* r : runs) {
    const std::string topo_name =
        r->label.find("torus") != std::string::npos ? "2x2x2 torus"
                                                    : "crossbar";
    const std::string dist =
        r->label.find("zipf") != std::string::npos ? "Zipf(0.99)" : "uniform";
    t.rows.push_back({topo_name, dist, benchutil::fmt_u64(r->ops),
                      benchutil::fmt_ms(r->phase_ns), fmt_kops(*r),
                      benchutil::fmt_us(r->tail.p50),
                      benchutil::fmt_us(r->tail.p99),
                      benchutil::fmt_us(r->tail.p999),
                      fmt_pct(hot_shard_bp(*r)),
                      fmt_pct(r->hot_link_bp) + " " + r->hot_link});
  }
  t.print();

  std::printf("\nper-shard ops (measured phase):\n");
  for (const RunResult* r : runs) {
    std::printf("  %-20s:", r->label.c_str());
    for (int s = 0; s < kServers; ++s) {
      std::printf(" shard%d=%llu", s,
                  static_cast<unsigned long long>(
                      r->shard_ops[static_cast<std::size_t>(s)]));
    }
    std::printf("\n");
  }

  std::printf("\nshape checks:\n");
  std::printf("  all %d keys resident on every config    : %s\n", 2048,
              (xu.occupancy == xz.occupancy && xu.occupancy == tu.occupancy &&
               xu.occupancy == tz.occupancy)
                  ? "yes"
                  : "NO");
  std::printf("  zipf hot-shard share vs uniform (xbar)  : %s vs %s\n",
              fmt_pct(hot_shard_bp(xz)).c_str(),
              fmt_pct(hot_shard_bp(xu)).c_str());
  std::printf("  zipf p99.9 / uniform p99.9 on crossbar  : %s\n",
              benchutil::fmt_ratio(xz.tail.p999, xu.tail.p999).c_str());
  std::printf("  zipf p99.9 / uniform p99.9 on torus     : %s (amplified)\n",
              benchutil::fmt_ratio(tz.tail.p999, tu.tail.p999).c_str());
  std::printf("  zipf hot-link util, torus vs crossbar   : %s vs %s\n",
              fmt_pct(tz.hot_link_bp).c_str(),
              fmt_pct(xz.hot_link_bp).c_str());
  std::printf("  throughput, zipf vs uniform on torus    : %s vs %s kops/s\n",
              fmt_kops(tz).c_str(), fmt_kops(tu).c_str());

  const std::string csv_file =
      benchutil::csv_flag(argc, argv, "tab_kvstore.csv");
  if (!csv_file.empty()) {
    std::ofstream os(csv_file, std::ios::binary);
    os << "config,bucket_start_us,ops,hot_shard_ops\n";
    for (const RunResult* r : runs) write_csv(os, *r);
    std::printf("\ntimeline csv: -> %s\n", csv_file.c_str());
  }

  if (tracer != nullptr) benchutil::export_trace(rec, trace_file);
  benchutil::MetricsJson mj{
      "tab_kvstore", benchutil::metrics_json_flag(argc, argv, "tab_kvstore"),
      {}, {}};
  mj.add(t);
  mj.write();
  return 0;
}
