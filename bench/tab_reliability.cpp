// Reliability-cost table: what the SeaStar firmware's ack/retransmit layer
// would cost if we had to pay for it, measured the same way Figure 2
// measures the cost of each RMA attribute.
//
// The paper's prototype assumes a hardware-reliable network; our fabric can
// drop packets (CostModel::loss_rate), and the reliable transport sublayer
// (fabric/reliability.hpp) recovers the loss with cumulative acks and
// backed-off retransmission. This bench sweeps loss_rate x retransmit
// timeout over a stream of rc puts and reports goodput and the latency the
// sublayer adds over the bare (reliability-off, lossless) wire.
//
//   build/bench/tab_reliability
//   build/bench/tab_reliability --seeds 1000-1039
//
// `--seeds A-B` replaces the single seeded table with each (loss, rto)
// cell's median total and median standalone-ack count over
// `WorldConfig::seed` A..B, so a comparison of two builds does not rest on
// one loss pattern.
#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <utility>
#include <vector>

#include "bench/bench_util.hpp"
#include "core/rma_engine.hpp"

using namespace m3rma;
using benchutil::Table;

namespace {

constexpr int kOps = 64;
constexpr std::uint64_t kBytes = 4 * 1024;

struct CaseResult {
  sim::Time elapsed = 0;            // rank 0 issue..complete, virtual ns
  std::uint64_t drops = 0;          // packets lost on the wire
  std::uint64_t retransmits = 0;    // data packets re-injected
  std::uint64_t duplicates = 0;     // re-deliveries suppressed
  std::uint64_t acks = 0;           // standalone ack-only packets
};

CaseResult run_case(bool reliable, double loss, sim::Time rto,
                    trace::Recorder* rec = nullptr,
                    const std::string& label = {},
                    std::optional<std::uint64_t> seed = std::nullopt) {
  auto cfg = benchutil::xt5_config(2);
  if (seed) cfg.seed = *seed;
  cfg.costs.loss_rate = loss;
  cfg.costs.reliability.enabled = reliable;
  cfg.costs.reliability.retransmit_timeout_ns = rto;
  CaseResult res;
  runtime::World w(cfg);
  if (rec != nullptr) {
    rec->begin_process(label);
    w.engine().set_tracer(rec);
  }
  w.run([&](runtime::Rank& r) {
    core::RmaEngine rma(r, r.comm_world());
    auto [buf, mems] = rma.allocate_shared(kBytes);
    auto src = r.alloc(kBytes);
    r.comm_world().barrier();
    if (r.id() == 0) {
      const sim::Time t0 = r.ctx().now();
      for (int i = 0; i < kOps; ++i) {
        rma.put_bytes(src.addr, mems[1], 0, kBytes, 1,
                      core::Attrs(core::RmaAttr::remote_completion));
      }
      rma.complete(1);
      res.elapsed = r.ctx().now() - t0;
    }
    rma.complete_collective();
  });
  res.drops = w.fabric().dropped_packets();
  for (int n = 0; n < 2; ++n) {
    if (const auto* rel = w.fabric().nic(n).reliability()) {
      res.retransmits += rel->stats().retransmits;
      res.duplicates += rel->stats().duplicates_suppressed;
      res.acks += rel->stats().acks_sent;
    }
  }
  return res;
}

std::string fmt_goodput(sim::Time elapsed) {
  // Payload bytes per virtual second, reported in MB/s.
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.0f",
                static_cast<double>(kOps * kBytes) /
                    static_cast<double>(elapsed) * 1e3);
  return buf;
}

/// Parse `--seeds A-B` into an inclusive seed range; nullopt when the flag
/// is absent. A malformed range exits with status 2.
std::optional<std::pair<std::uint64_t, std::uint64_t>> seeds_flag(
    int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) != "--seeds") continue;
    unsigned long long lo = 0, hi = 0;
    char tail = 0;
    if (std::sscanf(argv[i + 1], "%llu-%llu%c", &lo, &hi, &tail) != 2 ||
        lo > hi) {
      std::fprintf(stderr, "--seeds wants A-B with A <= B, got '%s'\n",
                   argv[i + 1]);
      std::exit(2);
    }
    return std::pair{lo, hi};
  }
  return std::nullopt;
}

/// Median of `v` (mean of the middle two for an even count).
double median(std::vector<std::uint64_t> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? static_cast<double>(v[n / 2])
                    : (static_cast<double>(v[n / 2 - 1]) +
                       static_cast<double>(v[n / 2])) /
                          2.0;
}

}  // namespace

int main(int argc, char** argv) {
  const double losses[] = {0.0, 0.01, 0.05, 0.2};
  const sim::Time rtos[] = {20'000, 50'000, 200'000};

  if (const auto seeds = seeds_flag(argc, argv)) {
    const auto [lo, hi] = *seeds;
    Table t;
    t.title = "Reliability cost — median total over seeds " +
              std::to_string(lo) + "-" + std::to_string(hi) +
              " (64 rc puts of 4 KiB, rank 0 -> 1)";
    t.header = {"loss_rate", "rto (us)", "median total (us)",
                "median standalone acks"};
    for (double loss : losses) {
      for (sim::Time rto : rtos) {
        std::vector<std::uint64_t> totals, acks;
        for (std::uint64_t seed = lo; seed <= hi; ++seed) {
          const CaseResult c = run_case(true, loss, rto, nullptr, {}, seed);
          totals.push_back(c.elapsed);
          acks.push_back(c.acks);
        }
        char lossbuf[16], med[32], medacks[32];
        std::snprintf(lossbuf, sizeof(lossbuf), "%.2f", loss);
        std::snprintf(med, sizeof(med), "%.2f", median(totals) / 1e3);
        std::snprintf(medacks, sizeof(medacks), "%.1f", median(acks));
        t.rows.push_back({lossbuf, benchutil::fmt_us(rto), med, medacks});
      }
    }
    t.print();
    return 0;
  }

  // Bare wire: reliability off, lossless — the Figure 2 regime.
  const CaseResult bare = run_case(false, 0.0, 0);

  Table t;
  t.title =
      "Reliability cost — 64 rc puts of 4 KiB, rank 0 -> 1, Cray-XT5-like "
      "calibration; goodput (MB/s of payload) and added latency vs the "
      "bare wire (reliability off, loss 0 = " +
      benchutil::fmt_us(bare.elapsed) + " us total)";
  t.header = {"loss_rate", "rto (us)",    "total (us)", "goodput (MB/s)",
              "added/op (us)", "retransmits", "dup sup",    "drops"};
  std::vector<CaseResult> at_default_rto;
  for (double loss : losses) {
    for (sim::Time rto : rtos) {
      const CaseResult c = run_case(true, loss, rto);
      const double added_per_op =
          (static_cast<double>(c.elapsed) -
           static_cast<double>(bare.elapsed)) /
          static_cast<double>(kOps) / 1e3;
      char added[32];
      std::snprintf(added, sizeof(added), "%.2f", added_per_op);
      char lossbuf[16];
      std::snprintf(lossbuf, sizeof(lossbuf), "%.2f", loss);
      t.rows.push_back({lossbuf, benchutil::fmt_us(rto),
                        benchutil::fmt_us(c.elapsed), fmt_goodput(c.elapsed),
                        added, benchutil::fmt_u64(c.retransmits),
                        benchutil::fmt_u64(c.duplicates),
                        benchutil::fmt_u64(c.drops)});
      if (rto == 50'000) at_default_rto.push_back(c);
    }
  }
  t.print();

  std::printf("\nshape checks (rto = 50 us column):\n");
  std::printf("  lossless reliability tax    : %s of bare wire\n",
              benchutil::fmt_ratio(at_default_rto[0].elapsed, bare.elapsed)
                  .c_str());
  std::printf("  loss 0.20 / loss 0 goodput  : %s slower (retransmit "
              "stalls dominate)\n",
              benchutil::fmt_ratio(at_default_rto[3].elapsed,
                                   at_default_rto[0].elapsed)
                  .c_str());
  std::printf("  every case delivered all %d puts (completion converged "
              "despite drops)\n",
              kOps);

  const std::string csv_file =
      benchutil::csv_flag(argc, argv, "tab_reliability.csv");
  if (!csv_file.empty()) {
    std::ofstream os(csv_file, std::ios::binary);
    t.write_csv(os);
    std::printf("\ntable csv: -> %s\n", csv_file.c_str());
  }

  // Optional trace pass: one lossy case with the recorder attached, showing
  // wire spans and retransmit/dup instants. Off the table path so the
  // numbers above never move.
  const std::string trace_file =
      benchutil::trace_flag(argc, argv, "tab_reliability_trace.json");
  if (!trace_file.empty()) {
    trace::Recorder rec;
    trace::OpTimeline tl;
    rec.set_op_timeline(&tl);
    run_case(true, 0.05, 50'000, &rec, "reliability loss=0.05 rto=50us");
    benchutil::export_trace(rec, trace_file);
    // Per-op tail latency of the traced lossy case, from the op timeline's
    // nearest-rank percentiles: retransmit stalls live in the tail, not the
    // median.
    const std::string key = "rma.put[remote_completion]";
    if (auto p50 = tl.latency_percentile(50.0, key)) {
      std::printf("put latency (loss=0.05): p50=%s us p99=%s us "
                  "p99.9=%s us\n",
                  benchutil::fmt_us(*p50).c_str(),
                  benchutil::fmt_us(*tl.latency_percentile(99.0, key)).c_str(),
                  benchutil::fmt_us(*tl.latency_percentile(99.9, key)).c_str());
    }
  }
  benchutil::MetricsJson mj{
      "tab_reliability",
      benchutil::metrics_json_flag(argc, argv, "tab_reliability"),
      {},
      {}};
  mj.add(t);
  mj.write();
  return 0;
}
