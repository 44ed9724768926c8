// Shared helpers for the reproduction benches.
//
// Every bench runs the workload inside the deterministic simulator and
// reports VIRTUAL time (the simulated Cray-XT5-like machine's clock), so
// results are exactly reproducible. Absolute values are not expected to
// match the paper's hardware; the shapes (ratios, crossovers, which line
// wins) are what each bench reproduces — see EXPERIMENTS.md.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "runtime/chaos.hpp"
#include "runtime/world.hpp"
#include "trace/attribution.hpp"
#include "trace/recorder.hpp"

namespace benchutil {

namespace detail {
/// Hook run by run_world on every freshly built world, before any rank
/// body executes. TraceSession uses it to attach its recorder without the
/// bench threading one through every helper.
inline std::function<void(m3rma::runtime::World&)>& world_hook() {
  static std::function<void(m3rma::runtime::World&)> h;
  return h;
}
}  // namespace detail

/// Cray-XT5-like machine (the paper's testbed): SeaStar2+-ish latency and
/// bandwidth, in-order delivery, Portals completion (ACK) events, NIC
/// atomics.
inline m3rma::runtime::WorldConfig xt5_config(int ranks) {
  m3rma::runtime::WorldConfig c;
  c.ranks = ranks;
  c.caps.ordered_delivery = true;
  c.caps.remote_completion_events = true;
  c.caps.native_atomics = true;
  c.costs.latency_ns = 4200;
  c.costs.inject_overhead_ns = 1200;
  c.costs.bytes_per_ns = 1.6;
  c.costs.delivery_overhead_ns = 400;
  c.costs.loopback_latency_ns = 250;
  c.costs.local_completion_ns = 3000;
  c.costs.jitter_ns = 3000;
  c.costs.delivery_occupancy_ns = 250;
  c.seed = 20090922;  // ICPP 2009
  return c;
}

/// Quadrics-like variant: fast but adaptively-routed (unordered) network.
inline m3rma::runtime::WorldConfig unordered_config(int ranks) {
  auto c = xt5_config(ranks);
  c.caps.ordered_delivery = false;
  return c;
}

struct Table {
  std::string title;
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;

  void print() const {
    std::printf("\n## %s\n\n", title.c_str());
    auto print_row = [](const std::vector<std::string>& cells) {
      std::printf("|");
      for (const auto& c : cells) std::printf(" %s |", c.c_str());
      std::printf("\n");
    };
    print_row(header);
    std::printf("|");
    for (std::size_t i = 0; i < header.size(); ++i) std::printf("---|");
    std::printf("\n");
    for (const auto& r : rows) print_row(r);
  }

  /// Machine-readable dump of the same cells the markdown table prints
  /// (header row first). Cells never contain commas, so no quoting.
  void write_csv(std::ostream& os) const {
    auto csv_row = [&os](const std::vector<std::string>& cells) {
      for (std::size_t i = 0; i < cells.size(); ++i) {
        if (i > 0) os << ',';
        os << cells[i];
      }
      os << '\n';
    };
    csv_row(header);
    for (const auto& r : rows) csv_row(r);
  }
};

inline std::string fmt_ms(m3rma::sim::Time ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(ns) / 1e6);
  return buf;
}

inline std::string fmt_us(m3rma::sim::Time ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", static_cast<double>(ns) / 1e3);
  return buf;
}

inline std::string fmt_ratio(m3rma::sim::Time num, m3rma::sim::Time den) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2fx",
                static_cast<double>(num) / static_cast<double>(den));
  return buf;
}

inline std::string fmt_u64(std::uint64_t v) { return std::to_string(v); }

/// Run `fn` on every rank of a fresh world; returns total virtual duration.
inline m3rma::sim::Time run_world(
    m3rma::runtime::WorldConfig cfg,
    const std::function<void(m3rma::runtime::Rank&)>& fn) {
  m3rma::runtime::World w(std::move(cfg));
  if (const auto& hook = detail::world_hook()) hook(w);
  w.run(fn);
  return w.duration();
}

// ----------------------------------------------------------------- tracing

/// Parse `--trace=FILE` (or bare `--trace`, defaulting to <name>.json) from
/// the bench's argv. Empty string = tracing off; table output is then
/// byte-identical to a build without the trace layer.
inline std::string trace_flag(int argc, char** argv,
                              const std::string& default_file) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--trace=", 0) == 0) return a.substr(8);
    if (a == "--trace") return default_file;
  }
  return {};
}

/// Parse `--trace-flame=FILE` (or bare `--trace-flame`, defaulting to
/// <name>.flame): flame-style span aggregation of the traced pass
/// (Recorder::write_flame). Empty string = off.
inline std::string flame_flag(int argc, char** argv,
                              const std::string& default_file) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--trace-flame=", 0) == 0) return a.substr(14);
    if (a == "--trace-flame") return default_file;
  }
  return {};
}

/// Parse a CSV-output flag (`FLAG=FILE`, or bare `FLAG` defaulting to
/// `default_file`) from the bench's argv. Empty string = no CSV. One parser
/// for every table's machine-readable dump (S9-S13); `flag` keeps legacy
/// spellings (e.g. tab_congestion's --heatmap-csv) on the same code path.
inline std::string csv_flag(int argc, char** argv,
                            const std::string& default_file,
                            const std::string& flag = "--csv") {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind(flag + "=", 0) == 0) return a.substr(flag.size() + 1);
    if (a == flag) return default_file;
  }
  return {};
}

// ------------------------------------------------- fault-schedule flags
//
// Every fault-injecting bench (tab_fault_recovery, tab_survivability,
// tab_chaos_kvstore) accepts the same two flags:
//
//   --faults=SPEC    explicit fail-stop schedule in describe_plan notation:
//                    comma-separated rank@TIMEus entries with an optional
//                    announce suffix (`!` announced, `~` silent; no suffix =
//                    the bench case decides). The "us" is optional:
//                    --faults=7@350us!,3@900~
//   --chaos-seed=N   derive the schedule from the bench's ChaosSpec via
//                    chaos_plan(spec, N); sweep benches use N as the base
//                    seed of the whole sweep.

/// Parse `--faults=SPEC`. Returns nullopt when absent; exits with a
/// diagnostic on a malformed spec (a silently dropped typo would
/// masquerade as the bench's default schedule).
inline std::optional<m3rma::runtime::FaultPlan> faults_flag(int argc,
                                                            char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--faults=", 0) != 0) continue;
    const auto die = [](const std::string& why) {
      std::fprintf(stderr,
                   "bad --faults entry '%s': expected rank@TIMEus[!|~], "
                   "e.g. --faults=7@350us!,3@900~\n",
                   why.c_str());
      std::exit(2);
    };
    m3rma::runtime::FaultPlan plan;
    std::stringstream ss(a.substr(9));
    std::string item;
    while (std::getline(ss, item, ',')) {
      const std::string raw = item;
      m3rma::runtime::FaultEvent fe;
      if (!item.empty() && item.back() == '!') {
        fe.announce = 1;
        item.pop_back();
      } else if (!item.empty() && item.back() == '~') {
        fe.announce = 0;
        item.pop_back();
      }
      if (item.size() > 2 && item.compare(item.size() - 2, 2, "us") == 0) {
        item.erase(item.size() - 2);
      }
      const std::size_t sep = item.find('@');
      if (sep == 0 || sep == std::string::npos || sep + 1 >= item.size()) {
        die(raw);
      }
      try {
        std::size_t used = 0;
        fe.rank = std::stoi(item.substr(0, sep), &used);
        if (used != sep) die(raw);
        fe.at = static_cast<m3rma::sim::Time>(
                    std::stoull(item.substr(sep + 1), &used)) *
                1000;  // flag times are virtual microseconds
        if (used != item.size() - sep - 1) die(raw);
      } catch (const std::exception&) {
        die(raw);
      }
      plan.schedule.push_back(fe);
    }
    if (plan.schedule.empty()) die("(empty)");
    return plan;
  }
  return std::nullopt;
}

/// Parse `--chaos-seed=N` (any strtoull base). Returns nullopt when absent.
inline std::optional<std::uint64_t> chaos_seed_flag(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--chaos-seed=", 0) == 0) {
      return std::strtoull(a.c_str() + 13, nullptr, 0);
    }
  }
  return std::nullopt;
}

/// Resolve a fixed-schedule bench's fault plan from the shared flags:
/// --faults wins outright; --chaos-seed expands `spec`, stripping the
/// per-event announce draw so the bench's announced/silent cases still
/// control it; otherwise `fallback` (the bench's built-in schedule).
inline m3rma::runtime::FaultPlan resolve_fault_plan(
    int argc, char** argv, const m3rma::runtime::FaultPlan& fallback,
    const m3rma::runtime::ChaosSpec& spec) {
  if (auto p = faults_flag(argc, argv)) return *p;
  if (auto s = chaos_seed_flag(argc, argv)) {
    auto p = m3rma::runtime::chaos_plan(spec, *s);
    for (auto& fe : p.schedule) fe.announce = -1;
    return p;
  }
  return fallback;
}

/// True when either fault flag was given — fixed-schedule benches use this
/// to keep their default titles byte-identical while labelling overridden
/// runs with the actual plan.
inline bool fault_flags_given(int argc, char** argv) {
  return faults_flag(argc, argv).has_value() ||
         chaos_seed_flag(argc, argv).has_value();
}

/// Run `fn` on every rank of a fresh world with `rec` attached to the
/// engine, grouped in the exported trace as a chrome process named `label`.
inline m3rma::sim::Time run_world_traced(
    m3rma::runtime::WorldConfig cfg, m3rma::trace::Recorder& rec,
    const std::string& label,
    const std::function<void(m3rma::runtime::Rank&)>& fn) {
  m3rma::runtime::World w(std::move(cfg));
  rec.begin_process(label);
  w.engine().set_tracer(&rec);
  w.run(fn);
  return w.duration();
}

/// Write the Chrome trace JSON to `path` (load it in Perfetto /
/// chrome://tracing).
inline void export_trace(const m3rma::trace::Recorder& rec,
                         const std::string& path) {
  std::ofstream os(path, std::ios::binary);
  rec.write_chrome_trace(os);
  std::printf("\ntrace: %zu records -> %s\n", rec.record_count(),
              path.c_str());
}

/// Write the flame-style aggregation ("stack total_ns count" lines, see
/// Recorder::write_flame) to `path`.
inline void export_flame(const m3rma::trace::Recorder& rec,
                         const std::string& path) {
  std::ofstream os(path, std::ios::binary);
  rec.write_flame(os);
  std::printf("flame: -> %s\n", path.c_str());
}

// ----------------------------------------------- machine-readable metrics

/// Parse `--metrics-json[=FILE]` from the bench's argv. Bare flag defaults
/// to BENCH_<name>.json in the working directory. Empty string = off (the
/// default, so bench stdout stays byte-identical).
inline std::string metrics_json_flag(int argc, char** argv,
                                     const std::string& bench_name) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--metrics-json=", 0) == 0) return a.substr(15);
    if (a == "--metrics-json") return "BENCH_" + bench_name + ".json";
  }
  return {};
}

inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Collects every table a bench prints and emits them as one JSON document:
///   {"bench": NAME, "tables": [{title, header, rows}], "attribution": {...}}
/// `attribution` (optional) is an OpTimeline::write_json document — the
/// per-segment latency breakdown of the bench's traced pass. Disabled (path
/// empty) the sink is a no-op, keeping default runs allocation-identical.
struct MetricsJson {
  std::string bench;
  std::string path;  // empty = disabled
  std::vector<Table> tables;
  std::string attribution;  // raw OpTimeline::write_json output, or empty

  bool enabled() const { return !path.empty(); }
  void add(const Table& t) {
    if (enabled()) tables.push_back(t);
  }
  void write() const {
    if (!enabled()) return;
    std::ofstream os(path, std::ios::binary);
    os << "{\"bench\":\"" << json_escape(bench) << "\",\"tables\":[";
    for (std::size_t t = 0; t < tables.size(); ++t) {
      const Table& tab = tables[t];
      if (t > 0) os << ",";
      os << "\n{\"title\":\"" << json_escape(tab.title) << "\",\"header\":[";
      for (std::size_t i = 0; i < tab.header.size(); ++i) {
        if (i > 0) os << ",";
        os << "\"" << json_escape(tab.header[i]) << "\"";
      }
      os << "],\"rows\":[";
      for (std::size_t r = 0; r < tab.rows.size(); ++r) {
        if (r > 0) os << ",";
        os << "[";
        for (std::size_t i = 0; i < tab.rows[r].size(); ++i) {
          if (i > 0) os << ",";
          os << "\"" << json_escape(tab.rows[r][i]) << "\"";
        }
        os << "]";
      }
      os << "]}";
    }
    os << "]";
    if (!attribution.empty()) {
      // write_json ends with a newline; trim it so the document stays tight.
      std::string a = attribution;
      while (!a.empty() && a.back() == '\n') a.pop_back();
      os << ",\"attribution\":" << a;
    }
    os << "}\n";
    std::printf("metrics-json: -> %s\n", path.c_str());
  }
};

// ------------------------------------------------- one-call trace wiring

/// Wires --trace / --trace-flame / --metrics-json into a bench with one
/// object: construct it first in main, call add() after each table's
/// print(), finish() last. While any flag is given, every run_world()
/// attaches the session's recorder (with an OpTimeline, so the breakdown
/// rides along in the metrics JSON). Recording is zero-perturbation, so
/// the tables stay byte-identical with and without flags — the flags only
/// append a conservation line and export lines after the normal output.
struct TraceSession {
  std::string bench;
  std::string trace_file, flame_file;
  m3rma::trace::Recorder rec;
  m3rma::trace::OpTimeline tl;
  MetricsJson mj;
  int worlds = 0;

  TraceSession(int argc, char** argv, const std::string& name)
      : bench(name),
        trace_file(trace_flag(argc, argv, name + "_trace.json")),
        flame_file(flame_flag(argc, argv, name + ".flame")),
        mj{name, metrics_json_flag(argc, argv, name), {}, {}} {
    if (active()) {
      rec.set_op_timeline(&tl);
      detail::world_hook() = [this](m3rma::runtime::World& w) {
        rec.begin_process(bench + " world " + std::to_string(++worlds));
        w.engine().set_tracer(&rec);
      };
    }
  }
  ~TraceSession() { detail::world_hook() = nullptr; }
  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  bool active() const {
    return !trace_file.empty() || !flame_file.empty() || mj.enabled();
  }
  void add(const Table& t) { mj.add(t); }

  void finish() {
    if (!active()) return;
    std::printf("\nconservation self-check: %s (%llu ops, %llu open)\n",
                tl.conservation_ok() ? "yes" : "NO",
                static_cast<unsigned long long>(tl.completed_ops()),
                static_cast<unsigned long long>(tl.open_ops()));
    if (mj.enabled() && tl.completed_ops() > 0) {
      std::ostringstream os;
      tl.write_json(os);
      std::string a = os.str();
      while (!a.empty() && a.back() == '\n') a.pop_back();
      mj.attribution = a;
    }
    if (!trace_file.empty()) export_trace(rec, trace_file);
    if (!flame_file.empty()) export_flame(rec, flame_file);
    mj.write();
  }
};

/// Remove the bench_util flags from argv so google-benchmark-based benches
/// can forward the remainder to benchmark::Initialize (which rejects
/// unknown flags) after parsing ours.
inline void strip_benchutil_flags(int& argc, char** argv) {
  int w = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool ours = a.rfind("--trace", 0) == 0 ||
                      a.rfind("--csv", 0) == 0 ||
                      a.rfind("--metrics-json", 0) == 0 ||
                      a.rfind("--breakdown-json", 0) == 0 ||
                      a.rfind("--heatmap-csv", 0) == 0 ||
                      a.rfind("--faults", 0) == 0 ||
                      a.rfind("--chaos-seed", 0) == 0;
    if (!ours) argv[w++] = argv[i];
  }
  argc = w;
}

}  // namespace benchutil
