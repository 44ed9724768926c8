// perfbench: the repo benchmark's measuring program. Runs one standing
// workload for a wall-clock budget and prints its metrics; perfbench/run.py
// builds it and is the command users run.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// A run repeats whole rounds (World construction, set-up, measured phase,
// output checks) with the same seed until `--seconds` of wall time have
// passed. Virtual-time metrics are exact for a seed, so every round must
// reproduce the first one bit for bit (the determinism self-check); wall
// metrics are the median over rounds.
//
// --trace 0 prints the end-to-end metrics. --trace 1 alternates an untraced
// and a traced round, prints the per-layer metrics, and checks that
// recording left the virtual-time metrics unchanged.
//
// The last line of stdout is one JSON object:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
// Exit status is 0 only when every output check passed.
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <initializer_list>
#include <map>
#include <string>
#include <vector>

#include "harness.hpp"

using namespace perfbench;

namespace {

struct Workload {
  const char* name;
  Round (*run)(std::uint64_t seed, bool traced);
};

constexpr Workload kWorkloads[] = {
    {"kv_zipf_torus", run_kv_zipf_torus},
    {"lock_hotspot_64", run_lock_hotspot},
    {"notify_fanin_lossy", run_notify_fanin},
};

// Each run measures whole rounds; at least this many, so set-up time is a
// median too.
constexpr int kMinRounds = 3;
// p99.9 needs at least 10 samples beyond it.
constexpr std::size_t kMinSamples = 10'000;

struct Metric {
  const char* name;
  const char* unit;
};

constexpr Metric kEndToEnd[] = {
    {"op_p50_us", "us"},
    {"op_p99_us", "us"},
    {"op_p999_us", "us"},
    {"virt_kops", "kops/s"},
    {"sim_kops_per_wall_s", "kops/s"},
    {"setup_s", "s"},
    {"peak_rss_mib", "MiB"},
};

// Per-layer metrics of the traced run. A layer a workload never touches
// reads 0 there.
constexpr Metric kPerLayer[] = {
    {"simtime.events", "count"},
    {"simtime.context_switches", "count"},
    {"simtime.switches_per_op", "1/op"},
    {"simtime.wall_ns_per_event", "ns"},
    {"runtime.world_ctor_s", "s"},
    {"runtime.barrier_wall_ms", "ms"},
    {"memsim.arena_mib", "MiB"},
    {"core.engine_ctor_s", "s"},
    {"core.lock_acquisitions_per_op", "1/op"},
    {"core.am_ops_applied", "count"},
    {"seg.lock_wait_share", "ratio"},
    {"seg.serialize_wait_share", "ratio"},
    {"seg.apply_share", "ratio"},
    {"seg.inject_share", "ratio"},
    {"seg.completion_share", "ratio"},
    {"seg.other_share", "ratio"},
    {"topo.hot_link_util", "ratio"},
    {"seg.contention_share", "ratio"},
    {"seg.wire_share", "ratio"},
    {"fabric.msgs_per_op", "1/op"},
    {"fabric.bytes_per_op", "B/op"},
    {"fabric.retransmits_per_kpkt", "1/kpkt"},
    {"fabric.standalone_acks_per_kpkt", "1/kpkt"},
    {"fabric.dropped_packets", "count"},
    {"seg.retransmit_share", "ratio"},
    {"notify.delivered", "count"},
    {"seg.notify_share", "ratio"},
    {"seg.delivery_share", "ratio"},
    {"apps.preload_s", "s"},
    {"apps.warm_s", "s"},
    {"apps.cache_hit_ratio", "ratio"},
    {"apps.hot_shard_share", "ratio"},
    {"apps.probes_per_insert", "1/insert"},
    {"apps.cas_conflicts", "count"},
    {"trace.overhead_ratio", "ratio"},
    {"trace.conservation_ok", "bool"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1\nworkloads:",
               why);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const std::string& v) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long x = std::strtoull(v.c_str(), &end, 10);
  if (v.empty() || *end != '\0' || errno != 0 || v[0] == '-') {
    usage(("bad value for " + flag + ": " + v).c_str());
  }
  return x;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n == 0 ? 0.0 : n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// The virtual-time end-to-end metrics of one round (exact for a seed).
struct Virtual {
  double p50_us = 0, p99_us = 0, p999_us = 0, kops = 0;
  std::uint64_t digest = 0;  ///< latency stream + op sequence + phase length
  bool operator==(const Virtual&) const = default;
};

Virtual virtual_of(const Round& r) {
  Virtual v;
  v.p50_us = static_cast<double>(percentile(r.lat, 50.0)) / 1e3;
  v.p99_us = static_cast<double>(percentile(r.lat, 99.0)) / 1e3;
  v.p999_us = static_cast<double>(percentile(r.lat, 99.9)) / 1e3;
  v.kops = r.phase_ns == 0 ? 0.0
                           : static_cast<double>(r.lat.size()) * 1e6 /
                                 static_cast<double>(r.phase_ns);
  v.digest = digest(r.op_digest, r.phase_ns);
  for (const Time t : r.lat) v.digest = digest(v.digest, t);
  return v;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  std::map<std::string, double> metrics;

  void add_round(const Round& r, int index) {
    attempted += r.attempted;
    failed += r.failed;
    for (const std::string& f : r.check_failures) {
      failures.push_back("round " + std::to_string(index) + ": " + f);
    }
    if (r.lat.size() < kMinSamples) {
      failures.push_back("round " + std::to_string(index) + ": only " +
                         std::to_string(r.lat.size()) + " latency samples");
    }
  }
};

void print_json(const Report& rep, const Metric* begin, const Metric* end) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              rep.failures.empty() && rep.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(rep.attempted),
              static_cast<unsigned long long>(rep.failed +
                                              rep.failures.size()));
  for (const Metric* m = begin; m != end; ++m) {
    const auto it = rep.metrics.find(m->name);
    const double v = it == rep.metrics.end() ? 0.0 : it->second;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                m == begin ? "" : ", ", m->name, std::isfinite(v) ? v : 0.0,
                m->unit);
  }
  std::printf("}}\n");
}

void print_virtual(const char* label, const Virtual& v, std::size_t samples) {
  std::printf("%s: samples=%zu p50=%.3f us p99=%.3f us p99.9=%.3f us "
              "virt=%.3f kops/s digest=%016llx\n",
              label, samples, v.p50_us, v.p99_us, v.p999_us, v.kops,
              static_cast<unsigned long long>(v.digest));
}

int run(const Workload& wl, std::uint64_t seed, double seconds, bool trace) {
  const Clock::time_point start = Clock::now();
  const auto elapsed = [&] { return seconds_between(start, Clock::now()); };
  Report rep;
  std::vector<Round> plain;
  std::vector<Round> traced;
  do {
    plain.push_back(wl.run(seed, false));
    rep.add_round(plain.back(), static_cast<int>(plain.size() - 1));
    if (trace) {
      traced.push_back(wl.run(seed, true));
      rep.add_round(traced.back(), static_cast<int>(traced.size() - 1));
    }
  } while (elapsed() < seconds ||
           (!trace && static_cast<int>(plain.size()) < kMinRounds));

  const Round& first = plain.front();
  const Virtual v = virtual_of(first);
  std::printf("perfbench %s seed=%llu rounds=%zu%s\n", wl.name,
              static_cast<unsigned long long>(seed), plain.size(),
              trace ? " (+ as many traced)" : "");
  std::printf("op_digest %016llx\n",
              static_cast<unsigned long long>(first.op_digest));
  print_virtual("virtual", v, first.lat.size());
  for (std::size_t i = 1; i < plain.size(); ++i) {
    if (!(virtual_of(plain[i]) == v)) {
      rep.failures.push_back("round " + std::to_string(i) +
                             " with the same seed diverged from round 0");
    }
  }

  std::vector<double> setup, kops_wall;
  for (const Round& r : plain) {
    setup.push_back(r.setup_s);
    kops_wall.push_back(static_cast<double>(r.lat.size()) / r.phase_wall_s /
                        1e3);
  }

  if (!trace) {
    rep.metrics = {
        {"op_p50_us", v.p50_us},
        {"op_p99_us", v.p99_us},
        {"op_p999_us", v.p999_us},
        {"virt_kops", v.kops},
        {"sim_kops_per_wall_s", median(kops_wall)},
        {"setup_s", median(setup)},
        {"peak_rss_mib", peak_rss_mib()},
    };
  } else {
    const Virtual tv = virtual_of(traced.front());
    print_virtual("traced", tv, traced.front().lat.size());
    if (!(tv == v)) {
      rep.failures.push_back("tracing changed the virtual-time metrics");
    }
    // Counters and virtual shares are exact for the seed: take them from
    // the first pair (the untraced round first, the traced one adds the
    // segment shares). Wall spans are medians over the untraced rounds.
    for (const Round* r :
         std::initializer_list<const Round*>{&first, &traced.front()}) {
      for (const auto& [k, val] : r->layer) rep.metrics[k] = val;
    }
    std::map<std::string, std::vector<double>> walls;
    for (const Round& r : plain) {
      for (const auto& [k, val] : r.layer_wall) walls[k].push_back(val);
    }
    for (const auto& [k, vals] : walls) rep.metrics[k] = median(vals);
    std::vector<double> overhead;
    for (std::size_t i = 0; i < plain.size(); ++i) {
      overhead.push_back(traced[i].phase_wall_s / plain[i].phase_wall_s);
    }
    rep.metrics["trace.overhead_ratio"] = median(overhead);
    if (rep.metrics["trace.conservation_ok"] != 1.0) {
      rep.failures.push_back("OpTimeline conservation does not hold");
    }
    std::printf("conservation: %s over %.0f measured ops\n",
                rep.metrics["trace.conservation_ok"] == 1.0 ? "yes" : "NO",
                rep.metrics["trace.timeline_ops"]);
  }
  std::printf("wall: setup_s per round:");
  for (const double s : setup) std::printf(" %.3f", s);
  std::printf("\nwall: sim kops/s per round:");
  for (const double k : kops_wall) std::printf(" %.2f", k);
  std::printf("\n");
  for (const auto& [k, val] : rep.metrics) {
    std::printf("  %-34s %.6g\n", k.c_str(), val);
  }
  std::printf("checks: %s\n", rep.failures.empty() && rep.failed == 0
                                  ? "all passed"
                                  : "FAILED");
  for (const std::string& f : rep.failures) {
    std::printf("  FAIL %s\n", f.c_str());
  }
  if (rep.failed != 0) {
    std::printf("  FAIL %llu of %llu ops failed\n",
                static_cast<unsigned long long>(rep.failed),
                static_cast<unsigned long long>(rep.attempted));
  }
  if (trace) {
    print_json(rep, std::begin(kPerLayer), std::end(kPerLayer));
  } else {
    print_json(rep, std::begin(kEndToEnd), std::end(kEndToEnd));
  }
  std::fflush(stdout);
  return rep.failures.empty() && rep.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--", 0) != 0 || i + 1 >= argc) {
      usage(("bad argument " + a).c_str());
    }
    args[a] = argv[++i];
  }
  for (const auto& [k, v] : args) {
    if (k != "--workload" && k != "--seed" && k != "--seconds" &&
        k != "--trace") {
      usage(("unknown flag " + k).c_str());
    }
  }
  if (args.size() != 4) usage("all four flags are required");
  const Workload* wl = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args["--workload"] == w.name) wl = &w;
  }
  if (wl == nullptr) usage(("unknown workload " + args["--workload"]).c_str());
  const std::uint64_t seed = parse_u64("--seed", args["--seed"]);
  const std::uint64_t seconds = parse_u64("--seconds", args["--seconds"]);
  const std::uint64_t trace = parse_u64("--trace", args["--trace"]);
  if (trace > 1) usage("--trace takes 0 or 1");
  try {
    return run(*wl, seed, static_cast<double>(seconds), trace == 1);
  } catch (const std::exception& e) {
    std::printf("perfbench %s: simulation failed: %s\n", wl->name, e.what());
    return 1;
  }
}
