// Shared machinery of the repo benchmark: the simulated machine's
// calibration, the measured-phase bookkeeping every workload uses, and the
// per-round result the driver aggregates.
//
// Two clocks are in play and every number says which one it uses:
//   * virtual time — the simulated machine's clock (sim::Time, ns). Exact
//     for a given seed: latency percentiles and throughput of the modelled
//     machine.
//   * wall time — std::chrono::steady_clock on the host: how fast the
//     simulator itself runs, and what set-up costs. Wall spans are taken
//     only around set-up calls and the whole measured phase, never around
//     single ops (a blocking call lets other simulated processes run).
//
// Rank bodies run on separate OS threads, but the simulator's baton lets
// exactly one run at a time, so the shared bookkeeping below needs no locks.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/rma_engine.hpp"
#include "runtime/world.hpp"
#include "trace/attribution.hpp"
#include "trace/recorder.hpp"

namespace perfbench {

using m3rma::sim::Time;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b);

/// Cray-XT5-like machine (the paper's testbed): in-order delivery, Portals
/// ACK events, NIC atomics. The same numbers as bench/bench_util.hpp's
/// xt5_config, copied on purpose: the benchmark fixes its own machine, so an
/// edit to the table benches' calibration cannot move its results.
m3rma::runtime::WorldConfig xt5_world(int ranks, std::uint64_t seed);

m3rma::topo::TopoConfig torus(int x, int y, int z);

/// Named per-layer value of one round.
using Named = std::vector<std::pair<std::string, double>>;

/// Everything one round (one World: set-up, measured phase, checks) yields.
struct Round {
  // ----- virtual time (exact for a seed) ------------------------------------
  std::vector<Time> lat;  ///< measured-op latencies, in completion order
  Time phase_ns = 0;      ///< first measured issue .. last completion
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  ///< non-ok ops, lost ops, undelivered items
  std::vector<std::string> check_failures;  ///< failed output checks
  std::uint64_t op_digest = 0;  ///< the generated op sequence
  Named layer;                  ///< per-layer counters and virtual shares

  // ----- wall time ---------------------------------------------------------
  double setup_s = 0;       ///< World construction .. set-up barrier exit
  double phase_wall_s = 0;  ///< set-up barrier exit .. last measured op
  Named layer_wall;         ///< per-layer wall spans (seconds unless named)
};

/// Counters the measured phase is bracketed with. Taken at the instant the
/// phase opens and closes, over every rank's engine.
struct Snapshot {
  std::uint64_t events = 0;
  std::uint64_t switches = 0;
  std::uint64_t msgs = 0;
  std::uint64_t bytes = 0;
  std::uint64_t dropped = 0;
  std::uint64_t data_packets = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t standalone_acks = 0;
  std::uint64_t lock_grants = 0;
  std::uint64_t am_applied = 0;
  std::vector<Time> link_busy;  ///< per physical link (empty: no topology)
};

/// Measured-phase bookkeeping of one round. Construct it right before the
/// World, hand it the World, and call the rank-side hooks from rank bodies.
class Phase {
 public:
  Phase() : round_start_(Clock::now()) {}

  /// Call right after the World constructor returns.
  void world_built(m3rma::runtime::World& w);

  /// Rank side: wrap the collective RmaEngine construction.
  void engine_begin();
  void engine_built(m3rma::core::RmaEngine& eng);

  /// Rank side: the barrier that ends set-up. The first rank out of it
  /// opens the measured phase.
  void setup_barrier(m3rma::runtime::Rank& r);

  /// Rank side: every rank calls this once when its measured work is over;
  /// the last call closes the measured phase.
  void measured_done(m3rma::runtime::Rank& r);

  /// Fill the harness-owned fields of `out`: wall spans, snapshot deltas.
  /// `ops` is the measured op count (per-op ratios use it).
  void finish(Round& out, std::uint64_t ops) const;

  Time virtual_start() const { return v_start_; }
  Time virtual_end() const { return v_end_; }

 private:
  Snapshot snap() const;

  Clock::time_point round_start_;
  Clock::time_point world_built_{};
  m3rma::runtime::World* world_ = nullptr;
  // Rank-owned engines; read only while the measured phase is open, when
  // every rank's engine is still alive.
  std::vector<m3rma::core::RmaEngine*> engines_;
  std::optional<Clock::time_point> engine_first_;
  Clock::time_point engine_last_{};
  int in_barrier_ = 0;
  Clock::time_point barrier_last_enter_{};
  std::optional<Clock::time_point> measure_start_;
  Clock::time_point measure_end_{};
  Time v_start_ = 0;
  Time v_end_ = 0;
  int done_ = 0;
  Snapshot at_start_, at_end_;
};

/// Optional per-op attribution for the traced run: a trace::Recorder with
/// an OpTimeline attached, wired the way the table benches' TraceSession
/// does it. Recording never changes the simulation.
class Tracing {
 public:
  explicit Tracing(bool on) : on_(on) {
    if (on_) rec_.set_op_timeline(&tl_);
  }
  Tracing(const Tracing&) = delete;
  Tracing& operator=(const Tracing&) = delete;

  void attach(m3rma::runtime::World& w) {
    if (on_) w.engine().set_tracer(&rec_);
  }
  /// Segment shares of the engine ops inside the measured phase
  /// [from, to] and the conservation verdict, appended to `out.layer`.
  void finish(Round& out, Time from, Time to) const;

 private:
  bool on_;
  m3rma::trace::Recorder rec_;
  m3rma::trace::OpTimeline tl_;
};

/// Order-sensitive 64-bit digest step (op sequences, latency streams).
std::uint64_t digest(std::uint64_t h, std::uint64_t v);

/// Nearest-rank percentile (pct in (0, 100]) of unsorted samples.
Time percentile(std::vector<Time> v, double pct);

// The three standing workloads. Each builds its own World from `seed`.
Round run_kv_zipf_torus(std::uint64_t seed, bool traced);
Round run_lock_hotspot(std::uint64_t seed, bool traced);
Round run_notify_fanin(std::uint64_t seed, bool traced);

}  // namespace perfbench
