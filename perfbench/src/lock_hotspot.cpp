// lock_hotspot_64: a lock-bound write hot-spot at 8x the other workloads'
// rank count.
//
// 64 ranks on a 4x4x4 torus, coarse_lock serializer. Every rank issues
// blocking atomicity accumulate(sum, 8 x int64) ops, one at a time, each to
// one of 4 hot targets drawn from the seed (a rank never targets itself), so
// every op queues on a contended lock. An op lasts from the call to its
// return. At this size the simulator's own costs dominate the wall clock:
// World construction (one 16 MiB memsim arena per node) and one OS thread
// per process.
#include <algorithm>
#include <cstring>
#include <iterator>

#include "common/rng.hpp"
#include "harness.hpp"

namespace perfbench {

using namespace m3rma;

namespace {

constexpr int kRanks = 64;
// 64 x 1600 = 102,400 measured ops. p99.9 needs 10,000 for 10 samples
// beyond it; ten times that keeps the tail percentiles steady from seed
// to seed.
constexpr int kOpsPerRank = 1600;
constexpr std::uint64_t kElems = 8;
constexpr std::int64_t kOperand = 3;
// The hot spot: every op goes to one of 4 targets, one per torus z-plane.
constexpr int kHot[] = {0, 16, 32, 48};

}  // namespace

Round run_lock_hotspot(std::uint64_t seed, bool traced) {
  Round out;
  // The op sequence is generated up front from the seed; rank bodies only
  // replay it.
  std::vector<std::vector<int>> targets(kRanks);
  for (int r = 0; r < kRanks; ++r) {
    SplitMix64 rng(mix64(seed ^ (0x10C4ull + static_cast<std::uint64_t>(r))));
    auto& mine = targets[static_cast<std::size_t>(r)];
    while (static_cast<int>(mine.size()) < kOpsPerRank) {
      const int t = kHot[rng.next_below(std::size(kHot))];
      if (t == r) continue;
      mine.push_back(t);
      out.op_digest = digest(out.op_digest,
                             static_cast<std::uint64_t>(r * kRanks + t));
    }
  }

  Phase phase;
  Tracing tracing(traced);
  auto cfg = xt5_world(kRanks, seed);
  cfg.topo = torus(4, 4, 4);
  runtime::World w(std::move(cfg));
  phase.world_built(w);
  tracing.attach(w);

  std::vector<std::uint64_t> received(kRanks, 0);
  Time t0 = ~Time{0};
  Time t1 = 0;
  std::uint64_t bad_windows = 0;

  w.run([&](runtime::Rank& r) {
    core::EngineConfig ec;
    ec.serializer = core::SerializerKind::coarse_lock;
    phase.engine_begin();
    core::RmaEngine eng(r, r.comm_world(), ec);
    phase.engine_built(eng);
    auto win = r.alloc_array<std::int64_t>(kElems);
    std::memset(win.data, 0, win.size);
    auto mems = eng.exchange_all(eng.attach(win));
    auto src = r.alloc_array<std::int64_t>(kElems);
    for (std::uint64_t i = 0; i < kElems; ++i) {
      std::memcpy(src.data + i * 8, &kOperand, 8);
    }
    const auto i64 = dt::Datatype::int64();
    const core::Attrs attrs =
        core::Attrs(core::RmaAttr::atomicity) | core::RmaAttr::blocking;

    phase.setup_barrier(r);
    for (const int t : targets[static_cast<std::size_t>(r.id())]) {
      const Time issued = r.ctx().now();
      core::Request req =
          eng.accumulate(portals::AccOp::sum, src.addr, kElems, i64,
                         mems[static_cast<std::size_t>(t)], 0, kElems, i64, t,
                         attrs);
      req.wait();
      const Time now = r.ctx().now();
      out.lat.push_back(now - issued);
      t0 = std::min(t0, issued);
      t1 = std::max(t1, now);
      if (req.failed()) {
        ++out.failed;
      } else {
        ++received[static_cast<std::size_t>(t)];
      }
    }
    phase.measured_done(r);
    eng.complete_collective();

    // Output check: this target's sum is (accumulates it received) x operand.
    const auto want = static_cast<std::int64_t>(
                          received[static_cast<std::size_t>(r.id())]) *
                      kOperand;
    for (std::uint64_t i = 0; i < kElems; ++i) {
      std::int64_t v = 0;
      std::memcpy(&v, win.data + i * 8, 8);
      if (v != want) {
        ++bad_windows;
        break;
      }
    }
    r.comm_world().barrier();
  });

  out.attempted = static_cast<std::uint64_t>(kRanks) * kOpsPerRank;
  out.phase_ns = t1 - t0;
  if (out.lat.size() != out.attempted) {
    out.check_failures.push_back("measured completions != ops issued");
  }
  if (bad_windows != 0) {
    out.check_failures.push_back(std::to_string(bad_windows) +
                                 " targets hold a wrong accumulated sum");
  }
  phase.finish(out, out.lat.size());
  tracing.finish(out, phase.virtual_start(), phase.virtual_end());
  return out;
}

}  // namespace perfbench
