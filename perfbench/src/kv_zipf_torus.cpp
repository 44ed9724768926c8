// kv_zipf_torus: the Table S13 key-value store under skewed traffic.
//
// 8 ranks on a 2x2x2 torus: 4 range-sharded servers, 4 closed-loop clients
// with a window of 8 ops each. 2048 keys with 2 KiB values, Zipf(0.99)
// popularity, a 70/20/10 get/put/rmw mix; puts carry the atomicity
// attribute (comm-thread serializer). An op runs from issue to retire in
// apps::WorkloadGen. Read-mostly, bandwidth-bound traffic whose tail comes
// from topology contention and the serializer on the hot shard; the lock
// manager, the reliable transport and notify stay untouched.
#include <algorithm>
#include <array>

#include "apps/kv_store.hpp"
#include "apps/workload.hpp"
#include "harness.hpp"

namespace perfbench {

using namespace m3rma;

namespace {

constexpr int kRanks = 8;
constexpr int kServers = 4;
constexpr int kClients = kRanks - kServers;
constexpr std::uint64_t kKeySpace = 2048;
constexpr std::uint64_t kSlotsPerShard = 1024;  // load factor 0.5 per shard
constexpr std::uint64_t kValueBytes = 2048;
// 4 x 25,000 = 100,000 measured ops. p99.9 needs 10,000 for 10 samples
// beyond it; ten times that keeps the tail percentiles steady from seed
// to seed.
constexpr std::uint64_t kOpsPerClient = 25000;
constexpr int kWindow = 8;

/// Wall span covering every client's call of one set-up step.
struct Span {
  std::optional<Clock::time_point> first;
  Clock::time_point last{};
  void begin() {
    if (!first) first = Clock::now();
  }
  void end() { last = Clock::now(); }
  double seconds() const { return first ? seconds_between(*first, last) : 0; }
};

}  // namespace

Round run_kv_zipf_torus(std::uint64_t seed, bool traced) {
  Round out;
  Phase phase;
  Tracing tracing(traced);
  auto cfg = xt5_world(kRanks, seed);
  cfg.topo = torus(2, 2, 2);
  runtime::World w(std::move(cfg));
  phase.world_built(w);
  tracing.attach(w);

  std::array<std::vector<apps::WorkloadGen::Completion>, kClients> done;
  std::array<Time, kClients> started{};
  std::array<apps::KvStats, kClients> stats{};
  std::array<std::uint64_t, kServers> occupancy{};
  std::uint64_t ok = 0;
  std::uint64_t counter_sum = 0;
  std::uint64_t counter_reads_failed = 0;
  Span preload, warm;

  w.run([&](runtime::Rank& r) {
    phase.engine_begin();
    core::RmaEngine eng(r, r.comm_world());
    phase.engine_built(eng);
    apps::KvConfig kc;
    kc.servers = kServers;
    kc.slots_per_shard = kSlotsPerShard;
    kc.value_bytes = kValueBytes;
    kc.key_space = kKeySpace;
    kc.sharding = apps::Sharding::range;  // the Zipf head lands on shard 0
    apps::KvStore kv(r, eng, kc);
    apps::WorkloadConfig wc;
    wc.zipf_s = 0.99;
    wc.get_frac = 0.70;
    wc.put_frac = 0.20;
    wc.rmw_frac = 0.10;
    wc.ops = kOpsPerClient;
    wc.window = kWindow;
    wc.seed = seed;
    apps::WorkloadGen gen(r, kv, wc);
    const bool client = !kv.is_server();
    const auto idx = static_cast<std::size_t>(r.id() - kServers);

    if (client) {
      preload.begin();
      gen.preload(idx, kClients);
      preload.end();
    }
    r.comm_world().barrier();
    if (client) {
      warm.begin();
      gen.warm();  // every key's slot location cached: steady state
      warm.end();
    }
    phase.setup_barrier(r);
    if (client) {
      started[idx] = r.ctx().now();
      ok += gen.run();
      done[idx] = gen.completions();
      stats[idx] = kv.stats();
    }
    phase.measured_done(r);
    r.comm_world().barrier();

    // Output checks, outside the measured phase: every key resident, and
    // each key's counter word (read with a fetch_add of 0) summed.
    if (client) {
      for (std::uint64_t key = idx; key < kKeySpace; key += kClients) {
        if (const auto v = kv.incr(key, 0)) {
          counter_sum += *v;
        } else {
          ++counter_reads_failed;
        }
      }
      if (idx == 0) {
        for (int s = 0; s < kServers; ++s) {
          occupancy[static_cast<std::size_t>(s)] = kv.shard_occupancy(s);
        }
      }
    }
    r.comm_world().barrier();
  });

  std::array<std::uint64_t, kServers> shard_ops{};
  std::uint64_t rmw_done = 0;
  Time t0 = *std::min_element(started.begin(), started.end());
  Time t1 = t0;
  for (const auto& client : done) {
    for (const auto& c : client) {
      out.lat.push_back(c.latency);
      t1 = std::max(t1, c.done_at);
      shard_ops[c.shard] += 1;
      if (c.kind == apps::OpKind::rmw) ++rmw_done;
      out.op_digest = digest(out.op_digest,
                             static_cast<std::uint64_t>(c.kind) * 64 + c.shard);
    }
  }
  const std::uint64_t ops = out.lat.size();
  out.phase_ns = t1 - t0;
  out.attempted = kClients * kOpsPerClient;
  out.failed = out.attempted - ok;

  apps::KvStats sum{};
  for (const auto& s : stats) {
    sum.gets += s.gets;
    sum.puts += s.puts;
    sum.incrs += s.incrs;
    sum.inserts += s.inserts;
    sum.hits += s.hits;
    sum.probes += s.probes;
    sum.cas_conflicts += s.cas_conflicts;
    sum.cache_hits += s.cache_hits;
  }
  std::uint64_t resident = 0;
  for (const std::uint64_t o : occupancy) resident += o;
  if (ops != out.attempted) {
    out.check_failures.push_back("measured completions != ops issued");
  }
  if (resident != kKeySpace) {
    out.check_failures.push_back("not every key is resident (" +
                                 std::to_string(resident) + "/2048)");
  }
  if (sum.hits != sum.gets) {
    out.check_failures.push_back("gets that missed: " +
                                 std::to_string(sum.gets - sum.hits));
  }
  if (counter_reads_failed != 0 || counter_sum != rmw_done) {
    out.check_failures.push_back(
        "fetch_add counters sum to " + std::to_string(counter_sum) +
        ", rmw ops issued " + std::to_string(rmw_done));
  }

  phase.finish(out, ops);
  tracing.finish(out, phase.virtual_start(), phase.virtual_end());
  const auto ratio = [](std::uint64_t a, std::uint64_t b) {
    return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
  };
  out.layer.insert(
      out.layer.end(),
      {
          {"apps.cache_hit_ratio",
           ratio(sum.cache_hits, sum.gets + sum.puts + sum.incrs)},
          {"apps.hot_shard_share",
           ratio(*std::max_element(shard_ops.begin(), shard_ops.end()), ops)},
          {"apps.probes_per_insert", ratio(sum.probes, sum.inserts)},
          {"apps.cas_conflicts", static_cast<double>(sum.cas_conflicts)},
      });
  out.layer_wall.insert(out.layer_wall.end(),
                        {{"apps.preload_s", preload.seconds()},
                         {"apps.warm_s", warm.seconds()}});
  return out;
}

}  // namespace perfbench
