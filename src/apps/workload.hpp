// apps::WorkloadGen — deterministic closed-loop client driver for
// apps::KvStore.
//
// Each client rank owns one generator seeded from (seed, client index): keys
// come from a ZipfSampler over the store's key space (s = 0 is uniform), op
// kinds from a MixSampler over the get/put/rmw fractions. The driver keeps
// at most `window` nonblocking ops in flight (closed loop with an
// outstanding-op budget), issued via KvStore::start_get/start_put/
// start_incr. An RMW is a request-based fetch_add (RmaEngine::start_rmw,
// NIC-executed on NICs with atomics; paper §III-C, MPI-3's
// MPI_Fetch_and_op), so it shares the window with gets and puts. Only an
// op on a key whose slot location is not cached yet runs blocking.
//
// Ops retire in completion order. Before each op is issued, run()
// tests every op in flight (Request::test, which polls progress, as
// MPI_Test does) and retires the done ones; when the window is full it
// blocks in KvStore::wait_any (MPI_Waitany) until one is done, then retires
// every done op. A blocking cold-key op holds retirement until it returns.
// A retired op is stamped with the current virtual time, so its latency
// runs from its issue to the first point the client sees it done; ops seen
// done together are recorded in issue order.
// Each completion, with its latency, goes into a local log, completions():
// the one source of the workload's tail latencies and per-shard counts
// (bench/tab_kvstore's table and --csv timeline).
//
// Everything downstream of the seed is deterministic: two runs of the same
// configuration produce identical op sequences, identical virtual-time
// trajectories, and byte-identical tables.
#pragma once

#include <cstdint>
#include <vector>

#include "apps/kv_store.hpp"
#include "common/rng.hpp"

namespace m3rma::apps {

struct WorkloadConfig {
  /// Zipf exponent for key popularity; 0 = uniform over the key space.
  double zipf_s = 0.0;
  /// Op mix; normalized, so any positive scale works.
  double get_frac = 0.80;
  double put_frac = 0.15;
  double rmw_frac = 0.05;
  /// Measured ops this client issues in run().
  std::uint64_t ops = 1000;
  /// Outstanding-op budget of the closed loop.
  int window = 8;
  std::uint64_t seed = 1;
};

class WorkloadGen {
 public:
  /// One completed op: when it retired (virtual time), what it was, where
  /// it went, and how long it took end-to-end.
  struct Completion {
    trace::Time done_at = 0;
    trace::Time latency = 0;
    OpKind kind = OpKind::get;
    std::uint16_t shard = 0;
    /// hit/inserted/updated on success; an RMW reports updated, or
    /// overflow when its key found no slot.
    KvOutcome outcome = KvOutcome::hit;
  };

  WorkloadGen(runtime::Rank& rank, KvStore& kv, WorkloadConfig cfg);

  /// Blocking-insert this client's share of the key space: keys with
  /// key % num_clients == client_index, round-robin, deterministic values.
  /// Returns the number of keys inserted.
  std::uint64_t preload(std::uint64_t client_index,
                        std::uint64_t num_clients);
  /// KvStore::locate every key, so the location cache covers the whole key
  /// space and run() measures the steady-state one-op data path. Keys this
  /// client already cached send nothing; the rest read 8 B tags, no values.
  void warm();
  /// The measured closed loop: cfg.ops issued, window-limited, each retired
  /// once into completions(). Returns the number of ops that completed with
  /// a success outcome. An op on a dead unreplicated shard retires failed,
  /// a blocking one (an op on a cold key) included, so run() outlives the
  /// shard.
  std::uint64_t run();

  const std::vector<Completion>& completions() const { return done_; }
  const WorkloadConfig& config() const { return cfg_; }

 private:
  /// When and what an op was, recorded at its issue.
  struct Issued {
    trace::Time issued_at = 0;
    OpKind kind = OpKind::get;
    std::uint16_t shard = 0;
  };

  /// Append `f`'s completion with `o`, stamped now.
  void record(const Issued& f, KvOutcome o);
  std::byte value_byte(std::uint64_t key) const;

  runtime::Rank* rank_;
  KvStore* kv_;
  WorkloadConfig cfg_;
  ZipfSampler keys_;
  MixSampler mix_;
  std::vector<std::byte> valbuf_;
  std::vector<Completion> done_;
  std::uint64_t ok_ = 0;
};

}  // namespace m3rma::apps
