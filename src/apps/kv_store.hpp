// apps::KvStore — an RMA-native sharded key-value store built purely on the
// strawman API (core::RmaEngine): the macro-workload layer ROADMAP item 2
// calls for, and the reproduction's answer to the distributed hashtables
// Gerstenberger et al. use as the flagship MPI-3 RMA application.
//
// Layout: the first `servers` ranks of the communicator each expose one
// shard — a fixed-capacity open-addressing bucket table in a
// core::TargetMem window. A shard window is
//
//   [ meta (64 B: occupancy word, fetch_add'd on insert) ]
//   [ slot 0 ][ slot 1 ] ... [ slot slots_per_shard-1 ]
//
// where a slot is [ tag (8 B) | counter (8 B) | value (value_bytes) ]. A
// tag of 0 means empty; a claimed slot holds key+1 and its tag never
// changes again (no deletes), which is what makes one-sided reads safe.
//
// Data path (all one-sided; servers never receive two-sided traffic and
// stay event-driven per the simtime invariants):
//   * insert  — claim the home slot with compare_swap(tag, 0 -> key+1);
//               a loser whose tag belongs to another key linear-probes on.
//               The claimer fetch_adds the shard occupancy word and writes
//               the value. Engine-native CAS is the "atomics-based locking".
//   * update  — one put of the value region (atomicity attribute by
//               default, so concurrent writers serialize at the target).
//   * lookup  — one get of the whole slot; the origin verifies the tag.
//   * counter — fetch_add on the slot's counter word (NIC-executed RMW).
//
// Clients cache key -> slot after the first probe walk, so the steady-state
// data path is a single one-sided op per access; start_get/start_put/
// start_incr issue that fast path nonblocking for closed-loop drivers with
// an outstanding-op budget (apps::WorkloadGen). Each op kind has one issue
// path: a blocking op finds (or claims) the slot, then issues and retires
// exactly what start_* + finish() would. A cold get's walk reads whole
// slots, so its hit already carries the value; locate() — a cold incr's
// walk, and the one WorkloadGen::warm() runs to fill the cache — reads only
// the 8 B tags.
//
// Construction is collective over the engine's communicator. With
// runtime::ReplicationConfig enabled the shard windows replicate like any
// other window: a server crash fails over to the backup transparently
// underneath this layer (tests/kvstore_test.cpp exercises exactly that).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/rma_engine.hpp"

namespace m3rma::apps {

/// The three KV data-path op kinds.
enum class OpKind : std::uint8_t { get, put, rmw };

/// How keys map to server shards.
enum class Sharding : std::uint8_t {
  hash,   ///< shard = mix64(key) % servers: spreads any key distribution
  range,  ///< shard = key / ceil(key_space/servers): contiguous key ranges,
          ///< the BigTable-style layout where skewed traffic makes one
          ///< shard hot (what bench/tab_kvstore measures)
};

struct KvConfig {
  /// Comm ranks [0, servers) host one shard each; the rest are clients.
  int servers = 2;
  std::uint64_t slots_per_shard = 1024;
  std::uint64_t value_bytes = 64;
  /// Key domain [0, key_space); range sharding partitions it. Keys outside
  /// are rejected.
  std::uint64_t key_space = 1024;
  Sharding sharding = Sharding::hash;
};

enum class KvOutcome : std::uint8_t {
  inserted,  ///< put claimed a fresh slot
  updated,   ///< put overwrote an existing slot's value
  hit,       ///< get found the key
  miss,      ///< get/incr probing ended at an empty slot
  overflow,  ///< insert exhausted kMaxProbes (shard full around the home)
  failed,    ///< the op completed with a non-ok engine status
  lost,      ///< the op failed with replica_lost: the shard window lost
             ///< every copy, so no retry can ever succeed (chaos harness
             ///< invariants count these separately from transient failures)
};

/// Client-side tallies, local to one rank (the simulator is sequential, so
/// summing them across captured rank bodies is race-free).
struct KvStats {
  std::uint64_t gets = 0;
  std::uint64_t puts = 0;
  std::uint64_t incrs = 0;
  std::uint64_t inserts = 0;
  std::uint64_t updates = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t overflows = 0;
  std::uint64_t failed = 0;   ///< every non-ok completion (includes lost)
  std::uint64_t lost = 0;     ///< the replica_lost subset of failed
  std::uint64_t probes = 0;         ///< slot reads/CAS tries past the first
  std::uint64_t cas_conflicts = 0;  ///< CAS lost to a different key's claim
  std::uint64_t cache_hits = 0;     ///< ops served from the location cache
};

class KvStore {
 public:
  static constexpr std::uint64_t kMetaBytes = 64;
  /// Byte offset of the shard occupancy word inside the meta region.
  static constexpr std::uint64_t kOccupancyOff = 0;
  /// Linear-probe budget before an insert reports overflow.
  static constexpr int kMaxProbes = 64;

  /// Collective over the engine's communicator: server ranks allocate and
  /// attach their shard window, everyone receives every handle.
  KvStore(runtime::Rank& rank, core::RmaEngine& eng, KvConfig cfg);

  const KvConfig& config() const { return cfg_; }
  bool is_server() const { return eng_->comm().rank() < cfg_.servers; }
  int shard_of(std::uint64_t key) const;
  std::uint64_t slot_stride() const { return 16 + cfg_.value_bytes; }

  // ----- blocking operations ----------------------------------------------

  /// Insert or update. The value must be exactly value_bytes long.
  KvOutcome put(std::uint64_t key, std::span<const std::byte> value);
  /// Lookup; on hit copies min(out.size, value_bytes) value bytes out.
  KvOutcome get(std::uint64_t key, std::span<std::byte> out = {});
  /// fetch_add `delta` on the key's counter word, inserting the key (zero
  /// value) if absent. Returns the counter's previous value, or nullopt on
  /// overflow. Throws RankFailedError when the shard cannot serve it (the
  /// failure is already counted in stats().failed); a key that could not
  /// be located is never claimed.
  std::optional<std::uint64_t> incr(std::uint64_t key, std::uint64_t delta);

  // ----- nonblocking cached fast path --------------------------------------

  /// In-flight one-sided KV op. Obtain from start_get/start_put/
  /// start_incr, retire with finish(); movable, one finish() per op.
  struct AsyncOp {
    core::Request req;
    std::uint64_t key = 0;
    std::uint32_t slot = 0;
    std::uint64_t scratch = 0;  ///< pool buffer backing a get or put
    OpKind kind = OpKind::get;
    KvOutcome ok = KvOutcome::hit;  ///< finish()'s outcome on success
    bool valid = false;
  };

  bool location_cached(std::uint64_t key) const { return cache_.contains(key); }
  /// Cache the key's slot location: hit at once, with no traffic, when it
  /// is cached; otherwise a probe walk reading only each slot's 8 B tag:
  /// hit (cached now), miss (absent; nothing cached or claimed), or the
  /// drained failure (failed/lost, counted). Counts probes, but no get,
  /// hit or cache hit: it is no data-path op.
  KvOutcome locate(std::uint64_t key);
  /// Nonblocking one-sided read of the key's (cached) slot.
  AsyncOp start_get(std::uint64_t key);
  /// Nonblocking value update of the key's (cached) slot.
  AsyncOp start_put(std::uint64_t key, std::span<const std::byte> value);
  /// Nonblocking fetch_add `delta` on the key's (cached) counter word
  /// (RmaEngine::start_rmw).
  AsyncOp start_incr(std::uint64_t key, std::uint64_t delta);
  /// Wait for the op; gets verify the slot tag and optionally copy the
  /// value out. On success, returns and counts the outcome the op was
  /// issued with: hit (get), updated (put, incr; an incr's previous counter
  /// value is op.req.rmw_value()), or inserted (a blocking put or incr that
  /// claimed the slot). Returns failed on a non-ok engine status, or lost
  /// when the shard window is unrecoverable, so a crash mid-flight never
  /// trips the tag check on a failure-drained read.
  KvOutcome finish(AsyncOp& op, std::span<std::byte> out = {});
  /// RmaEngine::wait_any over the ops' requests: block until one of `ops`
  /// is done (failed counts) and return the lowest such index; finish() it
  /// next. `ops` must not be empty.
  std::size_t wait_any(std::span<const AsyncOp> ops);

  // ----- introspection ------------------------------------------------------

  /// One-sided read of a shard's occupancy word (claimed slots).
  std::uint64_t shard_occupancy(int shard);
  const KvStats& stats() const { return stats_; }
  std::uint64_t cached_locations() const { return cache_.size(); }

 private:
  std::uint64_t slot_off(std::uint32_t slot) const {
    return kMetaBytes + static_cast<std::uint64_t>(slot) * slot_stride();
  }
  std::uint64_t home_slot(std::uint64_t key) const;
  /// The p-th slot of the linear probe chain starting at `home`.
  std::uint32_t probe_slot(std::uint64_t home, int p) const {
    return static_cast<std::uint32_t>(
        (home + static_cast<std::uint64_t>(p)) % cfg_.slots_per_shard);
  }
  std::uint64_t tag_of(std::uint64_t key) const { return key + 1; }
  std::uint64_t read_scratch_u64(std::uint64_t addr, int shard) const;
  /// Copy min(out.size, value_bytes) value bytes of the slot read into
  /// `scratch` out.
  void copy_value(std::uint64_t scratch, std::span<std::byte> out) const;
  /// The key's cached slot into `*slot`, counting a cache hit; false when
  /// the location is not cached.
  bool cached_slot(std::uint64_t key, std::uint32_t* slot);
  /// Walk the key's probe chain with one-sided reads of the first `len`
  /// bytes of each slot into `scratch`; caches on success. hit (`*slot`
  /// set, `scratch` holds the slot's read bytes), miss (empty slot or probe
  /// budget exhausted), or the drained failure (failed/lost, counted).
  KvOutcome probe(std::uint64_t key, std::uint64_t scratch, std::uint64_t len,
                  std::uint32_t* slot);
  /// CAS-claim a slot for the key (insert protocol): inserted (this call
  /// claimed `*slot`), updated (the key already held `*slot`), overflow
  /// (counted), or the drained failure (failed/lost, counted).
  KvOutcome claim(std::uint64_t key, std::uint32_t* slot);
  /// Issue an op at a known slot; `ok` is what finish() returns and counts
  /// if it succeeds.
  AsyncOp start_get_at(std::uint64_t key, std::uint32_t slot);
  AsyncOp start_put_at(std::uint64_t key, std::uint32_t slot,
                       std::span<const std::byte> value, KvOutcome ok);
  AsyncOp start_incr_at(std::uint64_t key, std::uint32_t slot,
                        std::uint64_t delta, KvOutcome ok);
  /// Account a non-ok completion and map its status to failed/lost — the
  /// one drain path shared by the probe walk, claim() and finish().
  KvOutcome drain_failure(const core::Request& req);
  static bool is_failure(KvOutcome o) {
    return o == KvOutcome::failed || o == KvOutcome::lost;
  }
  std::uint64_t scratch_acquire();
  void scratch_release(std::uint64_t addr);

  runtime::Rank* rank_;
  core::RmaEngine* eng_;
  KvConfig cfg_;
  std::vector<core::TargetMem> shards_;  // indexed by comm rank, servers only
  runtime::Rank::Buffer shard_buf_;      // server side; empty on clients
  std::unordered_map<std::uint64_t, std::uint32_t> cache_;  // key -> slot
  std::vector<std::uint64_t> scratch_free_;  // slot-sized pool buffers
  std::vector<core::Request> wait_reqs_;     // wait_any's request list
  KvStats stats_;
};

}  // namespace m3rma::apps
