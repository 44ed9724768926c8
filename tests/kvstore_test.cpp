// apps::KvStore / apps::WorkloadGen — the macro-workload layer (DESIGN.md
// §9) built purely on the strawman API.
//
// Invariants under test:
//  * CAS-claimed inserts: concurrent clients inserting the same keys agree
//    on exactly one claimer per key, the occupancy word counts claimed
//    slots exactly, and every value is readable afterwards;
//  * shard routing is a pure function of (key, config) — hash spreads,
//    range partitions contiguously;
//  * Zipfian traffic hammers the hot shard under range sharding, and
//    counter totals reconcile exactly with the RMWs issued;
//  * the whole workload replays byte-identically under the seed discipline;
//  * the closed loop retires ops in completion order: an op to an idle
//    shard retires before older ops queued at a hot one;
//  * a server crash mid-insert-storm on a replicated window fails over
//    transparently: no lost values, no failed ops;
//  * an unreplicated server's death fails exactly its shard's ops, each
//    counted failed once, and the closed loop still retires every issued
//    op once;
//  * RMWs share the closed loop's window with gets and puts;
//  * locate() and warm() fill the location cache from 8 B tag reads
//    alone, and count no get or hit.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <map>
#include <vector>

#include "apps/kv_store.hpp"
#include "apps/workload.hpp"
#include "runtime/chaos.hpp"
#include "runtime/comm.hpp"
#include "runtime/world.hpp"
#include "trace/recorder.hpp"

namespace m3rma {
namespace {

using apps::KvConfig;
using apps::KvOutcome;
using apps::KvStore;
using apps::Sharding;
using apps::WorkloadConfig;
using apps::WorkloadGen;
using runtime::Rank;
using runtime::World;
using runtime::WorldConfig;

WorldConfig world_cfg(int ranks, std::uint64_t seed) {
  WorldConfig cfg;
  cfg.ranks = ranks;
  cfg.seed = seed;
  return cfg;
}

std::vector<std::byte> val_of(std::uint64_t key, std::uint64_t bytes) {
  return std::vector<std::byte>(bytes,
                                static_cast<std::byte>(mix64(key) & 0xFF));
}

// ------------------------------------------------------------ shard routing

TEST(KvStore, RangeShardingPartitionsKeySpaceContiguously) {
  World w(world_cfg(4, 3));
  std::array<int, 4> probes{-1, -1, -1, -1};
  w.run([&](Rank& r) {
    core::RmaEngine eng(r, r.comm_world());
    KvConfig kc;
    kc.servers = 2;
    kc.key_space = 100;
    kc.sharding = Sharding::range;
    KvStore kv(r, eng, kc);
    if (r.id() == 3) {
      probes = {kv.shard_of(0), kv.shard_of(49), kv.shard_of(50),
                kv.shard_of(99)};
      EXPECT_THROW(kv.shard_of(100), UsageError);
    }
  });
  EXPECT_EQ(probes[0], 0);
  EXPECT_EQ(probes[1], 0);
  EXPECT_EQ(probes[2], 1);
  EXPECT_EQ(probes[3], 1);
}

TEST(KvStore, HashShardingSpreadsAndAgreesAcrossRanks) {
  World w(world_cfg(4, 3));
  std::array<std::vector<int>, 4> maps;
  w.run([&](Rank& r) {
    core::RmaEngine eng(r, r.comm_world());
    KvConfig kc;
    kc.servers = 3;
    kc.key_space = 64;
    kc.sharding = Sharding::hash;
    KvStore kv(r, eng, kc);
    for (std::uint64_t k = 0; k < 64; ++k) {
      maps[static_cast<std::size_t>(r.id())].push_back(kv.shard_of(k));
    }
  });
  std::array<int, 3> hit{};
  for (int s : maps[0]) {
    ASSERT_GE(s, 0);
    ASSERT_LT(s, 3);
    hit[static_cast<std::size_t>(s)] += 1;
  }
  for (int h : hit) EXPECT_GT(h, 0) << "hash sharding left a shard empty";
  for (int rank = 1; rank < 4; ++rank) {
    EXPECT_EQ(maps[static_cast<std::size_t>(rank)], maps[0])
        << "shard routing must be a pure function of (key, config)";
  }
}

// ---------------------------------------------------------------- data path

TEST(KvStore, PutGetIncrRoundTrip) {
  World w(world_cfg(4, 7));
  std::uint64_t occupancy = 0;
  apps::KvStats client_stats;
  w.run([&](Rank& r) {
    core::RmaEngine eng(r, r.comm_world());
    KvConfig kc;
    kc.servers = 2;
    kc.key_space = 32;
    kc.value_bytes = 24;
    KvStore kv(r, eng, kc);
    if (r.id() == 2) {
      for (std::uint64_t k = 0; k < 16; ++k) {
        EXPECT_EQ(kv.put(k, val_of(k, 24)), KvOutcome::inserted);
      }
      // Overwrite, then read back the new value.
      EXPECT_EQ(kv.put(3, val_of(103, 24)), KvOutcome::updated);
      std::vector<std::byte> out(24);
      for (std::uint64_t k = 0; k < 16; ++k) {
        ASSERT_EQ(kv.get(k, out), KvOutcome::hit);
        EXPECT_EQ(out, val_of(k == 3 ? 103 : k, 24)) << "key " << k;
      }
      EXPECT_EQ(kv.get(31), KvOutcome::miss);
      // Counters: previous value comes back, inserts-on-absent work.
      EXPECT_EQ(kv.incr(0, 5).value(), 0u);
      EXPECT_EQ(kv.incr(0, 2).value(), 5u);
      EXPECT_EQ(kv.incr(20, 1).value(), 0u);  // absent key -> zero insert
      EXPECT_EQ(kv.get(20), KvOutcome::hit);
      occupancy = kv.shard_occupancy(0) + kv.shard_occupancy(1);
      client_stats = kv.stats();
    }
  });
  EXPECT_EQ(occupancy, 17u);  // 16 preloaded + key 20 via incr
  EXPECT_EQ(client_stats.inserts, 17u);
  EXPECT_EQ(client_stats.updates, 1u);
  EXPECT_EQ(client_stats.misses, 1u);
  EXPECT_EQ(client_stats.failed, 0u);
}

TEST(KvStore, SecondClientIncrFindsKeyInsertedByAnother) {
  // Rank 2 inserts key 5 through incr; rank 3 has never touched it, so its
  // location cache misses and incr must find the slot by probing the shard
  // (locate's hit), not claim a second one.
  World w(world_cfg(4, 7));
  std::uint64_t occupancy = 0;
  std::array<apps::KvStats, 4> stats{};
  std::array<std::uint64_t, 2> seen{};
  core::OpStats before, after;
  w.run([&](Rank& r) {
    core::RmaEngine eng(r, r.comm_world());
    KvConfig kc;
    kc.servers = 2;
    kc.key_space = 32;
    KvStore kv(r, eng, kc);
    if (r.id() == 2) {
      EXPECT_EQ(kv.incr(5, 7).value(), 0u);
    }
    r.comm_world().barrier();
    if (r.id() == 3) {
      before = eng.stats();
      seen[0] = kv.incr(5, 3).value();  // not cached here: locate
      seen[1] = kv.incr(5, 0).value();  // now cached
      after = eng.stats();
      occupancy = kv.shard_occupancy(0) + kv.shard_occupancy(1);
    }
    stats[static_cast<std::size_t>(r.id())] = kv.stats();
  });
  EXPECT_EQ(seen[0], 7u);
  EXPECT_EQ(seen[1], 10u);
  EXPECT_EQ(occupancy, 1u);
  EXPECT_EQ(stats[2].inserts, 1u);
  EXPECT_EQ(stats[3].inserts, 0u);
  EXPECT_EQ(stats[3].incrs, 2u);
  EXPECT_EQ(stats[3].cache_hits, 1u);
  EXPECT_EQ(stats[3].cas_conflicts, 0u);
  // Found by reading the slot's tag (one get), not by a claim CAS: the
  // only RMWs are the two fetch_adds.
  EXPECT_EQ(after.gets - before.gets, 1u);
  EXPECT_EQ(after.rmws - before.rmws, 2u);
}

// KvStats is a flat struct of counters: compare and subtract it as one.
using KvCounters = std::array<std::uint64_t, sizeof(apps::KvStats) / 8>;
KvCounters counters(const apps::KvStats& s) {
  static_assert(sizeof(apps::KvStats) % 8 == 0);
  return std::bit_cast<KvCounters>(s);
}
KvCounters minus(const apps::KvStats& after, const apps::KvStats& before) {
  KvCounters d = counters(after);
  const KvCounters b = counters(before);
  for (std::size_t i = 0; i < d.size(); ++i) d[i] -= b[i];
  return d;
}

TEST(KvStore, BlockingOpsOnACachedKeyIssueWhatStartAndFinishIssue) {
  // A put, a get and an incr on a cached key, once blocking and once as
  // start_* + finish(): the store counts the same, the engine issues the
  // same and the wire carries the same bytes.
  World w(world_cfg(2, 7));
  std::array<KvCounters, 2> kv_delta{};
  std::array<std::array<std::uint64_t, 4>, 2> eng_delta{};
  apps::KvStats blocking;
  w.run([&](Rank& r) {
    core::RmaEngine eng(r, r.comm_world());
    KvConfig kc;
    kc.servers = 1;
    kc.key_space = 8;
    kc.value_bytes = 24;
    KvStore kv(r, eng, kc);
    if (r.id() != 1) return;
    ASSERT_EQ(kv.put(1, val_of(1, 24)), KvOutcome::inserted);
    ASSERT_EQ(kv.put(2, val_of(2, 24)), KvOutcome::inserted);
    std::vector<std::byte> out(24);
    for (int way = 0; way < 2; ++way) {
      const apps::KvStats s0 = kv.stats();
      const core::OpStats e0 = eng.stats();
      const std::uint64_t b0 = r.world().fabric().total_bytes();
      if (way == 0) {
        EXPECT_EQ(kv.put(1, val_of(11, 24)), KvOutcome::updated);
        EXPECT_EQ(kv.get(1, out), KvOutcome::hit);
        EXPECT_EQ(out, val_of(11, 24));
        EXPECT_EQ(kv.incr(1, 3).value(), 0u);
        blocking = kv.stats();
      } else {
        KvStore::AsyncOp op = kv.start_put(2, val_of(12, 24));
        EXPECT_EQ(kv.finish(op), KvOutcome::updated);
        op = kv.start_get(2);
        EXPECT_EQ(kv.finish(op, out), KvOutcome::hit);
        EXPECT_EQ(out, val_of(12, 24));
        op = kv.start_incr(2, 3);
        EXPECT_EQ(kv.finish(op), KvOutcome::updated);
        EXPECT_EQ(op.req.rmw_value(), 0u);
      }
      const core::OpStats e1 = eng.stats();
      kv_delta[static_cast<std::size_t>(way)] = minus(kv.stats(), s0);
      eng_delta[static_cast<std::size_t>(way)] = {
          e1.puts - e0.puts, e1.gets - e0.gets, e1.rmws - e0.rmws,
          r.world().fabric().total_bytes() - b0};
    }
  });
  EXPECT_EQ(kv_delta[0], kv_delta[1]);
  EXPECT_EQ(eng_delta[0], eng_delta[1]);
  // One op each, all served from the location cache; an incr of a present
  // key is no value update.
  apps::KvStats one;
  one.gets = one.puts = one.incrs = 1;
  one.hits = one.updates = 1;
  one.cache_hits = 3;
  EXPECT_EQ(kv_delta[0], counters(one));
  EXPECT_EQ(eng_delta[0][0], 1u);
  EXPECT_EQ(eng_delta[0][1], 1u);
  EXPECT_EQ(eng_delta[0][2], 1u);
  EXPECT_EQ(blocking.inserts, 2u);
}

TEST(KvStore, ColdGetReadsWholeSlotsAndColdIncrReadsTags) {
  // One 16-slot shard. Rank 1 inserts 12 keys and picks the one its claim
  // placed farthest from its home slot (probe distance d). Rank 2 has
  // nothing cached: its get walks d+1 slots, each read whole; rank 3's
  // incr walks the same d+1 slots reading only their 8 B tags. The other
  // ranks sleep meanwhile, so the fabric's byte count is theirs alone.
  World w(world_cfg(4, 5));
  std::uint64_t key = 0;
  std::uint64_t d = 0;
  bool checked_get = false;
  bool checked_incr = false;
  w.run([&](Rank& r) {
    core::RmaEngine eng(r, r.comm_world());
    KvConfig kc;
    kc.servers = 1;
    kc.slots_per_shard = 16;
    kc.key_space = 32;
    kc.value_bytes = 40;
    KvStore kv(r, eng, kc);
    const fabric::Fabric& fab = r.world().fabric();
    if (r.id() == 1) {
      for (std::uint64_t k = 0; k < 12; ++k) {
        const std::uint64_t p0 = kv.stats().probes;
        ASSERT_EQ(kv.put(k, val_of(k, 40)), KvOutcome::inserted);
        if (kv.stats().probes - p0 > d) {
          d = kv.stats().probes - p0;
          key = k;
        }
      }
    }
    r.comm_world().barrier();
    // Let the barrier's messages land, then measure one rank at a time.
    r.ctx().delay(r.id() == 2 ? 100'000 : r.id() == 3 ? 300'000 : 500'000);
    if (r.id() == 2) {
      // One get of a whole slot, and one of an 8 B tag, for reference.
      std::uint64_t b0 = fab.total_bytes();
      kv.shard_occupancy(0);
      const std::uint64_t tag_read = fab.total_bytes() - b0;
      const core::OpStats e0 = eng.stats();
      b0 = fab.total_bytes();
      std::vector<std::byte> out(40);
      ASSERT_EQ(kv.get(key, out), KvOutcome::hit);
      EXPECT_EQ(out, val_of(key, 40));
      const std::uint64_t cold = fab.total_bytes() - b0;
      EXPECT_EQ(eng.stats().gets - e0.gets, d + 1);
      b0 = fab.total_bytes();
      ASSERT_EQ(kv.get(key), KvOutcome::hit);  // cached: one slot read
      const std::uint64_t slot_read = fab.total_bytes() - b0;
      EXPECT_EQ(slot_read - tag_read, kv.slot_stride() - 8);
      EXPECT_EQ(cold, (d + 1) * slot_read);
      checked_get = true;
    }
    if (r.id() == 3) {
      std::uint64_t b0 = fab.total_bytes();
      kv.shard_occupancy(0);
      const std::uint64_t tag_read = fab.total_bytes() - b0;
      const core::OpStats e0 = eng.stats();
      b0 = fab.total_bytes();
      EXPECT_EQ(kv.incr(key, 1).value(), 0u);
      const std::uint64_t cold = fab.total_bytes() - b0;
      EXPECT_EQ(eng.stats().gets - e0.gets, d + 1);
      EXPECT_EQ(eng.stats().rmws - e0.rmws, 1u);
      b0 = fab.total_bytes();
      EXPECT_EQ(kv.incr(key, 1).value(), 1u);  // cached: the fetch_add alone
      const std::uint64_t rmw = fab.total_bytes() - b0;
      EXPECT_EQ(cold, (d + 1) * tag_read + rmw);
      checked_incr = true;
    }
  });
  EXPECT_GE(d, 2u) << "no key landed two or more slots past its home";
  EXPECT_TRUE(checked_get);
  EXPECT_TRUE(checked_incr);
}

TEST(KvStore, WrongSizedPutThrowsBeforeAnyTraffic) {
  // Neither a cold key (which would claim a slot) nor a cached one sends a
  // byte, or counts anything, for a value of the wrong size.
  World w(world_cfg(2, 3));
  bool checked = false;
  w.run([&](Rank& r) {
    core::RmaEngine eng(r, r.comm_world());
    KvConfig kc;
    kc.servers = 1;
    kc.key_space = 8;
    kc.value_bytes = 24;
    KvStore kv(r, eng, kc);
    if (r.id() != 1) return;
    ASSERT_EQ(kv.put(1, val_of(1, 24)), KvOutcome::inserted);
    const core::OpStats e0 = eng.stats();
    const apps::KvStats s0 = kv.stats();
    const std::uint64_t b0 = r.world().fabric().total_bytes();
    for (std::uint64_t key : {1, 2}) {
      EXPECT_THROW(kv.put(key, val_of(key, 23)), UsageError);
      EXPECT_THROW(kv.put(key, val_of(key, 25)), UsageError);
    }
    EXPECT_EQ(eng.stats().puts, e0.puts);
    EXPECT_EQ(eng.stats().gets, e0.gets);
    EXPECT_EQ(eng.stats().rmws, e0.rmws);
    EXPECT_EQ(counters(kv.stats()), counters(s0));
    EXPECT_EQ(r.world().fabric().total_bytes(), b0);
    checked = true;
  });
  EXPECT_TRUE(checked);
}

TEST(KvStore, LocateCachesAPresentKeyAndCountsNoGet) {
  // Rank 1 inserts keys 0..11 into one 16-slot shard; rank 2 has nothing
  // cached and locates them. A present key comes back hit and cached, its
  // walk counted as probes but as no get, hit or cache hit; located again
  // it sends nothing. An absent key comes back miss and claims nothing.
  World w(world_cfg(3, 5));
  bool checked = false;
  w.run([&](Rank& r) {
    core::RmaEngine eng(r, r.comm_world());
    KvConfig kc;
    kc.servers = 1;
    kc.slots_per_shard = 16;
    kc.key_space = 32;
    kc.value_bytes = 40;
    KvStore kv(r, eng, kc);
    if (r.id() == 1) {
      for (std::uint64_t k = 0; k < 12; ++k) {
        ASSERT_EQ(kv.put(k, val_of(k, 40)), KvOutcome::inserted);
      }
    }
    r.comm_world().barrier();
    if (r.id() != 2) return;
    r.ctx().delay(100'000);  // let the barrier's messages land
    const fabric::Fabric& fab = r.world().fabric();
    std::vector<std::byte> out(40);
    for (std::uint64_t k = 0; k < 12; ++k) {
      const apps::KvStats s0 = kv.stats();
      const core::OpStats e0 = eng.stats();
      ASSERT_EQ(kv.locate(k), KvOutcome::hit);
      EXPECT_TRUE(kv.location_cached(k));
      apps::KvStats walk;
      walk.probes = kv.stats().probes - s0.probes;
      EXPECT_EQ(minus(kv.stats(), s0), counters(walk));
      EXPECT_EQ(eng.stats().gets - e0.gets, walk.probes + 1);
      // Cached: no traffic and no count.
      const apps::KvStats s1 = kv.stats();
      const core::OpStats e1 = eng.stats();
      const std::uint64_t b1 = fab.total_bytes();
      EXPECT_EQ(kv.locate(k), KvOutcome::hit);
      EXPECT_EQ(counters(kv.stats()), counters(s1));
      EXPECT_EQ(eng.stats().gets, e1.gets);
      EXPECT_EQ(fab.total_bytes(), b1);
      // The cached slot is the key's: a get reads it in one op.
      ASSERT_EQ(kv.get(k, out), KvOutcome::hit);
      EXPECT_EQ(out, val_of(k, 40));
      EXPECT_EQ(eng.stats().gets - e1.gets, 1u);
    }
    const std::uint64_t occupancy = kv.shard_occupancy(0);
    const std::uint64_t cached = kv.cached_locations();
    const apps::KvStats s0 = kv.stats();
    const core::OpStats e0 = eng.stats();
    EXPECT_EQ(kv.locate(20), KvOutcome::miss);
    EXPECT_FALSE(kv.location_cached(20));
    EXPECT_EQ(kv.cached_locations(), cached);
    EXPECT_EQ(eng.stats().rmws, e0.rmws) << "a miss claims no slot";
    apps::KvStats walk;
    walk.probes = kv.stats().probes - s0.probes;
    EXPECT_EQ(minus(kv.stats(), s0), counters(walk));
    EXPECT_EQ(kv.shard_occupancy(0), occupancy);
    checked = true;
  });
  EXPECT_TRUE(checked);
}

TEST(KvStore, LocateOnDeadShardFailsOnceAndCachesNothing) {
  // Rank 0 inserts key 40 on shard 1, whose unreplicated server dies at
  // 500 us. Rank 2 locates the key afterwards: the first tag read fails,
  // and the failure counts once.
  WorldConfig cfg = world_cfg(3, 13);
  cfg.faults.schedule = {{/*rank=*/1, /*at=*/500'000}};
  World w(cfg);
  KvOutcome located = KvOutcome::hit;
  bool cached = true;
  apps::KvStats stats;
  w.run([&](Rank& r) {
    core::RmaEngine eng(r, r.comm_world());
    KvConfig kc;
    kc.servers = 2;
    kc.key_space = 64;
    kc.value_bytes = 16;
    kc.sharding = Sharding::range;  // keys 32..63 live on the doomed shard
    KvStore kv(r, eng, kc);
    if (r.id() == 0) {
      ASSERT_EQ(kv.put(40, val_of(40, 16)), KvOutcome::inserted);
    }
    r.comm_world().barrier();
    if (r.id() == 1) r.ctx().delay(10'000'000);  // dies at 500 us
    if (r.id() != 2) return;
    r.ctx().delay(1'000'000);
    located = kv.locate(40);
    cached = kv.location_cached(40);
    stats = kv.stats();
  });
  EXPECT_EQ(w.failed_ranks(), std::vector<int>{1});
  EXPECT_EQ(located, KvOutcome::failed);
  EXPECT_FALSE(cached);
  apps::KvStats once;
  once.failed = 1;
  EXPECT_EQ(counters(stats), counters(once));
}

TEST(KvStore, WarmReadsOnlyTags) {
  // Two clients preload half of the key space each; then rank 2 warms
  // while the others sleep, so the fabric's byte count is its own. Its own
  // keys are cached already and send nothing; every other key's walk reads
  // one 8 B tag per slot and never a value.
  World w(world_cfg(3, 9));
  bool checked = false;
  w.run([&](Rank& r) {
    core::RmaEngine eng(r, r.comm_world());
    KvConfig kc;
    kc.servers = 1;
    kc.slots_per_shard = 128;
    kc.key_space = 64;
    kc.value_bytes = 40;
    KvStore kv(r, eng, kc);
    WorkloadGen gen(r, kv, WorkloadConfig{});
    if (kv.is_server()) {
      r.comm_world().barrier();
      return;
    }
    gen.preload(static_cast<std::uint64_t>(r.id() - 1), 2);
    r.comm_world().barrier();
    if (r.id() != 2) return;
    r.ctx().delay(100'000);  // let the barrier's messages land
    const fabric::Fabric& fab = r.world().fabric();
    std::uint64_t b0 = fab.total_bytes();
    kv.shard_occupancy(0);  // one 8 B get, for reference
    const std::uint64_t tag_read = fab.total_bytes() - b0;
    const std::uint64_t own = kv.cached_locations();
    ASSERT_EQ(own, 32u);
    const apps::KvStats s0 = kv.stats();
    const core::OpStats e0 = eng.stats();
    b0 = fab.total_bytes();
    gen.warm();
    EXPECT_EQ(kv.cached_locations(), kc.key_space);
    const std::uint64_t gets = eng.stats().gets - e0.gets;
    EXPECT_EQ(gets, (kc.key_space - own) + (kv.stats().probes - s0.probes))
        << "one read per slot walked, none for a key already cached";
    EXPECT_EQ(fab.total_bytes() - b0, gets * tag_read)
        << "every read carries an 8 B tag";
    EXPECT_EQ(eng.stats().puts, e0.puts);
    EXPECT_EQ(eng.stats().rmws, e0.rmws);
    EXPECT_EQ(kv.stats().gets, s0.gets);
    checked = true;
  });
  EXPECT_TRUE(checked);
}

TEST(KvStore, FullShardReportsOverflowAfterProbeBudget) {
  // One 16-slot shard: 16 inserts fill it, after which an insert of a new
  // key probes KvStore::kMaxProbes slots (wrapping around the full shard)
  // and reports overflow, through put and through incr alike.
  World w(world_cfg(2, 5));
  bool checked = false;
  w.run([&](Rank& r) {
    core::RmaEngine eng(r, r.comm_world());
    KvConfig kc;
    kc.servers = 1;
    kc.slots_per_shard = 16;
    kc.key_space = 64;
    kc.value_bytes = 8;
    KvStore kv(r, eng, kc);
    if (r.id() == 1) {
      for (std::uint64_t k = 0; k < 16; ++k) {
        ASSERT_EQ(kv.put(k, val_of(k, 8)), KvOutcome::inserted) << k;
      }
      EXPECT_EQ(kv.shard_occupancy(0), 16u);
      const apps::KvStats before = kv.stats();
      EXPECT_EQ(kv.put(40, val_of(40, 8)), KvOutcome::overflow);
      EXPECT_EQ(kv.stats().cas_conflicts - before.cas_conflicts,
                static_cast<std::uint64_t>(KvStore::kMaxProbes));
      EXPECT_FALSE(kv.incr(41, 1).has_value());
      EXPECT_EQ(kv.stats().overflows, 2u);
      EXPECT_EQ(kv.get(42), KvOutcome::miss);  // no empty slot ends the probe
      // The full shard still serves the keys it holds.
      std::vector<std::byte> out(8);
      EXPECT_EQ(kv.get(7, out), KvOutcome::hit);
      EXPECT_EQ(out, val_of(7, 8));
      EXPECT_EQ(kv.shard_occupancy(0), 16u);
      checked = true;
    }
  });
  EXPECT_TRUE(checked);
}

TEST(KvStore, ConcurrentCasInsertContention) {
  // Five clients race to insert the same 24 keys into one shard. The CAS
  // protocol must elect exactly one claimer per key; everyone else must
  // land as an update on the claimed slot.
  constexpr int kClients = 5;
  constexpr std::uint64_t kKeys = 24;
  World w(world_cfg(1 + kClients, 13));
  std::array<apps::KvStats, 1 + kClients> stats;
  std::uint64_t occupancy = 0;
  std::array<std::uint64_t, 1 + kClients> hits{};
  w.run([&](Rank& r) {
    core::RmaEngine eng(r, r.comm_world());
    KvConfig kc;
    kc.servers = 1;
    kc.key_space = kKeys;
    kc.slots_per_shard = 32;  // tight table => probe chains collide
    kc.value_bytes = 16;
    KvStore kv(r, eng, kc);
    const auto me = static_cast<std::size_t>(r.id());
    if (!kv.is_server()) {
      for (std::uint64_t k = 0; k < kKeys; ++k) {
        const KvOutcome o = kv.put(k, val_of(k, 16));
        EXPECT_TRUE(o == KvOutcome::inserted || o == KvOutcome::updated);
        r.ctx().yield();  // interleave the insert storms
      }
      for (std::uint64_t k = 0; k < kKeys; ++k) {
        if (kv.get(k) == KvOutcome::hit) hits[me] += 1;
      }
      occupancy = kv.shard_occupancy(0);
    }
    stats[me] = kv.stats();
  });
  std::uint64_t inserts = 0, updates = 0;
  for (const auto& s : stats) {
    inserts += s.inserts;
    updates += s.updates;
    EXPECT_EQ(s.overflows, 0u);
    EXPECT_EQ(s.failed, 0u);
  }
  EXPECT_EQ(inserts, kKeys) << "exactly one CAS claimer per key";
  EXPECT_EQ(updates, kClients * kKeys - kKeys);
  EXPECT_EQ(occupancy, kKeys);
  for (int c = 1; c <= kClients; ++c) {
    EXPECT_EQ(hits[static_cast<std::size_t>(c)], kKeys);
  }
}

// ---------------------------------------------------------------- workload

TEST(KvStore, ZipfHotKeyHammeringReconcilesCounters) {
  World w(world_cfg(4, 20090922));
  std::map<std::uint64_t, std::uint64_t> issued;  // key -> rmw count
  std::map<std::uint64_t, std::uint64_t> stored;
  std::array<std::uint64_t, 2> shard_ops{}, issued_shard_ops{};
  std::vector<sim::Time> latency;
  std::uint64_t ok_total = 0, op_total = 0;
  w.run([&](Rank& r) {
    core::RmaEngine eng(r, r.comm_world());
    KvConfig kc;
    kc.servers = 2;
    kc.key_space = 64;
    kc.value_bytes = 16;
    kc.sharding = Sharding::range;
    KvStore kv(r, eng, kc);
    WorkloadConfig wc;
    wc.zipf_s = 0.99;
    wc.get_frac = 0.5;
    wc.put_frac = 0.2;
    wc.rmw_frac = 0.3;
    wc.ops = 600;
    wc.window = 4;
    wc.seed = 99;
    WorkloadGen gen(r, kv, wc);
    if (!kv.is_server()) {
      gen.preload(static_cast<std::uint64_t>(r.id() - 2), 2);
      r.comm_world().barrier();
      gen.warm();
      ok_total += gen.run();
      for (const auto& c : gen.completions()) {
        op_total += 1;
        shard_ops[c.shard] += 1;
        latency.push_back(c.latency);
      }
      r.comm_world().barrier();
      if (r.id() == 2) {
        // Reconcile every counter word against what the clients claim to
        // have added: incr(key, 0) reads the current value.
        for (std::uint64_t k = 0; k < kc.key_space; ++k) {
          stored[k] = kv.incr(k, 0).value();
        }
      }
    } else {
      r.comm_world().barrier();
      r.comm_world().barrier();
    }
  });
  // Clients recount their RMWs from the deterministic samplers.
  for (std::uint64_t seedrank : {2ull, 3ull}) {
    ZipfSampler keys(64, 0.99, mix64(99ull ^ (0xC11E57ull + seedrank)));
    MixSampler mix({0.5, 0.2, 0.3}, mix64(99ull ^ (0x0FF5E7ull + seedrank)));
    for (int i = 0; i < 600; ++i) {
      const std::uint64_t k = keys.next();
      if (mix.next() == 2) issued[k] += 1;
      issued_shard_ops[k < 32 ? 0 : 1] += 1;
    }
  }
  std::uint64_t issued_total = 0, stored_total = 0;
  for (auto& [k, n] : issued) issued_total += n;
  for (auto& [k, n] : stored) stored_total += n;
  EXPECT_EQ(stored_total, issued_total)
      << "every fetch_add must land exactly once";
  EXPECT_EQ(op_total, 1200u);
  EXPECT_EQ(ok_total, 1200u) << "warmed runs have no misses/overflows";
  // Zipf over range sharding hammers shard 0 (keys 0..31 hold the head).
  EXPECT_GT(shard_ops[0], 3 * shard_ops[1]);
  // The completion logs' per-shard counts are the seeded issue stream's.
  EXPECT_EQ(shard_ops, issued_shard_ops);
  // Tail latency comes from the same logs.
  ASSERT_EQ(latency.size(), 1200u);
  std::sort(latency.begin(), latency.end());
  const sim::Time p50 = trace::nearest_rank(latency, 50.0);
  const sim::Time p99 = trace::nearest_rank(latency, 99.0);
  const sim::Time p999 = trace::nearest_rank(latency, 99.9);
  EXPECT_GE(p999, p99);
  EXPECT_GE(p99, p50);
  EXPECT_GT(p50, 0u);
}

TEST(KvStore, DeterministicDoubleRun) {
  auto once = [] {
    struct Outcome {
      sim::Time duration = 0;
      std::uint64_t ok = 0;
      std::vector<std::pair<trace::Time, trace::Time>> rank3;
      bool operator==(const Outcome&) const = default;
    } out;
    World w(world_cfg(4, 5));
    w.run([&](Rank& r) {
      core::RmaEngine eng(r, r.comm_world());
      KvConfig kc;
      kc.servers = 2;
      kc.key_space = 64;
      kc.value_bytes = 32;
      KvStore kv(r, eng, kc);
      WorkloadConfig wc;
      wc.zipf_s = 0.99;
      wc.ops = 400;
      wc.window = 8;
      wc.seed = 17;
      WorkloadGen gen(r, kv, wc);
      if (!kv.is_server()) {
        gen.preload(static_cast<std::uint64_t>(r.id() - 2), 2);
        r.comm_world().barrier();
        gen.warm();
        out.ok += gen.run();
        if (r.id() == 3) {
          for (const auto& c : gen.completions()) {
            out.rank3.emplace_back(c.done_at, c.latency);
          }
        }
      } else {
        r.comm_world().barrier();
      }
    });
    out.duration = w.duration();
    return out;
  };
  auto a = once();
  auto b = once();
  EXPECT_EQ(a.ok, 800u);
  EXPECT_TRUE(a == b) << "same seed must replay the workload byte-for-byte";
}

TEST(KvStore, OpsRetireInCompletionOrder) {
  // Range sharding with a steep Zipf head: shard 0 is hot, shard 1 nearly
  // idle. An op to the idle shard finishes while older ops queue at the hot
  // shard's serializer, and it retires first.
  World w(world_cfg(6, 11));
  std::vector<std::vector<WorkloadGen::Completion>> done(4);
  w.run([&](Rank& r) {
    core::RmaEngine eng(r, r.comm_world());
    KvConfig kc;
    kc.servers = 2;
    kc.key_space = 64;
    kc.value_bytes = 256;
    kc.sharding = Sharding::range;
    KvStore kv(r, eng, kc);
    WorkloadConfig wc;
    wc.zipf_s = 1.2;
    wc.get_frac = 0.5;
    wc.put_frac = 0.5;
    wc.rmw_frac = 0.0;
    wc.ops = 300;
    wc.seed = 23;
    WorkloadGen gen(r, kv, wc);
    if (!kv.is_server()) {
      gen.preload(static_cast<std::uint64_t>(r.id() - 2), 4);
      r.comm_world().barrier();
      gen.warm();
      EXPECT_EQ(gen.run(), 300u);
      done[static_cast<std::size_t>(r.id() - 2)] = gen.completions();
    } else {
      r.comm_world().barrier();
    }
  });
  std::uint64_t overtakes = 0;
  for (const auto& log : done) {
    ASSERT_EQ(log.size(), 300u);
    for (std::size_t i = 1; i < log.size(); ++i) {
      EXPECT_LE(log[i - 1].done_at, log[i].done_at)
          << "completions must be logged in retire order";
    }
    // An idle-shard op retired before a hot-shard op issued earlier.
    for (std::size_t i = 0; i < log.size(); ++i) {
      const trace::Time issued = log[i].done_at - log[i].latency;
      for (std::size_t j = i + 1; j < log.size(); ++j) {
        if (log[i].shard == 1 && log[j].shard == 0 &&
            log[j].done_at - log[j].latency < issued) {
          ++overtakes;
        }
      }
    }
  }
  EXPECT_GT(overtakes, 0u);
}

TEST(KvStore, RmwsShareTheWindow) {
  // RMWs are request-based fetch_adds (RmaEngine::start_rmw), so the closed
  // loop keeps up to `window` of them in flight like gets and puts: some
  // RMW is issued before an earlier one has retired. Every fetch_add still
  // lands exactly once.
  constexpr std::uint64_t kOps = 200;
  World w(world_cfg(3, 7));
  std::vector<WorkloadGen::Completion> log;
  std::uint64_t ok = 0, stored_total = 0;
  w.run([&](Rank& r) {
    core::RmaEngine eng(r, r.comm_world());
    KvConfig kc;
    kc.servers = 2;
    kc.key_space = 64;
    kc.value_bytes = 16;
    KvStore kv(r, eng, kc);
    WorkloadConfig wc;
    wc.zipf_s = 0.99;
    wc.get_frac = 0.0;
    wc.put_frac = 0.0;
    wc.rmw_frac = 1.0;
    wc.ops = kOps;
    wc.window = 8;
    wc.seed = 3;
    WorkloadGen gen(r, kv, wc);
    if (kv.is_server()) {
      r.comm_world().barrier();
      return;
    }
    gen.preload(0, 1);
    r.comm_world().barrier();
    gen.warm();
    ok = gen.run();
    log = gen.completions();
    for (std::uint64_t k = 0; k < kc.key_space; ++k) {
      stored_total += kv.incr(k, 0).value();
    }
  });
  EXPECT_EQ(ok, kOps);
  EXPECT_EQ(stored_total, kOps) << "every fetch_add must land exactly once";
  ASSERT_EQ(log.size(), kOps);
  std::uint64_t overlaps = 0;
  for (const auto& a : log) {
    const trace::Time a_issued = a.done_at - a.latency;
    for (const auto& b : log) {
      const trace::Time b_issued = b.done_at - b.latency;
      if (a_issued < b_issued && b_issued < a.done_at) ++overlaps;
    }
  }
  EXPECT_GT(overlaps, 0u)
      << "an RMW must be issued before an earlier one retires";
}

// ------------------------------------------------------------------ faults

TEST(KvStore, CrashDuringInsertStormFailsOverReplicatedShard) {
  // Server rank 1 dies while clients are mid-insert. With replication on,
  // the shard window fails over to its backup: no op fails, and every
  // value (pre- and post-crash) is still readable.
  WorldConfig cfg = world_cfg(4, 41);
  cfg.replication.enabled = true;
  cfg.faults.schedule = {{/*rank=*/1, /*at=*/500'000}};
  World w(cfg);
  std::array<apps::KvStats, 4> stats;
  std::uint64_t hits = 0, wrong = 0;
  w.run([&](Rank& r) {
    core::RmaEngine eng(r, r.comm_world());
    KvConfig kc;
    kc.servers = 2;
    kc.key_space = 48;
    kc.value_bytes = 64;
    kc.sharding = Sharding::range;  // keys 24..47 live on the doomed shard
    KvStore kv(r, eng, kc);
    // Client-only communicator for the storm/verify barrier (created before
    // the crash; the victim cannot join collectives after it).
    auto clients = r.comm_world().split(kv.is_server() ? -1 : 0, r.id());
    const auto me = static_cast<std::size_t>(r.id());
    if (r.id() == 1) {
      r.ctx().delay(3'000'000);  // victim idles until its scheduled death
      stats[me] = kv.stats();
      return;
    }
    if (!kv.is_server()) {
      // Insert storm spanning the crash instant: client 2 takes even keys,
      // client 3 odd ones.
      for (std::uint64_t k = me - 2; k < 48; k += 2) {
        EXPECT_EQ(kv.put(k, val_of(k, 64)), KvOutcome::inserted);
        r.ctx().delay(30'000);  // stretch the storm across t=500us
      }
      // Quiesce before verifying: a concurrent reader may legitimately see
      // a claimed tag before its value lands (CAS publishes the tag first).
      clients->barrier();
      std::vector<std::byte> out(64);
      for (std::uint64_t k = 0; k < 48; ++k) {
        if (kv.get(k, out) == KvOutcome::hit) {
          hits += 1;
          if (out != val_of(k, 64)) wrong += 1;
        }
      }
      clients->barrier();
      if (r.id() == 2) {
        EXPECT_EQ(kv.incr(40, 3).value(), 0u);  // RMW on failed-over shard
        EXPECT_EQ(kv.incr(40, 0).value(), 3u);
      }
    }
    stats[me] = kv.stats();
  });
  EXPECT_EQ(hits, 96u) << "every key must survive the shard failover";
  EXPECT_EQ(wrong, 0u);
  for (const auto& s : stats) {
    EXPECT_EQ(s.failed, 0u) << "failover must be transparent to the app";
    EXPECT_EQ(s.overflows, 0u);
  }
}

// When server 1 dies in the two tests below: inside both clients' run(),
// which spans about 1.24-1.62 ms of virtual time with the death (1.22-1.69
// ms without it). warm() moves 8 B tags, so set-up ends well before 1.45
// ms; each test asserts run_from < kServerDeath < run_to.
constexpr sim::Time kServerDeath = 1'450'000;

TEST(KvStore, UnreplicatedServerDeathFailsItsOpsAndRunEnds) {
  // Server 1 dies mid-run with no replica: ops to its shard retire failed
  // (drained in flight, or failed fast once the death is known), ops to
  // shard 0 are untouched, and every issued op retires exactly once. RMW
  // is left out of the mix (UnreplicatedServerDeathFailsBlockingRmws covers
  // it). The blocking ops afterwards reach every other failure drain.
  constexpr std::uint64_t kOps = 400;
  WorldConfig cfg = world_cfg(4, 13);
  cfg.faults.schedule = {{/*rank=*/1, /*at=*/kServerDeath}};
  World w(cfg);
  std::array<std::uint64_t, 2> ok{};
  std::array<std::vector<WorkloadGen::Completion>, 2> done;
  std::array<apps::KvStats, 2> stats{};
  std::array<KvOutcome, 2> put_after{}, get_after{};
  std::array<sim::Time, 2> run_from{}, run_to{};
  std::array<core::OpStats, 2> eng_stats{};
  KvOutcome cold_get = KvOutcome::hit;
  std::uint64_t cold_failed = 0;
  w.run([&](Rank& r) {
    core::RmaEngine eng(r, r.comm_world());
    KvConfig kc;
    kc.servers = 2;
    kc.key_space = 64;
    kc.value_bytes = 32;
    kc.sharding = Sharding::range;  // keys 32..63 live on the doomed shard
    KvStore kv(r, eng, kc);
    WorkloadConfig wc;
    wc.zipf_s = 0.5;
    wc.get_frac = 0.7;
    wc.put_frac = 0.3;
    wc.rmw_frac = 0.0;
    wc.ops = kOps;
    wc.seed = 31;
    WorkloadGen gen(r, kv, wc);
    if (r.id() == 1) {
      r.comm_world().barrier();
      r.ctx().delay(10'000'000);  // dies mid-run
      return;
    }
    if (r.id() == 0) {
      // Rank 0 never cached a location: after the death its get walks the
      // probe chain and fails; an incr fails to locate the key and throws
      // without claiming it.
      r.comm_world().barrier();
      r.ctx().delay(2'000'000);
      cold_get = kv.get(40);
      EXPECT_THROW(kv.incr(41, 1), RankFailedError);
      cold_failed = kv.stats().failed;
      return;
    }
    const auto me = static_cast<std::size_t>(r.id() - 2);
    gen.preload(me, 2);
    r.comm_world().barrier();
    gen.warm();
    run_from[me] = r.ctx().now();
    ok[me] = gen.run();
    run_to[me] = r.ctx().now();
    done[me] = gen.completions();
    // The blocking ops drain the same way once the shard is gone.
    put_after[me] = kv.put(40, val_of(40, 32));
    get_after[me] = kv.get(40);
    stats[me] = kv.stats();
    eng_stats[me] = eng.stats();
  });
  EXPECT_EQ(w.failed_ranks(), std::vector<int>{1});
  EXPECT_EQ(cold_get, KvOutcome::failed);
  EXPECT_EQ(cold_failed, 2u);
  for (std::size_t me = 0; me < 2; ++me) {
    EXPECT_LT(run_from[me], kServerDeath);
    EXPECT_GT(run_to[me], kServerDeath) << "the server must die during run()";
    EXPECT_GT(eng_stats[me].drained_ops, 0u) << "some ops were in flight";
    const auto& log = done[me];
    ASSERT_EQ(log.size(), kOps) << "every issued op retires once";
    std::uint64_t good = 0, failed = 0, good_on_1 = 0;
    std::map<std::pair<int, int>, std::uint64_t> retired;
    for (std::size_t i = 0; i < log.size(); ++i) {
      const auto& c = log[i];
      if (i > 0) {
        EXPECT_LE(log[i - 1].done_at, c.done_at);
      }
      retired[{static_cast<int>(c.kind), c.shard}] += 1;
      if (c.outcome == KvOutcome::failed) {
        EXPECT_EQ(c.shard, 1) << "only the dead shard's ops fail";
        ++failed;
      } else {
        EXPECT_TRUE(c.outcome == KvOutcome::hit ||
                    c.outcome == KvOutcome::updated);
        ++good;
        if (c.shard == 1) ++good_on_1;
      }
    }
    EXPECT_GT(failed, 0u);
    EXPECT_GT(good_on_1, 0u) << "shard 1 served ops before it died";
    EXPECT_EQ(ok[me], good) << "run() must not count failed ops";
    EXPECT_EQ(stats[me].failed, failed + 2) << "each failed op drains once";
    EXPECT_EQ(put_after[me], KvOutcome::failed);
    EXPECT_EQ(get_after[me], KvOutcome::failed);
    // The issued stream, recounted from the seeded samplers, is exactly
    // the retired one.
    const std::uint64_t rank = me + 2;
    ZipfSampler keys(64, 0.5, mix64(31ull ^ (0xC11E57ull + rank)));
    MixSampler mix({0.7, 0.3, 0.0}, mix64(31ull ^ (0x0FF5E7ull + rank)));
    std::map<std::pair<int, int>, std::uint64_t> issued;
    for (std::uint64_t i = 0; i < kOps; ++i) {
      const std::uint64_t k = keys.next();
      issued[{static_cast<int>(mix.next()), k < 32 ? 0 : 1}] += 1;
    }
    EXPECT_EQ(retired, issued);
  }
}

// The same death under an RMW-heavy mix. The RMWs share the window
// (KvStore::start_incr): one on the dead shard is drained in flight or
// fails fast, retires failed like a get or put, and run() returns with
// every op retired once.
TEST(KvStore, UnreplicatedServerDeathFailsBlockingRmws) {
  constexpr std::uint64_t kOps = 400;
  WorldConfig cfg = world_cfg(4, 13);
  cfg.faults.schedule = {{/*rank=*/1, /*at=*/kServerDeath}};
  World w(cfg);
  std::array<std::uint64_t, 2> ok{};
  std::array<std::vector<WorkloadGen::Completion>, 2> done;
  std::array<apps::KvStats, 2> stats{};
  std::array<sim::Time, 2> run_from{}, run_to{};
  w.run([&](Rank& r) {
    core::RmaEngine eng(r, r.comm_world());
    KvConfig kc;
    kc.servers = 2;
    kc.key_space = 64;
    kc.value_bytes = 32;
    kc.sharding = Sharding::range;  // keys 32..63 live on the doomed shard
    KvStore kv(r, eng, kc);
    WorkloadConfig wc;
    wc.zipf_s = 0.5;
    wc.get_frac = 0.4;
    wc.put_frac = 0.2;
    wc.rmw_frac = 0.4;
    wc.ops = kOps;
    wc.seed = 31;
    WorkloadGen gen(r, kv, wc);
    if (kv.is_server()) {
      r.comm_world().barrier();
      if (r.id() == 1) r.ctx().delay(10'000'000);  // dies mid-run
      return;
    }
    const auto me = static_cast<std::size_t>(r.id() - 2);
    gen.preload(me, 2);
    r.comm_world().barrier();
    gen.warm();
    run_from[me] = r.ctx().now();
    ok[me] = gen.run();
    run_to[me] = r.ctx().now();
    done[me] = gen.completions();
    stats[me] = kv.stats();
  });
  EXPECT_EQ(w.failed_ranks(), std::vector<int>{1});
  for (std::size_t me = 0; me < 2; ++me) {
    EXPECT_LT(run_from[me], kServerDeath);
    EXPECT_GT(run_to[me], kServerDeath) << "the server must die during run()";
    const auto& log = done[me];
    ASSERT_EQ(log.size(), kOps) << "every issued op retires once";
    std::uint64_t good = 0, failed = 0, failed_rmw = 0;
    std::map<std::pair<int, int>, std::uint64_t> retired;
    for (const auto& c : log) {
      retired[{static_cast<int>(c.kind), c.shard}] += 1;
      if (c.outcome == KvOutcome::failed) {
        EXPECT_EQ(c.shard, 1) << "only the dead shard's ops fail";
        ++failed;
        if (c.kind == apps::OpKind::rmw) ++failed_rmw;
      } else {
        ++good;
      }
    }
    EXPECT_GT(failed_rmw, 0u) << "an RMW on the dead shard retires failed";
    EXPECT_EQ(ok[me], good);
    EXPECT_EQ(stats[me].failed, failed) << "each failed op counts once";
    const std::uint64_t rank = me + 2;
    ZipfSampler keys(64, 0.5, mix64(31ull ^ (0xC11E57ull + rank)));
    MixSampler mix({0.4, 0.2, 0.4}, mix64(31ull ^ (0x0FF5E7ull + rank)));
    std::map<std::pair<int, int>, std::uint64_t> issued;
    for (std::uint64_t i = 0; i < kOps; ++i) {
      const std::uint64_t k = keys.next();
      issued[{static_cast<int>(mix.next()), k < 32 ? 0 : 1}] += 1;
    }
    EXPECT_EQ(retired, issued);
  }
}

// Server 1 dies before the client has cached any location, so every RMW
// is a cold-key incr. On the dead shard its probe read fails, and incr
// stops there: it does not claim (no compare_swap to a shard known dead)
// and the op counts as failed once, not once in the probe and again in
// run().
TEST(KvStore, ColdRmwOnDeadShardCountsItsFailureOnce) {
  constexpr std::uint64_t kOps = 50;
  WorldConfig cfg = world_cfg(3, 13);
  cfg.faults.schedule = {{/*rank=*/1, /*at=*/500'000}};
  World w(cfg);
  std::vector<WorkloadGen::Completion> log;
  apps::KvStats stats;
  core::OpStats eng_stats;
  w.run([&](Rank& r) {
    core::RmaEngine eng(r, r.comm_world());
    KvConfig kc;
    kc.servers = 2;
    kc.key_space = 64;
    kc.value_bytes = 16;
    kc.sharding = Sharding::range;  // keys 32..63 live on the doomed shard
    KvStore kv(r, eng, kc);
    WorkloadConfig wc;
    wc.get_frac = 0.0;
    wc.put_frac = 0.0;
    wc.rmw_frac = 1.0;
    wc.ops = kOps;
    wc.seed = 5;
    WorkloadGen gen(r, kv, wc);
    if (kv.is_server()) {
      r.comm_world().barrier();
      if (r.id() == 1) r.ctx().delay(10'000'000);  // dies at 500 us
      return;
    }
    r.comm_world().barrier();
    r.ctx().delay(1'000'000);
    EXPECT_EQ(kv.cached_locations(), 0u);
    gen.run();
    log = gen.completions();
    stats = kv.stats();
    eng_stats = eng.stats();
  });
  EXPECT_EQ(w.failed_ranks(), std::vector<int>{1});
  ASSERT_EQ(log.size(), kOps);
  std::uint64_t failed = 0;
  for (const auto& c : log) {
    if (c.outcome == KvOutcome::failed) {
      EXPECT_EQ(c.shard, 1) << "only the dead shard's ops fail";
      ++failed;
    } else {
      EXPECT_EQ(c.outcome, KvOutcome::updated);
    }
  }
  EXPECT_GT(failed, 0u);
  EXPECT_EQ(stats.failed, failed) << "each failed op counts once";
  EXPECT_EQ(eng_stats.failed_fast, failed)
      << "one probe read per failed op reaches for the dead shard, no claim";
}

// Seeded chaos schedule kills BOTH server ranks (min_survivors=0): the
// shard chains extend into the client ranks, which end up acting primaries
// for each other's traffic. Lazy mode makes this the adversarial ordering
// the chaos sweep keeps finding bugs in — deferred logs flushing into
// freshly adopted copies while the second crash lands. Every acked
// increment must be conserved in the final counters.
TEST(KvStore, LazyChaosDoubleServerCrashConservesAckedIncrements) {
  WorldConfig cfg = world_cfg(4, 97);
  cfg.replication.enabled = true;
  cfg.replication.mode = runtime::ReplMode::lazy;
  runtime::ChaosSpec spec;
  spec.victims = {0, 1};  // every server dies; clients 2,3 inherit the shards
  spec.crashes = 2;
  spec.min_survivors = 0;
  spec.window_start = 400'000;
  spec.window_end = 800'000;
  spec.min_gap = 150'000;
  cfg.faults = runtime::chaos_plan(spec, /*seed=*/5);
  ASSERT_EQ(cfg.faults.schedule.size(), 2u);
  World w(cfg);
  constexpr std::uint64_t kKeys = 8;
  std::array<std::array<std::uint64_t, kKeys>, 4> acked{};
  std::array<std::uint64_t, kKeys> final_counts{};
  std::uint64_t lost = 1, failed = 1;
  w.run([&](Rank& r) {
    core::RmaEngine eng(r, r.comm_world());
    KvConfig kc;
    kc.servers = 2;
    kc.key_space = 64;
    kc.value_bytes = 32;
    KvStore kv(r, eng, kc);
    // Collective split before the victims park: client-only barrier comm.
    auto clients = r.comm_world().split(kv.is_server() ? -1 : 0, r.id());
    const auto me = static_cast<std::size_t>(r.id());
    if (kv.is_server()) {
      r.ctx().delay(3'000'000);  // both die before this elapses
      return;
    }
    // Paced increments spanning both crashes (~t=60us..1.26ms).
    for (int i = 0; i < 80; ++i) {
      const std::uint64_t k = static_cast<std::uint64_t>(i) % kKeys;
      if (kv.incr(k, 1).has_value()) acked[me][k] += 1;
      r.ctx().delay(15'000);
    }
    clients->barrier();  // quiesce before the verification read
    if (r.id() == 2) {
      for (std::uint64_t k = 0; k < kKeys; ++k) {
        final_counts[k] = kv.incr(k, 0).value_or(0);
      }
      lost = kv.stats().lost;
      failed = kv.stats().failed;
    }
    clients->barrier();
  });
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    EXPECT_EQ(final_counts[k], acked[2][k] + acked[3][k])
        << "key " << k << ": acked increments lost across the double crash";
  }
  EXPECT_EQ(lost, 0u) << "no shard may lose its last copy";
  EXPECT_EQ(failed, 0u) << "failover must stay transparent to the app";
}

}  // namespace
}  // namespace m3rma
