// Recoverable RMA: primary/backup window replication and crash-triggered
// failover (runtime::ReplicationConfig + core::RmaEngine mirror stream).
//
// Invariants under test:
//  * replication off  => byte-for-byte inert (no mirrors, 31-byte handles);
//  * replication on   => every put/accumulate/RMW is mirrored to the
//    deterministic backup, and once the primary dies, in-flight ops are
//    rescued through their mirrors, gets are re-driven at the backup, and
//    subsequent ops transparently retarget — with contents intact;
//  * adversarial orderings (backup-first, both-at-once, crash during
//    re-sync) degrade to replica_lost instead of hanging;
//  * the whole machinery replays byte-identically under the seed discipline.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "core/rma_engine.hpp"
#include "runtime/comm.hpp"
#include "runtime/world.hpp"

namespace m3rma {
namespace {

using core::Attrs;
using core::OpStatus;
using core::RmaAttr;
using core::RmaEngine;
using core::TargetMem;
using runtime::Rank;
using runtime::World;
using runtime::WorldConfig;

template <class T>
void store(Rank& r, std::uint64_t addr, const std::vector<T>& vals) {
  r.memory().cpu_write(
      addr, std::span(reinterpret_cast<const std::byte*>(vals.data()),
                      vals.size() * sizeof(T)));
}

template <class T>
std::vector<T> load(Rank& r, std::uint64_t addr, std::size_t n) {
  std::vector<T> out(n);
  r.memory().cpu_read_uncached(
      addr,
      std::span(reinterpret_cast<std::byte*>(out.data()), n * sizeof(T)));
  return out;
}

WorldConfig repl_cfg(int ranks, std::uint64_t seed) {
  WorldConfig cfg;
  cfg.ranks = ranks;
  cfg.seed = seed;
  cfg.replication.enabled = true;
  return cfg;
}

// ---------------------------------------------------------------- healthy

TEST(Replication, AttachPicksDeterministicBackupAndMirrorsPuts) {
  WorldConfig cfg = repl_cfg(4, 11);
  std::uint64_t mirrored[4] = {};
  std::uint64_t mirror_bytes[4] = {};
  std::uint64_t applied[4] = {};
  std::size_t hosted[4] = {};
  int backup_of[4] = {-1, -1, -1, -1};
  World w(cfg);
  w.run([&](Rank& r) {
    const int me = r.id();
    RmaEngine eng(r, r.comm_world());
    auto [buf, mems] = eng.allocate_shared(64);
    backup_of[me] = mems[static_cast<std::size_t>(me)].backup;
    auto src = r.alloc(16);
    store<std::uint64_t>(r, src.addr, {0xfeedfacecafebeefull, 77});
    // Everyone hammers rank 1's window; every block must be mirrored.
    eng.put_bytes(src.addr, mems[1], 16 * static_cast<std::uint64_t>(me),
                  16, 1, Attrs(RmaAttr::blocking) |
                             RmaAttr::remote_completion);
    eng.fetch_add(mems[1], 0, 1, 1);
    eng.complete_collective();
    r.ctx().delay(200'000);  // let the final mirrors drain
    eng.order_collective();
    mirrored[me] = eng.stats().mirrored_ops;
    mirror_bytes[me] = eng.stats().mirror_bytes;
    applied[me] = eng.mirrors_applied();
    hosted[me] = eng.replicas_hosted();
  });
  for (int i = 0; i < 4; ++i) {
    // Deterministic placement: backup of rank r is (r + 1) mod n.
    EXPECT_EQ(backup_of[i], (i + 1) % 4) << "rank " << i;
    // Every rank mirrored its put (16B) and its RMW to rank 1's backup.
    EXPECT_EQ(mirrored[i], 2u) << "rank " << i;
    EXPECT_EQ(mirror_bytes[i], 16u) << "rank " << i;
    // Each rank hosts exactly one replica: that of (r - 1) mod n.
    EXPECT_EQ(hosted[i], 1u) << "rank " << i;
  }
  // Rank 2 (backup of 1) applied all eight mirrors; nobody else any.
  EXPECT_EQ(applied[2], 8u);
  EXPECT_EQ(applied[0] + applied[1] + applied[3], 0u);
}

TEST(Replication, DisabledIsInert) {
  WorldConfig cfg;  // replication off (default)
  cfg.ranks = 4;
  cfg.seed = 11;
  World w(cfg);
  w.run([&](Rank& r) {
    RmaEngine eng(r, r.comm_world());
    auto [buf, mems] = eng.allocate_shared(64);
    auto src = r.alloc(8);
    eng.put_bytes(src.addr, mems[(r.id() + 1) % 4], 0, 8, (r.id() + 1) % 4,
                  Attrs(RmaAttr::blocking) | RmaAttr::remote_completion);
    eng.complete_collective();
    EXPECT_FALSE(mems[static_cast<std::size_t>(r.id())].replicated());
    // Unreplicated handles keep the original 31-byte wire blob.
    EXPECT_EQ(mems[static_cast<std::size_t>(r.id())].serialize().size(), 31u);
    EXPECT_EQ(eng.stats().mirrored_ops, 0u);
    EXPECT_EQ(eng.stats().forwarded_mirrors, 0u);
    EXPECT_EQ(eng.stats().probes_sent, 0u);
    EXPECT_EQ(eng.stats().notifies_dropped, 0u);
    EXPECT_EQ(eng.mirrors_applied(), 0u);
    EXPECT_EQ(eng.replicas_hosted(), 0u);
  });
}

// --------------------------------------------------------------- failover

// The tentpole scenario: rank 1 dies mid-run. Data put (and RMW-ed) before
// the crash is served from the backup afterwards; ops issued after the
// crash transparently retarget.
TEST(Replication, FailoverServesPreCrashDataFromBackup) {
  WorldConfig cfg = repl_cfg(4, 23);
  cfg.faults.schedule = {{/*rank=*/1, /*at=*/400'000}};
  World w(cfg);
  std::vector<std::uint64_t> got;
  std::uint64_t fa_before = 1, fa_after = 1;
  std::uint64_t retargeted = 0;
  bool put_after_ok = false;
  w.run([&](Rank& r) {
    const int me = r.id();
    RmaEngine eng(r, r.comm_world());
    auto [buf, mems] = eng.allocate_shared(64);
    if (me == 1) {  // victim idles until death
      r.ctx().delay(2'000'000);
      return;
    }
    if (me != 0) return;
    auto src = r.alloc(32);
    store<std::uint64_t>(r, src.addr, {41, 42, 43, 44});
    // Pre-crash: remote-complete (=> mirror issued) puts + an RMW.
    eng.put_bytes(src.addr, mems[1], 8, 32, 1,
                  Attrs(RmaAttr::blocking) | RmaAttr::remote_completion);
    fa_before = eng.fetch_add(mems[1], 0, 5, 1);  // 0 -> 5
    eng.complete(1);
    r.ctx().delay(600'000);  // ride through the crash
    ASSERT_TRUE(eng.target_failed(1));
    // Post-crash: a put retargets at the backup (rank 2) and lands ok...
    store<std::uint64_t>(r, src.addr, {99, 0, 0, 0});
    core::Request p =
        eng.put_bytes(src.addr, mems[1], 40, 8, 1,
                      Attrs(RmaAttr::blocking) | RmaAttr::remote_completion);
    put_after_ok = !p.failed();
    // ...the RMW continues from the mirrored value (5, not 0)...
    fa_after = eng.fetch_add(mems[1], 0, 7, 1);  // 5 -> 12
    // ...and a get reads back every pre- and post-crash write.
    auto dst = r.alloc(48);
    core::Request g =
        eng.get_bytes(dst.addr, mems[1], 0, 48, 1, Attrs(RmaAttr::blocking));
    EXPECT_FALSE(g.failed());
    got = load<std::uint64_t>(r, dst.addr, 6);
    retargeted = eng.stats().retargeted_ops;
  });
  EXPECT_TRUE(put_after_ok);
  EXPECT_EQ(fa_before, 0u);
  EXPECT_EQ(fa_after, 5u) << "RMW mirror must carry the pre-crash value";
  ASSERT_EQ(got.size(), 6u);
  EXPECT_EQ(got[0], 12u);  // 0 +5 (pre-crash) +7 (post-crash)
  EXPECT_EQ(got[1], 41u);
  EXPECT_EQ(got[2], 42u);
  EXPECT_EQ(got[3], 43u);
  EXPECT_EQ(got[4], 44u);
  EXPECT_EQ(got[5], 99u);  // post-crash put
  EXPECT_GE(retargeted, 3u);  // post-crash put + rmw + get
}

// Ops in flight at the moment of death: remote-completion puts park until
// their mirror is acknowledged (rescued), in-flight gets are re-driven at
// the backup. Nothing hangs, and with a live backup nothing fails.
TEST(Replication, InFlightOpsRescuedOrReissuedAtCrash) {
  WorldConfig cfg = repl_cfg(4, 31);
  cfg.faults.schedule = {{/*rank=*/1, /*at=*/300'000}};
  World w(cfg);
  std::uint64_t rescued = 0, reissued = 0, failed = 0, oks = 0;
  w.run([&](Rank& r) {
    const int me = r.id();
    RmaEngine eng(r, r.comm_world());
    auto [buf, mems] = eng.allocate_shared(256);
    if (me == 1) {
      r.ctx().delay(2'000'000);
      return;
    }
    if (me != 0) return;
    auto src = r.alloc(8);
    auto dst = r.alloc(8);
    store<std::uint64_t>(r, src.addr, {7});
    std::vector<core::Request> reqs;
    // Keep ops in the air across the crash instant: no complete() until
    // the end, small delays so issues straddle t=300'000.
    for (int i = 0; i < 40; ++i) {
      reqs.push_back(eng.put_bytes(src.addr, mems[1],
                                   8 * static_cast<std::uint64_t>(i % 16), 8,
                                   1, Attrs(RmaAttr::remote_completion)));
      if (i % 4 == 0) {
        reqs.push_back(eng.get_bytes(dst.addr, mems[1], 0, 8, 1));
      }
      r.ctx().delay(9'000);
    }
    for (auto& q : reqs) {
      q.wait();
      if (q.failed()) {
        ++failed;
      } else {
        ++oks;
      }
    }
    eng.complete(core::kAllRanks);
    rescued = eng.stats().rescued_ops;
    reissued = eng.stats().reissued_gets;
  });
  EXPECT_EQ(failed, 0u) << "with a live backup no op may fail";
  EXPECT_EQ(oks, 50u);
  // The crash lands mid-loop, so at least one op must have used each
  // rescue path or been retargeted outright (exact split is seed-fixed).
  EXPECT_GT(rescued + reissued, 0u);
}

// A window its owner detached is gone, even though its backup still holds
// the copy mirrored before the detach: once the owner dies, an op on the
// detached window fails instead of being served from that stale copy,
// whether it was in flight at the death (the owner dropped it) or issued
// after.
TEST(Replication, DetachedWindowIsNotServedFromItsBackup) {
  WorldConfig cfg = repl_cfg(4, 23);
  cfg.faults.schedule = {{/*rank=*/1, /*at=*/400'000}};
  World w(cfg);
  OpStatus in_flight_status = OpStatus::ok;
  OpStatus get_status = OpStatus::ok;
  std::vector<std::uint64_t> in_flight_got;
  std::vector<std::uint64_t> got;
  std::uint64_t retargeted = 0;
  std::uint64_t backup_rereplications = 1;
  bool finished = false;
  w.run([&](Rank& r) {
    const int me = r.id();
    RmaEngine eng(r, r.comm_world());
    auto buf = r.alloc(64);
    const TargetMem mine = eng.attach(buf);
    const auto mems = eng.exchange_all(mine);
    auto src = r.alloc(16);
    if (me == 0) {
      // Mirrored to rank 1's backup, rank 2, before the detach.
      store<std::uint64_t>(r, src.addr, {41, 42});
      eng.put_bytes(src.addr, mems[1], 0, 16, 1,
                    Attrs(RmaAttr::blocking) | RmaAttr::remote_completion);
    }
    eng.complete_collective();
    if (me == 1) {
      eng.detach(mine);
      r.ctx().delay(2'000'000);  // idles until death
      return;
    }
    if (me == 2) {  // the backup outlives the owner, not re-replicating
      r.ctx().delay(700'000);
      backup_rereplications = eng.stats().rereplications;
    }
    if (me != 0) return;
    r.ctx().delay(100'000);  // the detach has reached every rank
    auto early = r.alloc(16);
    store<std::uint64_t>(r, early.addr, {0, 0});
    core::Request pending = eng.get_bytes(early.addr, mems[1], 0, 16, 1);
    pending.wait();  // dropped at the owner: ends with the owner's death
    in_flight_status = pending.status();
    in_flight_got = load<std::uint64_t>(r, early.addr, 2);
    r.ctx().delay(200'000);
    ASSERT_TRUE(eng.target_failed(1));
    store<std::uint64_t>(r, src.addr, {0, 0});
    core::Request g =
        eng.get_bytes(src.addr, mems[1], 0, 16, 1, Attrs(RmaAttr::blocking));
    get_status = g.status();
    got = load<std::uint64_t>(r, src.addr, 2);
    retargeted = eng.stats().retargeted_ops;
    finished = true;
  });
  EXPECT_TRUE(finished);
  EXPECT_EQ(in_flight_status, OpStatus::replica_lost);
  EXPECT_EQ(in_flight_got, (std::vector<std::uint64_t>{0, 0}))
      << "re-driven at the backup";
  EXPECT_EQ(get_status, OpStatus::replica_lost);
  EXPECT_EQ(got, (std::vector<std::uint64_t>{0, 0}))
      << "served from the backup's copy";
  EXPECT_EQ(retargeted, 0u);
  EXPECT_EQ(backup_rereplications, 0u);
}

// ---------------------------------------------------- adversarial orders

// An exhausted succession chain still degrades to replica_lost: with
// backup_offset=2 on four ranks, rank 1's chain is {1, 3} only, so once the
// backup (3) and then the primary (1) are gone there is nowhere left to
// re-replicate and the window is honestly lost.
TEST(Replication, ChainExhaustedAfterBackupThenPrimaryMeansReplicaLost) {
  WorldConfig cfg = repl_cfg(4, 47);
  cfg.replication.backup_offset = 2;  // chain of rank 1 = {1, 3}
  cfg.faults.schedule = {{/*rank=*/3, /*at=*/200'000},
                         {/*rank=*/1, /*at=*/500'000}};
  World w(cfg);
  bool mid_ok = false;
  OpStatus final_status = OpStatus::ok;
  std::uint64_t replica_lost_ops = 0;
  bool finished = false;
  w.run([&](Rank& r) {
    const int me = r.id();
    RmaEngine eng(r, r.comm_world());
    auto [buf, mems] = eng.allocate_shared(64);
    if (me == 1 || me == 3) {
      r.ctx().delay(2'000'000);
      return;
    }
    if (me != 0) return;
    auto src = r.alloc(8);
    r.ctx().delay(250'000);  // backup is now dead, primary alive
    core::Request mid =
        eng.put_bytes(src.addr, mems[1], 0, 8, 1,
                      Attrs(RmaAttr::blocking) | RmaAttr::remote_completion);
    mid_ok = !mid.failed();  // primary still serves; mirroring just stops
    r.ctx().delay(400'000);  // primary is now dead too
    core::Request after =
        eng.put_bytes(src.addr, mems[1], 0, 8, 1,
                      Attrs(RmaAttr::blocking) | RmaAttr::remote_completion);
    final_status = after.status();
    EXPECT_THROW(eng.fetch_add(mems[1], 0, 1, 1), RankFailedError);
    replica_lost_ops = eng.stats().replica_lost_ops;
    eng.complete(core::kAllRanks);
    finished = true;
  });
  EXPECT_TRUE(finished);
  EXPECT_TRUE(mid_ok);
  EXPECT_EQ(final_status, OpStatus::replica_lost);
  EXPECT_GE(replica_lost_ops, 1u);
}

// The multi-crash tentpole: the backup dies first, the surviving primary
// re-replicates to the next chain member (rank 3), and a later crash of the
// primary no longer loses the window — ops retarget to the fresh copy with
// contents (including pre-re-replication writes and RMW state) intact.
TEST(Replication, SecondCrashAfterRereplicationSurvives) {
  WorldConfig cfg = repl_cfg(4, 47);
  cfg.faults.schedule = {{/*rank=*/2, /*at=*/200'000},
                         {/*rank=*/1, /*at=*/500'000}};
  World w(cfg);
  std::uint64_t rerepl = 0, rerepl_bytes = 0;
  std::uint64_t fa_pre = 1, fa_mid = 1, fa_post = 1;
  std::uint64_t probes = 0;
  bool put_post_ok = false;
  std::vector<std::uint64_t> got;
  w.run([&](Rank& r) {
    const int me = r.id();
    RmaEngine eng(r, r.comm_world());
    auto [buf, mems] = eng.allocate_shared(64);
    if (me == 1) {
      // The primary idles; sample its stats after the backup's death but
      // before its own (re-replication fires inside the death cascade).
      r.ctx().delay(300'000);
      rerepl = eng.stats().rereplications;
      rerepl_bytes = eng.stats().rerepl_bytes;
      r.ctx().delay(1'700'000);
      return;
    }
    if (me != 0) return;
    auto src = r.alloc(8);
    // Phase 1 (both copies healthy): a put and an RMW.
    store<std::uint64_t>(r, src.addr, {11});
    eng.put_bytes(src.addr, mems[1], 8, 8, 1,
                  Attrs(RmaAttr::blocking) | RmaAttr::remote_completion);
    fa_pre = eng.fetch_add(mems[1], 0, 5, 1);  // 0 -> 5
    r.ctx().delay(300'000);  // ride through the backup's death
    // Phase 2 (primary alive, fresh backup materialized): mirrors flow to
    // the adopted rank 3.
    store<std::uint64_t>(r, src.addr, {22});
    eng.put_bytes(src.addr, mems[1], 16, 8, 1,
                  Attrs(RmaAttr::blocking) | RmaAttr::remote_completion);
    fa_mid = eng.fetch_add(mems[1], 0, 7, 1);  // 5 -> 12
    r.ctx().delay(300'000);  // ride through the primary's death
    // Phase 3 (primary dead): everything serves from the re-replicated copy.
    store<std::uint64_t>(r, src.addr, {33});
    core::Request p =
        eng.put_bytes(src.addr, mems[1], 24, 8, 1,
                      Attrs(RmaAttr::blocking) | RmaAttr::remote_completion);
    put_post_ok = !p.failed();
    fa_post = eng.fetch_add(mems[1], 0, 9, 1);  // 12 -> 21
    auto dst = r.alloc(32);
    core::Request g =
        eng.get_bytes(dst.addr, mems[1], 0, 32, 1, Attrs(RmaAttr::blocking));
    EXPECT_FALSE(g.failed());
    got = load<std::uint64_t>(r, dst.addr, 4);
    EXPECT_EQ(eng.stats().replica_lost_ops, 0u);
    probes = eng.stats().probes_sent;
  });
  EXPECT_GE(rerepl, 1u) << "backup death must trigger re-replication";
  // Rank 3's copy is past the handle's own owner/backup pair: the chain
  // walk had to probe it before trusting it.
  EXPECT_GT(probes, 0u);
  EXPECT_GE(rerepl_bytes, 64u);
  EXPECT_TRUE(put_post_ok);
  EXPECT_EQ(fa_pre, 0u);
  EXPECT_EQ(fa_mid, 5u);
  EXPECT_EQ(fa_post, 12u) << "RMW state must survive both crashes";
  ASSERT_EQ(got.size(), 4u);
  EXPECT_EQ(got[0], 21u);  // 5 + 7 + 9
  EXPECT_EQ(got[1], 11u);  // phase-1 put, snapshotted into the fresh copy
  EXPECT_EQ(got[2], 22u);  // phase-2 put, mirrored to the fresh copy
  EXPECT_EQ(got[3], 33u);  // phase-3 put, served at the fresh copy
}

// The freshly adopted backup itself dies mid-snapshot: the still-alive
// primary walks further along the chain and re-replicates again, so the
// eventual primary crash still finds a complete copy. Five ranks keep the
// second adoption away from the origin; the 256 KiB window keeps the first
// snapshot burst in flight when its target dies.
TEST(Replication, FreshTargetDiesMidResyncTriggersAnotherRereplication) {
  WorldConfig cfg = repl_cfg(5, 67);
  cfg.faults.schedule = {{/*rank=*/2, /*at=*/200'000},
                         {/*rank=*/3, /*at=*/210'000},
                         {/*rank=*/1, /*at=*/500'000}};
  World w(cfg);
  std::uint64_t rerepl = 0;
  bool put_post_ok = false;
  std::uint64_t got = 0, lost_ops = 0;
  w.run([&](Rank& r) {
    const int me = r.id();
    RmaEngine eng(r, r.comm_world());
    auto [buf, mems] = eng.allocate_shared(256 * 1024);
    if (me == 1) {
      r.ctx().delay(300'000);
      rerepl = eng.stats().rereplications;  // to rank 3, then to rank 4
      r.ctx().delay(1'700'000);
      return;
    }
    if (me != 0) return;
    auto src = r.alloc(8);
    store<std::uint64_t>(r, src.addr, {4242});
    eng.put_bytes(src.addr, mems[1], 8, 8, 1,
                  Attrs(RmaAttr::blocking) | RmaAttr::remote_completion);
    r.ctx().delay(600'000);  // ride through all three crashes
    core::Request p =
        eng.put_bytes(src.addr, mems[1], 16, 8, 1,
                      Attrs(RmaAttr::blocking) | RmaAttr::remote_completion);
    put_post_ok = !p.failed();
    auto dst = r.alloc(8);
    core::Request g =
        eng.get_bytes(dst.addr, mems[1], 8, 8, 1, Attrs(RmaAttr::blocking));
    EXPECT_FALSE(g.failed());
    got = load<std::uint64_t>(r, dst.addr, 1)[0];
    lost_ops = eng.stats().replica_lost_ops;
  });
  EXPECT_GE(rerepl, 2u) << "the dead adoptee must be replaced by the next "
                           "chain member";
  EXPECT_TRUE(put_post_ok);
  EXPECT_EQ(got, 4242u);
  EXPECT_EQ(lost_ops, 0u);
}

// ------------------------------------------------------------- lazy mode

// Lazy recovery: mirrors are logged at the origin but not transmitted, so
// the backup's replica stays untouched while the primary is healthy.
TEST(Replication, LazyModeDefersMirrorTraffic) {
  WorldConfig cfg = repl_cfg(4, 71);
  cfg.replication.mode = runtime::ReplMode::lazy;
  std::uint64_t mirrored[4] = {};
  std::uint64_t applied[4] = {};
  World w(cfg);
  w.run([&](Rank& r) {
    const int me = r.id();
    RmaEngine eng(r, r.comm_world());
    auto [buf, mems] = eng.allocate_shared(64);
    auto src = r.alloc(16);
    store<std::uint64_t>(r, src.addr, {0x1234, 77});
    eng.put_bytes(src.addr, mems[1], 16 * static_cast<std::uint64_t>(me),
                  16, 1,
                  Attrs(RmaAttr::blocking) | RmaAttr::remote_completion);
    eng.fetch_add(mems[1], 0, 1, 1);
    eng.complete_collective();
    r.ctx().delay(200'000);
    eng.order_collective();
    mirrored[me] = eng.stats().mirrored_ops;
    applied[me] = eng.mirrors_applied();
  });
  for (int i = 0; i < 4; ++i) {
    // The write log is maintained exactly like the eager mirror stream...
    EXPECT_EQ(mirrored[i], 2u) << "rank " << i;
    // ...but nothing is transmitted: no replica absorbs anything.
    EXPECT_EQ(applied[i], 0u) << "rank " << i;
  }
}

// Lazy failover: the primary's death triggers the deferred flush; parked
// ops complete through it and the backup then serves intact contents,
// exactly like eager — the difference is only when the bytes moved.
TEST(Replication, LazyFailoverFlushesLogAndServesFromBackup) {
  WorldConfig cfg = repl_cfg(4, 73);
  cfg.replication.mode = runtime::ReplMode::lazy;
  cfg.faults.schedule = {{/*rank=*/1, /*at=*/400'000}};
  World w(cfg);
  std::vector<std::uint64_t> got;
  std::uint64_t fa_before = 1, fa_after = 1;
  std::uint64_t resync_ops = 0, resync_bytes = 0;
  bool put_after_ok = false;
  w.run([&](Rank& r) {
    const int me = r.id();
    RmaEngine eng(r, r.comm_world());
    auto [buf, mems] = eng.allocate_shared(64);
    if (me == 1) {
      r.ctx().delay(2'000'000);
      return;
    }
    if (me != 0) return;
    auto src = r.alloc(32);
    store<std::uint64_t>(r, src.addr, {41, 42, 43, 44});
    eng.put_bytes(src.addr, mems[1], 8, 32, 1,
                  Attrs(RmaAttr::blocking) | RmaAttr::remote_completion);
    fa_before = eng.fetch_add(mems[1], 0, 5, 1);  // 0 -> 5
    eng.complete(1);
    r.ctx().delay(600'000);  // ride through the crash
    ASSERT_TRUE(eng.target_failed(1));
    store<std::uint64_t>(r, src.addr, {99, 0, 0, 0});
    core::Request p =
        eng.put_bytes(src.addr, mems[1], 40, 8, 1,
                      Attrs(RmaAttr::blocking) | RmaAttr::remote_completion);
    put_after_ok = !p.failed();
    fa_after = eng.fetch_add(mems[1], 0, 7, 1);  // 5 -> 12
    auto dst = r.alloc(48);
    core::Request g =
        eng.get_bytes(dst.addr, mems[1], 0, 48, 1, Attrs(RmaAttr::blocking));
    EXPECT_FALSE(g.failed());
    got = load<std::uint64_t>(r, dst.addr, 6);
    resync_ops = eng.stats().resync_ops;
    resync_bytes = eng.stats().resync_bytes;
  });
  EXPECT_TRUE(put_after_ok);
  EXPECT_EQ(fa_before, 0u);
  EXPECT_EQ(fa_after, 5u) << "the deferred log must carry the RMW";
  ASSERT_EQ(got.size(), 6u);
  EXPECT_EQ(got[0], 12u);
  EXPECT_EQ(got[1], 41u);
  EXPECT_EQ(got[2], 42u);
  EXPECT_EQ(got[3], 43u);
  EXPECT_EQ(got[4], 44u);
  EXPECT_EQ(got[5], 99u);
  // The whole pre-crash log (put + rmw) moved at failover, not before.
  EXPECT_GE(resync_ops, 2u);
  EXPECT_GE(resync_bytes, 32u);
}

TEST(Replication, PrimaryAndBackupDieSameTick) {
  WorldConfig cfg = repl_cfg(4, 53);
  cfg.faults.schedule = {{/*rank=*/1, /*at=*/300'000},
                         {/*rank=*/2, /*at=*/300'000}};
  World w(cfg);
  bool finished = false;
  std::uint64_t failed = 0, oks = 0;
  w.run([&](Rank& r) {
    const int me = r.id();
    RmaEngine eng(r, r.comm_world());
    auto [buf, mems] = eng.allocate_shared(64);
    if (me == 1 || me == 2) {
      r.ctx().delay(2'000'000);
      return;
    }
    if (me != 0) return;
    auto src = r.alloc(8);
    std::vector<core::Request> reqs;
    for (int i = 0; i < 30; ++i) {
      reqs.push_back(eng.put_bytes(src.addr, mems[1], 0, 8, 1,
                                   Attrs(RmaAttr::remote_completion)));
      r.ctx().delay(15'000);
    }
    for (auto& q : reqs) {
      q.wait();  // must not hang: both copies are gone
      if (q.failed()) {
        ++failed;
      } else {
        ++oks;
      }
    }
    eng.complete(core::kAllRanks);
    finished = true;
  });
  EXPECT_TRUE(finished) << "double death must degrade, not deadlock";
  EXPECT_GT(failed, 0u);  // everything from the crash on is unservable
  EXPECT_GT(oks, 0u);     // pre-crash ops completed normally
}

// Backup dies while a failover re-sync / rescue is pending: parked ops and
// queued get re-issues must fail with replica_lost instead of waiting for
// an ack that can never come. The 256 KiB window makes the acting primary's
// re-replication snapshot burst take ~37us of wire time, so the second
// crash at +18us provably lands mid-materialization: the half-built copy on
// rank 3 must refuse probes and the window is honestly lost.
TEST(Replication, BackupDiesDuringFailoverResync) {
  WorldConfig cfg = repl_cfg(4, 61);
  cfg.faults.schedule = {{/*rank=*/1, /*at=*/300'000},
                         {/*rank=*/2, /*at=*/318'000}};
  World w(cfg);
  bool finished = false;
  std::uint64_t failed = 0;
  w.run([&](Rank& r) {
    const int me = r.id();
    RmaEngine eng(r, r.comm_world());
    auto [buf, mems] = eng.allocate_shared(256 * 1024);
    if (me == 1 || me == 2) {
      r.ctx().delay(2'000'000);
      return;
    }
    if (me != 0) return;
    auto src = r.alloc(8);
    auto dst = r.alloc(8);
    std::vector<core::Request> reqs;
    for (int i = 0; i < 40; ++i) {
      reqs.push_back(eng.put_bytes(src.addr, mems[1], 0, 8, 1,
                                   Attrs(RmaAttr::remote_completion)));
      reqs.push_back(eng.get_bytes(dst.addr, mems[1], 0, 8, 1));
      r.ctx().delay(9'000);
    }
    for (auto& q : reqs) {
      q.wait();
      if (q.failed()) ++failed;
    }
    eng.complete(core::kAllRanks);
    finished = true;
  });
  EXPECT_TRUE(finished) << "crash during re-sync must not hang the origin";
  EXPECT_GT(failed, 0u);
}

// ------------------------------------------------------------ determinism

// Two runs of the same crash schedule produce byte-identical survivor
// state: same duration, same op statistics, same replica-served contents.
TEST(Replication, CrashScheduleReplaysByteIdentically) {
  struct Outcome {
    sim::Time duration = 0;
    std::vector<std::uint64_t> survivor_bytes;
    std::uint64_t mirrored = 0, rescued = 0, reissued = 0, retargeted = 0;
    std::uint64_t resync_ops = 0, resync_bytes = 0, replica_lost = 0;
    std::uint64_t applied_at_backup = 0;
    bool operator==(const Outcome&) const = default;
  };
  auto run_once = [] {
    WorldConfig cfg = repl_cfg(4, 101);
    cfg.faults.schedule = {{/*rank=*/1, /*at=*/300'000}};
    World w(cfg);
    Outcome o;
    w.run([&](Rank& r) {
      const int me = r.id();
      RmaEngine eng(r, r.comm_world());
      auto [buf, mems] = eng.allocate_shared(128);
      if (me == 1) {
        r.ctx().delay(2'000'000);
        return;
      }
      if (me == 2) {  // the backup: report what its replica absorbed
        r.ctx().delay(1'500'000);
        o.applied_at_backup = eng.mirrors_applied();
        return;
      }
      if (me != 0) return;
      auto src = r.alloc(8);
      auto dst = r.alloc(64);
      std::vector<core::Request> reqs;
      for (int i = 0; i < 30; ++i) {
        store<std::uint64_t>(r, src.addr,
                             {0xab00ull + static_cast<std::uint64_t>(i)});
        reqs.push_back(eng.put_bytes(
            src.addr, mems[1], 8 * static_cast<std::uint64_t>(i % 8), 8, 1,
            Attrs(RmaAttr::remote_completion) | RmaAttr::ordering));
        r.ctx().delay(12'000);
      }
      for (auto& q : reqs) q.wait();
      eng.fetch_add(mems[1], 64, 3, 1);
      core::Request g =
          eng.get_bytes(dst.addr, mems[1], 0, 64, 1,
                        Attrs(RmaAttr::blocking));
      EXPECT_FALSE(g.failed());
      o.survivor_bytes = load<std::uint64_t>(r, dst.addr, 8);
      o.mirrored = eng.stats().mirrored_ops;
      o.rescued = eng.stats().rescued_ops;
      o.reissued = eng.stats().reissued_gets;
      o.retargeted = eng.stats().retargeted_ops;
      o.resync_ops = eng.stats().resync_ops;
      o.resync_bytes = eng.stats().resync_bytes;
      o.replica_lost = eng.stats().replica_lost_ops;
      eng.complete(core::kAllRanks);
    });
    o.duration = w.duration();
    return o;
  };
  const Outcome a = run_once();
  const Outcome b = run_once();
  EXPECT_TRUE(a == b) << "same seed + same crash schedule must replay "
                         "byte-identically";
  EXPECT_EQ(a.survivor_bytes.size(), 8u);
  EXPECT_GT(a.mirrored, 0u);
}

// Unordered network: mirrors may arrive out of per-origin order; the backup
// holds gaps and applies in sequence, so the replica content a failover get
// observes equals what the origin stream wrote. The puts go out back to
// back, so their mirrors leave a few hundred ns apart and the 3 us jitter
// reorders some of them (blocking puts would space them a round trip
// apart, and nothing would ever be held).
TEST(Replication, UnorderedNetworkMirrorsApplyInStreamOrder) {
  WorldConfig cfg = repl_cfg(4, 71);
  cfg.caps.ordered_delivery = false;
  cfg.faults.schedule = {{/*rank=*/1, /*at=*/500'000}};
  World w(cfg);
  std::vector<std::uint64_t> got;
  w.run([&](Rank& r) {
    const int me = r.id();
    RmaEngine eng(r, r.comm_world());
    auto [buf, mems] = eng.allocate_shared(128);
    if (me == 1) {
      r.ctx().delay(2'000'000);
      return;
    }
    if (me != 0) return;
    auto src = r.alloc(8 * 16);
    // Distinct values to distinct slots, issued without waiting, all
    // remote-complete before the crash.
    std::vector<core::Request> reqs;
    for (int i = 0; i < 16; ++i) {
      const std::uint64_t at = src.addr + 8 * static_cast<std::uint64_t>(i);
      store<std::uint64_t>(r, at, {0x1000ull + static_cast<std::uint64_t>(i)});
      reqs.push_back(eng.put_bytes(at, mems[1],
                                   8 * static_cast<std::uint64_t>(i), 8, 1,
                                   Attrs(RmaAttr::remote_completion)));
    }
    for (auto& q : reqs) {
      q.wait();
      EXPECT_FALSE(q.failed());
    }
    eng.complete(1);
    r.ctx().delay(700'000);  // crash + detection
    auto dst = r.alloc(128);
    core::Request g =
        eng.get_bytes(dst.addr, mems[1], 0, 128, 1, Attrs(RmaAttr::blocking));
    ASSERT_FALSE(g.failed());
    got = load<std::uint64_t>(r, dst.addr, 16);
  });
  ASSERT_EQ(got.size(), 16u);
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(got[i], 0x1000ull + i) << "slot " << i;
  }
}

// ------------------------------------------- coarse lock across failover

// The coarse-lock serializer runs an atomic op as one locked sequence at
// the primary: lock, read, combine, write, release. When the primary dies
// mid-sequence the op must apply exactly once at the surviving copy and
// report ok. Before the write is issued nothing has been applied, so the
// sequence runs again at the acting primary under that primary's lock;
// after it, the write's mirror carries the op. Issue times sweep the 40 us
// before the death at 400 us, so the death lands at different steps of the
// sequence (for the 64 KiB accumulate without NIC atomics: in the read at
// 360-390 us, after the write is issued at 394-399.5 us). Without NIC
// atomics the accumulate and fetch_add are a locked get-modify-put; with
// them the accumulate is one locked NIC atomic write, and fetch_add a NIC
// fetch-atomic outside the lock.
enum class LockedOp { accumulate, fetch_add };

class CoarseLockFailover
    : public ::testing::TestWithParam<std::tuple<bool, LockedOp, sim::Time>> {
};

TEST_P(CoarseLockFailover, AppliesExactlyOnceAtSurvivingCopy) {
  const auto [nic_atomics, kind, issue_at] = GetParam();
  WorldConfig cfg = repl_cfg(4, 14);
  cfg.caps.native_atomics = nic_atomics;
  cfg.faults.schedule = {{/*rank=*/1, /*at=*/400'000}};
  World w(cfg);
  constexpr std::uint64_t kElems = 8192;
  bool ok = false;
  std::uint64_t old = ~0ull;
  std::vector<std::uint64_t> got;
  w.run([&](Rank& r) {
    core::EngineConfig ec;
    ec.serializer = core::SerializerKind::coarse_lock;
    RmaEngine eng(r, r.comm_world(), ec);
    auto [buf, mems] = eng.allocate_shared(8 * kElems);
    if (r.id() == 1) {  // victim idles until death
      r.ctx().delay(2'000'000);
      return;
    }
    if (r.id() != 0) return;
    auto src = r.alloc(8 * kElems);
    store(r, src.addr, std::vector<std::uint64_t>(kElems, 1));
    ASSERT_LT(r.ctx().now(), issue_at);
    r.ctx().delay(issue_at - r.ctx().now());
    if (kind == LockedOp::accumulate) {
      const auto i64 = dt::Datatype::int64();
      core::Request q = eng.accumulate(
          portals::AccOp::sum, src.addr, kElems, i64, mems[1], 0, kElems, i64,
          1,
          Attrs(RmaAttr::atomicity) | RmaAttr::blocking |
              RmaAttr::remote_completion);
      ok = !q.failed();
    } else {
      old = eng.fetch_add(mems[1], 0, 1, 1);  // throws unless it applied
      ok = true;
    }
    if (r.ctx().now() < 800'000) r.ctx().delay(800'000 - r.ctx().now());
    ASSERT_TRUE(eng.target_failed(1));
    const std::uint64_t words = kind == LockedOp::accumulate ? kElems : 1;
    auto dst = r.alloc(8 * words);
    core::Request g = eng.get_bytes(dst.addr, mems[1], 0, 8 * words, 1,
                                    Attrs(RmaAttr::blocking));
    ASSERT_FALSE(g.failed());
    got = load<std::uint64_t>(r, dst.addr, words);
  });
  EXPECT_TRUE(ok);
  if (kind == LockedOp::fetch_add) {
    EXPECT_EQ(old, 0u);
  }
  ASSERT_FALSE(got.empty());
  EXPECT_EQ(got[0], 1u) << "the op applied "
                        << (got[0] == 0 ? "never" : "more than once");
  EXPECT_EQ(std::count(got.begin(), got.end(), 1ull),
            static_cast<std::ptrdiff_t>(got.size()));
}

INSTANTIATE_TEST_SUITE_P(
    ExactlyOnce, CoarseLockFailover,
    ::testing::Combine(::testing::Bool(),
                       ::testing::Values(LockedOp::accumulate,
                                         LockedOp::fetch_add),
                       ::testing::Values<sim::Time>(340'212, 360'000,
                                                    380'000, 381'171, 390'000,
                                                    390'310, 394'000, 398'000,
                                                    399'500)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) ? "Nic" : "NoNic") +
             (std::get<1>(info.param) == LockedOp::accumulate ? "Accumulate"
                                                              : "FetchAdd") +
             "At" + std::to_string(std::get<2>(info.param)) + "ns";
    });

// An unlocked op whose primary dies during the op's own injection: the
// failure detector leaves the request to issue_blocks, which decides its
// failover once the data packet and the mirror are out — rescued through
// the mirror, never issued a second time at the backup. One blocking
// remote-completion accumulate(sum, +1) of 8,192 int64 under the comm
// thread; the issue times at 399,701-399,995 ns put the death at 400 us
// inside its 300 ns injection, 398,000 ns is a control that is on the wire
// by then. In lazy mode the mirror, logged after the failover re-sync, must
// still go out, or the rescued op waits for its ack forever.
class MidInjectionFailover
    : public ::testing::TestWithParam<std::tuple<bool, bool, sim::Time>> {};

TEST_P(MidInjectionFailover, AppliesExactlyOnceAtSurvivingCopy) {
  const auto [nic_atomics, lazy, issue_at] = GetParam();
  WorldConfig cfg = repl_cfg(4, 14);
  cfg.caps.native_atomics = nic_atomics;
  if (lazy) cfg.replication.mode = runtime::ReplMode::lazy;
  cfg.faults.schedule = {{/*rank=*/1, /*at=*/400'000}};
  World w(cfg);
  constexpr std::uint64_t kElems = 8192;
  OpStatus status = OpStatus::target_failed;
  std::uint64_t rescued = 0;
  std::vector<std::uint64_t> got;
  w.run([&](Rank& r) {
    core::EngineConfig ec;
    ec.serializer = core::SerializerKind::comm_thread;
    RmaEngine eng(r, r.comm_world(), ec);
    auto [buf, mems] = eng.allocate_shared(8 * kElems);
    if (r.id() == 1) {  // victim idles until death
      r.ctx().delay(2'000'000);
      return;
    }
    if (r.id() != 0) return;
    auto src = r.alloc(8 * kElems);
    store(r, src.addr, std::vector<std::uint64_t>(kElems, 1));
    ASSERT_LT(r.ctx().now(), issue_at);
    r.ctx().delay(issue_at - r.ctx().now());
    const auto i64 = dt::Datatype::int64();
    status = eng.accumulate(portals::AccOp::sum, src.addr, kElems, i64,
                            mems[1], 0, kElems, i64, 1,
                            Attrs(RmaAttr::blocking) |
                                RmaAttr::remote_completion)
                 .status();
    rescued = eng.stats().rescued_ops;
    if (r.ctx().now() < 800'000) r.ctx().delay(800'000 - r.ctx().now());
    ASSERT_TRUE(eng.target_failed(1));
    auto dst = r.alloc(8 * kElems);
    core::Request g = eng.get_bytes(dst.addr, mems[1], 0, 8 * kElems, 1,
                                    Attrs(RmaAttr::blocking));
    ASSERT_FALSE(g.failed());
    got = load<std::uint64_t>(r, dst.addr, kElems);
  });
  EXPECT_EQ(status, OpStatus::ok);
  EXPECT_EQ(rescued, 1u) << "completed through its mirror";
  ASSERT_EQ(got.size(), kElems);
  EXPECT_EQ(got[0], 1u) << "the op applied "
                        << (got[0] == 0 ? "never" : "more than once");
  EXPECT_EQ(std::count(got.begin(), got.end(), 1ull),
            static_cast<std::ptrdiff_t>(got.size()));
}

INSTANTIATE_TEST_SUITE_P(
    ExactlyOnce, MidInjectionFailover,
    ::testing::Combine(::testing::Bool(), ::testing::Bool(),
                       ::testing::Values<sim::Time>(398'000, 399'701, 399'848,
                                                    399'995)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) ? "Nic" : "NoNic") +
             (std::get<1>(info.param) ? "Lazy" : "Eager") + "At" +
             std::to_string(std::get<2>(info.param)) + "ns";
    });

// A local-completion put_notify still pending when its primary dies: its
// SEND events complete it, its mirror carries the data, and the rescue
// re-arms its notification at the backup (the first case of
// Replication::rescue). Issued at 399,848 ns the death cuts its injection
// (issue_blocks decides); issued at 390,000 ns its 64 KiB are on the wire
// and the failure detector's drain decides. Either way the backup's queue
// sees the tag exactly once and the backup holds the data.
class LocalNotifyFailover : public ::testing::TestWithParam<sim::Time> {};

TEST_P(LocalNotifyFailover, NotifiesOnceAtBackup) {
  const sim::Time issue_at = GetParam();
  WorldConfig cfg = repl_cfg(4, 14);
  cfg.faults.schedule = {{/*rank=*/1, /*at=*/400'000}};
  World w(cfg);
  constexpr std::uint64_t kBytes = 64 * 1024;
  constexpr std::uint32_t kTag = 77;
  OpStatus status = OpStatus::target_failed;
  std::uint64_t rearmed = 0, dropped = 0;
  std::vector<std::uint32_t> tags;
  std::vector<std::uint8_t> got;
  w.run([&](Rank& r) {
    RmaEngine eng(r, r.comm_world());
    auto [buf, mems] = eng.allocate_shared(kBytes);
    if (r.id() == 1) {  // victim idles until death
      r.ctx().delay(2'000'000);
      return;
    }
    if (r.id() == 0) {
      auto src = r.alloc(kBytes);
      store(r, src.addr, std::vector<std::uint8_t>(kBytes, 0x5a));
      ASSERT_LT(r.ctx().now(), issue_at);
      r.ctx().delay(issue_at - r.ctx().now());
      core::Request q = eng.put_notify(src.addr, mems[1], 0, kBytes, 1, kTag);
      // No progress until the death is known: the request is still pending
      // when the failure detector runs.
      if (r.ctx().now() < 420'000) r.ctx().delay(420'000 - r.ctx().now());
      q.wait();
      status = q.status();
      rearmed = eng.stats().notifies_rearmed;
      auto dst = r.alloc(kBytes);
      core::Request g = eng.get_bytes(dst.addr, mems[1], 0, kBytes, 1,
                                      Attrs(RmaAttr::blocking));
      ASSERT_FALSE(g.failed());
      got = load<std::uint8_t>(r, dst.addr, kBytes);
    }
    if (r.id() == 2) {  // the backup: drain its copy's queue
      r.ctx().delay(1'500'000);
      auto& q = eng.notify_queue(mems[1]);
      while (auto n = q.poll()) tags.push_back(n->tag);
      dropped = eng.stats().notifies_dropped;
    }
    eng.complete_collective();
  });
  EXPECT_EQ(status, OpStatus::ok);
  EXPECT_EQ(rearmed, 1u);
  EXPECT_EQ(dropped, 0u);
  EXPECT_EQ(tags, std::vector<std::uint32_t>{kTag});
  ASSERT_EQ(got.size(), kBytes);
  EXPECT_EQ(std::count(got.begin(), got.end(), std::uint8_t{0x5a}),
            static_cast<std::ptrdiff_t>(kBytes));
}

INSTANTIATE_TEST_SUITE_P(ExactlyOnce, LocalNotifyFailover,
                         ::testing::Values<sim::Time>(390'000, 399'848),
                         [](const auto& info) {
                           return "At" + std::to_string(info.param) + "ns";
                         });

// ------------------------------------------- multi-crash regressions

// An RMW stream ridden straight through the backup's death, with the
// primary dying later: every increment applied at the primary must reach
// the re-replicated copy. Two repair paths are on trial — an RMW whose
// reply lands just after the backup died (no mirror destination at reply
// time), and RMW mirrors already logged toward the now-dead backup (a
// semantic replay could double-apply against the fresh snapshot) — both
// must re-publish the post-RMW word through the live primary instead of
// being dropped or replayed.
void rmw_conserved_across_backup_then_primary_death(runtime::ReplMode mode) {
  WorldConfig cfg = repl_cfg(4, 83);
  cfg.replication.mode = mode;
  cfg.faults.schedule = {{/*rank=*/2, /*at=*/400'000},
                         {/*rank=*/1, /*at=*/800'000}};
  World w(cfg);
  constexpr std::uint64_t kIncrs = 20;
  std::uint64_t total = 0, lost_ops = 1;
  std::vector<std::uint64_t> got;
  w.run([&](Rank& r) {
    const int me = r.id();
    RmaEngine eng(r, r.comm_world());
    auto [buf, mems] = eng.allocate_shared(64);
    if (me == 1 || me == 2) {
      r.ctx().delay(2'000'000);  // victims idle until their scheduled death
      return;
    }
    if (me == 3) {
      r.ctx().delay(2'000'000);  // stays alive: the adopted serving copy
      return;
    }
    auto src = r.alloc(8);
    store<std::uint64_t>(r, src.addr, {0xfeed});
    eng.put_bytes(src.addr, mems[1], 8, 8, 1,
                  Attrs(RmaAttr::blocking) | RmaAttr::remote_completion);
    r.ctx().delay(300'000);
    // Blocking increments paced across the backup's death at t=400us: some
    // mirror normally, some are in flight at the crash, some sit in the
    // dead-letter ledger when detection lands.
    for (std::uint64_t i = 0; i < kIncrs; ++i) {
      eng.fetch_add(mems[1], 0, 1, 1);
      r.ctx().delay(10'000);
    }
    r.ctx().delay(600'000);  // ride through the primary's death at t=800us
    total = eng.fetch_add(mems[1], 0, 0, 1);
    auto dst = r.alloc(8);
    core::Request g =
        eng.get_bytes(dst.addr, mems[1], 8, 8, 1, Attrs(RmaAttr::blocking));
    EXPECT_FALSE(g.failed());
    got = load<std::uint64_t>(r, dst.addr, 1);
    lost_ops = eng.stats().replica_lost_ops;
  });
  EXPECT_EQ(total, kIncrs)
      << "an acked increment vanished across the double crash";
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], 0xfeedu);
  EXPECT_EQ(lost_ops, 0u);
}

TEST(Replication, EagerRmwConservedAcrossBackupThenPrimaryDeath) {
  rmw_conserved_across_backup_then_primary_death(runtime::ReplMode::eager);
}

TEST(Replication, LazyRmwConservedAcrossBackupThenPrimaryDeath) {
  rmw_conserved_across_backup_then_primary_death(runtime::ReplMode::lazy);
}

// Accumulates take the same trial: dead-letter accumulate mirrors toward
// the crashed backup must repair by a region forward through the live
// primary, never by replay — a re-sent mirror is gated behind the fresh
// backup's snapshot, which already carries the effect whenever the primary
// applied the op before the cut, and apply_acc is not idempotent, so a
// replay double-counts. Pacing increments across the backup's death leaves
// mirrors in every ledger state (acked, in flight at the crash, logged
// after detection); the survivor's total must be exactly one apply each.
void acc_conserved_across_backup_then_primary_death(runtime::ReplMode mode,
                                                    std::uint64_t pace_ns) {
  WorldConfig cfg = repl_cfg(4, 83);
  cfg.replication.mode = mode;
  cfg.faults.schedule = {{/*rank=*/2, /*at=*/400'000},
                         {/*rank=*/1, /*at=*/800'000}};
  World w(cfg);
  constexpr std::uint64_t kIncrs = 20;
  std::uint64_t total = 0, lost_ops = 1;
  std::vector<std::uint64_t> got;
  w.run([&](Rank& r) {
    const int me = r.id();
    RmaEngine eng(r, r.comm_world());
    auto [buf, mems] = eng.allocate_shared(64);
    if (me != 0) {
      r.ctx().delay(2'000'000);  // victims idle; rank 3 serves to the end
      return;
    }
    const auto i64 = dt::Datatype::int64();
    auto src = r.alloc(8);
    store<std::uint64_t>(r, src.addr, {0xacc});
    eng.put_bytes(src.addr, mems[1], 8, 8, 1,
                  Attrs(RmaAttr::blocking) | RmaAttr::remote_completion);
    store<std::uint64_t>(r, src.addr, {1});
    r.ctx().delay(350'000);
    // Nonblocking +1 accumulates paced tighter than the mirror-ack round
    // trip, straddling the backup's death at t=400us: several mirrors are
    // unacked at the origin while their op is already applied at the
    // primary — i.e. inside the snapshot cut — which is exactly the state
    // a replay-based repair double-counts.
    std::vector<core::Request> accs;
    for (std::uint64_t i = 0; i < kIncrs; ++i) {
      accs.push_back(eng.accumulate(portals::AccOp::sum, src.addr, 1, i64,
                                    mems[1], 0, 1, i64, 1,
                                    Attrs(RmaAttr::remote_completion)));
      r.ctx().delay(pace_ns);
    }
    for (auto& q : accs) {
      q.wait();
      EXPECT_FALSE(q.failed());
    }
    r.ctx().delay(600'000);  // ride through the primary's death at t=800us
    total = eng.fetch_add(mems[1], 0, 0, 1);
    auto dst = r.alloc(8);
    core::Request g =
        eng.get_bytes(dst.addr, mems[1], 8, 8, 1, Attrs(RmaAttr::blocking));
    EXPECT_FALSE(g.failed());
    got = load<std::uint64_t>(r, dst.addr, 1);
    lost_ops = eng.stats().replica_lost_ops;
  });
  EXPECT_EQ(total, kIncrs)
      << "an accumulate was double-applied or lost across the double crash";
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], 0xaccu);
  EXPECT_EQ(lost_ops, 0u);
}

TEST(Replication, EagerAccumulateConservedAcrossBackupThenPrimaryDeath) {
  acc_conserved_across_backup_then_primary_death(runtime::ReplMode::eager,
                                                 3'000);
}

TEST(Replication, LazyAccumulateConservedAcrossBackupThenPrimaryDeath) {
  acc_conserved_across_backup_then_primary_death(runtime::ReplMode::lazy,
                                                 3'000);
}

// At 1us pacing an accumulate's issue straddles the backup-death event
// itself: the issue path resolves the backup, yields inside the data
// packet's injection, the failure event repairs and erases that backup's
// ledger, and the resumed issue would log its mirror into a recreated
// orphan ledger that no repair or re-sync ever visits — losing the op at
// the primary's death. The fix reroutes the straddler through the
// idempotent region forward.
TEST(Replication, EagerAccumulateConservedWhenIssueStraddlesBackupDeath) {
  acc_conserved_across_backup_then_primary_death(runtime::ReplMode::eager,
                                                 1'000);
}

TEST(Replication, LazyAccumulateConservedWhenIssueStraddlesBackupDeath) {
  acc_conserved_across_backup_then_primary_death(runtime::ReplMode::lazy,
                                                 1'000);
}

// Lazy double crash where the adopted backup was itself the writer: rank
// 3's pre-crash puts sit deferred in its own log; at the primary's death
// it flushes them to the acting primary (rank 2), which adopts rank 3 as
// its fresh backup. The acting primary must echo those applied mirrors
// back to rank 3 — an origin populates its replica only through incoming
// ledger streams, never its own outgoing log — or rank 2's later death
// leaves a copy missing exactly the adoptee's own writes.
TEST(Replication, LazyAdopteeIsEchoedItsOwnResyncedWrites) {
  WorldConfig cfg = repl_cfg(4, 89);
  cfg.replication.mode = runtime::ReplMode::lazy;
  cfg.faults.schedule = {{/*rank=*/1, /*at=*/400'000},
                         {/*rank=*/2, /*at=*/800'000}};
  World w(cfg);
  std::vector<std::uint64_t> got;
  std::uint64_t lost_ops = 1;
  std::uint64_t forwarded[4] = {};  // OpStats::forwarded_mirrors
  w.run([&](Rank& r) {
    const int me = r.id();
    RmaEngine eng(r, r.comm_world());
    auto [buf, mems] = eng.allocate_shared(64);
    if (me == 1 || me == 2) {
      // Rank 2 acts as primary between the crashes (400 and 800 us): read
      // its relay count before it dies too.
      r.ctx().delay(600'000);
      forwarded[me] = eng.stats().forwarded_mirrors;
      r.ctx().delay(1'400'000);
      return;
    }
    if (me == 3) {
      // The writer — and, after both crashes, the only surviving copy.
      auto src = r.alloc(8);
      for (std::uint64_t i = 0; i < 8; ++i) {
        store<std::uint64_t>(r, src.addr, {0x3000 + i});
        eng.put_bytes(src.addr, mems[1], 8 * i, 8, 1,
                      Attrs(RmaAttr::blocking) | RmaAttr::remote_completion);
      }
      eng.complete(1);
      r.ctx().delay(2'000'000);  // serve the adopted replica to the end
      return;
    }
    r.ctx().delay(1'200'000);  // past both crashes and the echo traffic
    auto dst = r.alloc(64);
    core::Request g =
        eng.get_bytes(dst.addr, mems[1], 0, 64, 1, Attrs(RmaAttr::blocking));
    EXPECT_FALSE(g.failed());
    got = load<std::uint64_t>(r, dst.addr, 8);
    lost_ops = eng.stats().replica_lost_ops;
  });
  // The echo itself: acting primary 2 relayed the resynced mirrors that
  // reached it as the old backup on to the adoptee.
  EXPECT_GT(forwarded[2], 0u);
  ASSERT_EQ(got.size(), 8u);
  for (std::uint64_t i = 0; i < 8; ++i) {
    EXPECT_EQ(got[i], 0x3000 + i) << "slot " << i
                                  << ": the adoptee's own write must survive";
  }
  EXPECT_EQ(lost_ops, 0u);
}

}  // namespace
}  // namespace m3rma
