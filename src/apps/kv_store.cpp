#include "apps/kv_store.hpp"

#include <cstring>
#include <string>

#include "common/byteorder.hpp"
#include "common/diagnostics.hpp"
#include "common/rng.hpp"

namespace m3rma::apps {

namespace {

std::uint64_t u64_at(const std::byte* p, Endian e) {
  std::uint64_t v;
  std::memcpy(&v, p, 8);
  if (e != host_endian()) {
    swap_element(reinterpret_cast<std::byte*>(&v), 8);
  }
  return v;
}

/// Value updates carry the atomicity attribute (target-side serializer) so
/// concurrent writers to one slot never interleave bytes.
constexpr core::Attrs kPutAttrs =
    core::RmaAttr::remote_completion | core::RmaAttr::atomicity;

}  // namespace

KvStore::KvStore(runtime::Rank& rank, core::RmaEngine& eng, KvConfig cfg)
    : rank_(&rank), eng_(&eng), cfg_(cfg) {
  M3RMA_REQUIRE(cfg_.servers >= 1 && cfg_.servers <= eng.comm().size(),
                "KvStore needs 1..comm_size server ranks");
  M3RMA_REQUIRE(cfg_.slots_per_shard >= 1, "KvStore needs at least one slot");
  M3RMA_REQUIRE(cfg_.key_space >= 1, "KvStore needs a nonempty key space");
  core::TargetMem mine;  // invalid on client ranks
  if (is_server()) {
    const std::uint64_t bytes =
        kMetaBytes + cfg_.slots_per_shard * slot_stride();
    shard_buf_ = rank_->alloc(bytes);
    std::memset(shard_buf_.data, 0, shard_buf_.size);
    mine = eng_->attach(shard_buf_.addr, shard_buf_.size);
  }
  shards_ = eng_->exchange_all(mine);
}

int KvStore::shard_of(std::uint64_t key) const {
  M3RMA_REQUIRE(key < cfg_.key_space, "key outside the configured key space");
  const auto servers = static_cast<std::uint64_t>(cfg_.servers);
  if (cfg_.sharding == Sharding::hash) {
    return static_cast<int>(mix64(key) % servers);
  }
  const std::uint64_t span = (cfg_.key_space + servers - 1) / servers;
  return static_cast<int>(std::min(key / span, servers - 1));
}

std::uint64_t KvStore::home_slot(std::uint64_t key) const {
  // Decorrelated from shard_of's hash so range and hash sharding spread
  // keys inside a shard the same way.
  return mix64(key ^ 0x9e3779b97f4a7c15ULL) % cfg_.slots_per_shard;
}

std::uint64_t KvStore::read_scratch_u64(std::uint64_t addr, int shard) const {
  return u64_at(rank_->memory().raw(addr), shards_[shard].endian);
}

std::uint64_t KvStore::scratch_acquire() {
  if (!scratch_free_.empty()) {
    const std::uint64_t addr = scratch_free_.back();
    scratch_free_.pop_back();
    return addr;
  }
  return rank_->memory().alloc(slot_stride());
}

void KvStore::scratch_release(std::uint64_t addr) {
  scratch_free_.push_back(addr);
}

KvOutcome KvStore::drain_failure(const core::Request& req) {
  stats_.failed += 1;
  if (req.status() == core::OpStatus::replica_lost) {
    stats_.lost += 1;
    return KvOutcome::lost;
  }
  return KvOutcome::failed;
}

KvOutcome KvStore::locate(std::uint64_t key, std::uint32_t* slot_out) {
  const int shard = shard_of(key);
  const std::uint64_t home = home_slot(key);
  const std::uint64_t scratch = scratch_acquire();
  for (int p = 0; p < kMaxProbes; ++p) {
    const auto slot = static_cast<std::uint32_t>(
        (home + static_cast<std::uint64_t>(p)) % cfg_.slots_per_shard);
    if (p > 0) stats_.probes += 1;
    core::Request req = eng_->get_bytes(scratch, shards_[shard],
                                        slot_off(slot), 8, shard);
    req.wait();
    if (req.failed()) {
      scratch_release(scratch);
      return drain_failure(req);
    }
    const std::uint64_t tag = read_scratch_u64(scratch, shard);
    if (tag == tag_of(key)) {
      scratch_release(scratch);
      cache_[key] = Loc{slot};
      *slot_out = slot;
      return KvOutcome::hit;
    }
    if (tag == 0) break;  // open addressing: an empty slot ends the chain
  }
  scratch_release(scratch);
  return KvOutcome::miss;
}

KvOutcome KvStore::claim(std::uint64_t key, std::uint32_t* slot_out) {
  const int shard = shard_of(key);
  const std::uint64_t home = home_slot(key);
  for (int p = 0; p < kMaxProbes; ++p) {
    const auto slot = static_cast<std::uint32_t>(
        (home + static_cast<std::uint64_t>(p)) % cfg_.slots_per_shard);
    if (p > 0) stats_.probes += 1;
    core::Request cas =
        eng_->start_rmw(portals::RmwOp::compare_swap, shards_[shard],
                        slot_off(slot), 0, tag_of(key), shard);
    cas.wait();
    if (cas.failed()) return drain_failure(cas);
    if (cas.rmw_value() == 0) {
      // Claimed: account the slot before publishing any value bytes.
      core::Request occ = eng_->start_rmw(
          portals::RmwOp::fetch_add, shards_[shard], kOccupancyOff, 1, 0, shard);
      occ.wait();
      if (occ.failed()) return drain_failure(occ);
      cache_[key] = Loc{slot};
      *slot_out = slot;
      return KvOutcome::inserted;
    }
    if (cas.rmw_value() == tag_of(key)) {
      cache_[key] = Loc{slot};
      *slot_out = slot;
      return KvOutcome::updated;
    }
    stats_.cas_conflicts += 1;  // another key's claim occupies this slot
  }
  return KvOutcome::overflow;
}

KvOutcome KvStore::put(std::uint64_t key, std::span<const std::byte> value) {
  M3RMA_REQUIRE(value.size() == cfg_.value_bytes,
                "put value must be exactly value_bytes long");
  stats_.puts += 1;
  bool claimed = false;
  auto it = cache_.find(key);
  std::uint32_t slot = 0;
  if (it != cache_.end()) {
    stats_.cache_hits += 1;
    slot = it->second.slot;
  } else {
    const KvOutcome c = claim(key, &slot);
    if (c == KvOutcome::overflow) {
      stats_.overflows += 1;
      return KvOutcome::overflow;
    }
    if (is_failure(c)) return c;
    claimed = c == KvOutcome::inserted;
  }
  const int shard = shard_of(key);
  const std::uint64_t scratch = scratch_acquire();
  std::memcpy(rank_->memory().raw(scratch), value.data(), value.size());
  core::Request req = eng_->put_bytes(scratch, shards_[shard],
                                      slot_off(slot) + 16, cfg_.value_bytes,
                                      shard, kPutAttrs);
  req.wait();
  scratch_release(scratch);
  if (req.failed()) {
    return drain_failure(req);
  }
  if (claimed) {
    stats_.inserts += 1;
    return KvOutcome::inserted;
  }
  stats_.updates += 1;
  return KvOutcome::updated;
}

KvOutcome KvStore::get(std::uint64_t key, std::span<std::byte> out) {
  stats_.gets += 1;
  auto it = cache_.find(key);
  if (it != cache_.end()) {
    stats_.cache_hits += 1;
    AsyncOp op = start_get_at(key, it->second.slot);
    return finish(op, out);
  }
  const int shard = shard_of(key);
  const std::uint64_t home = home_slot(key);
  const std::uint64_t scratch = scratch_acquire();
  for (int p = 0; p < kMaxProbes; ++p) {
    const auto slot = static_cast<std::uint32_t>(
        (home + static_cast<std::uint64_t>(p)) % cfg_.slots_per_shard);
    if (p > 0) stats_.probes += 1;
    core::Request req = eng_->get_bytes(scratch, shards_[shard],
                                        slot_off(slot), slot_stride(), shard);
    req.wait();
    if (req.failed()) {
      scratch_release(scratch);
      return drain_failure(req);
    }
    const std::uint64_t tag = read_scratch_u64(scratch, shard);
    if (tag == tag_of(key)) {
      cache_[key] = Loc{slot};
      if (!out.empty()) {
        const std::size_t n = std::min<std::size_t>(
            out.size(), static_cast<std::size_t>(cfg_.value_bytes));
        std::memcpy(out.data(), rank_->memory().raw(scratch + 16), n);
      }
      scratch_release(scratch);
      stats_.hits += 1;
      return KvOutcome::hit;
    }
    if (tag == 0) break;
  }
  scratch_release(scratch);
  stats_.misses += 1;
  return KvOutcome::miss;
}

std::optional<std::uint64_t> KvStore::incr(std::uint64_t key,
                                           std::uint64_t delta) {
  stats_.incrs += 1;
  std::uint32_t slot = 0;
  auto it = cache_.find(key);
  KvOutcome found = KvOutcome::hit;
  if (it != cache_.end()) {
    stats_.cache_hits += 1;
    slot = it->second.slot;
  } else {
    found = locate(key, &slot);
    if (found == KvOutcome::miss) {
      // Absent: insert the key with a zero value (the shard buffer is
      // zeroed at construction, so a fresh claim's value region already
      // reads 0).
      found = claim(key, &slot);
      if (found == KvOutcome::overflow) {
        stats_.overflows += 1;
        return std::nullopt;
      }
      if (found == KvOutcome::inserted) stats_.inserts += 1;
    }
  }
  const int shard = shard_of(key);
  if (!is_failure(found)) {
    core::Request req =
        eng_->start_rmw(portals::RmwOp::fetch_add, shards_[shard],
                        slot_off(slot) + 8, delta, 0, shard);
    req.wait();
    if (!req.failed()) return req.rmw_value();
    drain_failure(req);
  }
  throw RankFailedError("KV shard " + std::to_string(shard) +
                        " failed an incr of key " + std::to_string(key));
}

KvStore::AsyncOp KvStore::start_get(std::uint64_t key) {
  auto it = cache_.find(key);
  M3RMA_REQUIRE(it != cache_.end(),
                "start_get requires a cached slot location (get() caches)");
  stats_.gets += 1;
  stats_.cache_hits += 1;
  return start_get_at(key, it->second.slot);
}

KvStore::AsyncOp KvStore::start_get_at(std::uint64_t key,
                                       std::uint32_t slot) {
  const int shard = shard_of(key);
  AsyncOp op;
  op.key = key;
  op.slot = slot;
  op.scratch = scratch_acquire();
  op.kind = OpKind::get;
  op.valid = true;
  op.req = eng_->get_bytes(op.scratch, shards_[shard], slot_off(slot),
                           slot_stride(), shard);
  return op;
}

KvStore::AsyncOp KvStore::start_put(std::uint64_t key,
                                    std::span<const std::byte> value) {
  M3RMA_REQUIRE(value.size() == cfg_.value_bytes,
                "put value must be exactly value_bytes long");
  auto it = cache_.find(key);
  M3RMA_REQUIRE(it != cache_.end(),
                "start_put requires a cached slot location (put() caches)");
  stats_.puts += 1;
  stats_.cache_hits += 1;
  const int shard = shard_of(key);
  AsyncOp op;
  op.key = key;
  op.slot = it->second.slot;
  op.scratch = scratch_acquire();
  op.kind = OpKind::put;
  op.valid = true;
  std::memcpy(rank_->memory().raw(op.scratch), value.data(), value.size());
  op.req = eng_->put_bytes(op.scratch, shards_[shard],
                           slot_off(op.slot) + 16, cfg_.value_bytes, shard,
                           kPutAttrs);
  return op;
}

KvStore::AsyncOp KvStore::start_incr(std::uint64_t key,
                                     std::uint64_t delta) {
  auto it = cache_.find(key);
  M3RMA_REQUIRE(it != cache_.end(),
                "start_incr requires a cached slot location (incr() caches)");
  stats_.incrs += 1;
  stats_.cache_hits += 1;
  const int shard = shard_of(key);
  AsyncOp op;
  op.key = key;
  op.slot = it->second.slot;
  op.kind = OpKind::rmw;
  op.valid = true;
  op.req = eng_->start_rmw(portals::RmwOp::fetch_add, shards_[shard],
                           slot_off(op.slot) + 8, delta, 0, shard);
  return op;
}

KvOutcome KvStore::finish(AsyncOp& op, std::span<std::byte> out) {
  M3RMA_REQUIRE(op.valid, "finish on an empty or already-finished AsyncOp");
  op.valid = false;
  op.req.wait();
  if (op.req.failed()) {
    if (op.kind != OpKind::rmw) scratch_release(op.scratch);
    return drain_failure(op.req);
  }
  if (op.kind == OpKind::rmw) return KvOutcome::updated;
  if (op.kind == OpKind::put) {
    scratch_release(op.scratch);
    stats_.updates += 1;
    return KvOutcome::updated;
  }
  const int shard = shard_of(op.key);
  const std::uint64_t tag = read_scratch_u64(op.scratch, shard);
  // Tags are write-once (no deletes), so a cached location must still hold
  // the key it was cached for.
  M3RMA_ENSURE(tag == tag_of(op.key),
               "cached slot no longer holds the expected key");
  if (!out.empty()) {
    const std::size_t n = std::min<std::size_t>(
        out.size(), static_cast<std::size_t>(cfg_.value_bytes));
    std::memcpy(out.data(), rank_->memory().raw(op.scratch + 16), n);
  }
  scratch_release(op.scratch);
  stats_.hits += 1;
  return KvOutcome::hit;
}

std::size_t KvStore::wait_any(std::span<const AsyncOp> ops) {
  wait_reqs_.clear();
  for (const AsyncOp& op : ops) wait_reqs_.push_back(op.req);
  const std::size_t i = eng_->wait_any(wait_reqs_);
  wait_reqs_.clear();
  return i;
}

std::uint64_t KvStore::shard_occupancy(int shard) {
  M3RMA_REQUIRE(shard >= 0 && shard < cfg_.servers,
                "shard_occupancy: no such shard");
  const std::uint64_t scratch = scratch_acquire();
  core::Request req =
      eng_->get_bytes(scratch, shards_[shard], kOccupancyOff, 8, shard);
  req.wait();
  M3RMA_ENSURE(!req.failed(), "shard_occupancy read failed");
  const std::uint64_t v = read_scratch_u64(scratch, shard);
  scratch_release(scratch);
  return v;
}

}  // namespace m3rma::apps
