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

void KvStore::copy_value(std::uint64_t scratch,
                         std::span<std::byte> out) const {
  if (out.empty()) return;
  const std::size_t n = std::min<std::size_t>(
      out.size(), static_cast<std::size_t>(cfg_.value_bytes));
  std::memcpy(out.data(), rank_->memory().raw(scratch + 16), n);
}

bool KvStore::cached_slot(std::uint64_t key, std::uint32_t* slot) {
  const auto it = cache_.find(key);
  if (it == cache_.end()) return false;
  stats_.cache_hits += 1;
  *slot = it->second;
  return true;
}

KvOutcome KvStore::drain_failure(const core::Request& req) {
  stats_.failed += 1;
  if (req.status() == core::OpStatus::replica_lost) {
    stats_.lost += 1;
    return KvOutcome::lost;
  }
  return KvOutcome::failed;
}

KvOutcome KvStore::probe(std::uint64_t key, std::uint64_t scratch,
                         std::uint64_t len, std::uint32_t* slot_out) {
  const int shard = shard_of(key);
  const std::uint64_t home = home_slot(key);
  for (int p = 0; p < kMaxProbes; ++p) {
    const std::uint32_t slot = probe_slot(home, p);
    if (p > 0) stats_.probes += 1;
    core::Request req =
        eng_->get_bytes(scratch, shards_[shard], slot_off(slot), len, shard);
    req.wait();
    if (req.failed()) return drain_failure(req);
    const std::uint64_t tag = read_scratch_u64(scratch, shard);
    if (tag == tag_of(key)) {
      cache_[key] = slot;
      *slot_out = slot;
      return KvOutcome::hit;
    }
    if (tag == 0) break;  // open addressing: an empty slot ends the chain
  }
  return KvOutcome::miss;
}

KvOutcome KvStore::locate(std::uint64_t key) {
  if (cache_.contains(key)) return KvOutcome::hit;
  // Locating needs only the tags: the walk reads 8 B per slot.
  std::uint32_t slot = 0;
  const std::uint64_t scratch = scratch_acquire();
  const KvOutcome o = probe(key, scratch, 8, &slot);
  scratch_release(scratch);
  return o;
}

KvOutcome KvStore::claim(std::uint64_t key, std::uint32_t* slot_out) {
  const int shard = shard_of(key);
  const std::uint64_t home = home_slot(key);
  for (int p = 0; p < kMaxProbes; ++p) {
    const std::uint32_t slot = probe_slot(home, p);
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
      cache_[key] = slot;
      *slot_out = slot;
      return KvOutcome::inserted;
    }
    if (cas.rmw_value() == tag_of(key)) {
      cache_[key] = slot;
      *slot_out = slot;
      return KvOutcome::updated;
    }
    stats_.cas_conflicts += 1;  // another key's claim occupies this slot
  }
  stats_.overflows += 1;
  return KvOutcome::overflow;
}

KvOutcome KvStore::put(std::uint64_t key, std::span<const std::byte> value) {
  M3RMA_REQUIRE(value.size() == cfg_.value_bytes,
                "put value must be exactly value_bytes long");
  stats_.puts += 1;
  std::uint32_t slot = 0;
  KvOutcome ok = KvOutcome::updated;
  if (!cached_slot(key, &slot)) {
    ok = claim(key, &slot);
    if (ok == KvOutcome::overflow || is_failure(ok)) return ok;
  }
  AsyncOp op = start_put_at(key, slot, value, ok);
  return finish(op);
}

KvOutcome KvStore::get(std::uint64_t key, std::span<std::byte> out) {
  stats_.gets += 1;
  std::uint32_t slot = 0;
  if (cached_slot(key, &slot)) {
    AsyncOp op = start_get_at(key, slot);
    return finish(op, out);
  }
  // The walk reads whole slots, so a hit already holds the value.
  const std::uint64_t scratch = scratch_acquire();
  const KvOutcome o = probe(key, scratch, slot_stride(), &slot);
  if (o == KvOutcome::hit) {
    copy_value(scratch, out);
    stats_.hits += 1;
  } else if (o == KvOutcome::miss) {
    stats_.misses += 1;
  }
  scratch_release(scratch);
  return o;
}

std::optional<std::uint64_t> KvStore::incr(std::uint64_t key,
                                           std::uint64_t delta) {
  stats_.incrs += 1;
  std::uint32_t slot = 0;
  KvOutcome ok = KvOutcome::updated;
  if (!cached_slot(key, &slot)) {
    ok = locate(key);
    // Absent: insert the key with a zero value (the shard buffer is zeroed
    // at construction, so a fresh claim's value region already reads 0).
    if (ok == KvOutcome::miss) ok = claim(key, &slot);
    if (ok == KvOutcome::overflow) return std::nullopt;
    if (ok == KvOutcome::hit) slot = cache_.at(key);
  }
  if (!is_failure(ok)) {
    AsyncOp op = start_incr_at(
        key, slot, delta,
        ok == KvOutcome::inserted ? ok : KvOutcome::updated);
    if (!is_failure(finish(op))) return op.req.rmw_value();
  }
  throw RankFailedError("KV shard " + std::to_string(shard_of(key)) +
                        " failed an incr of key " + std::to_string(key));
}

KvStore::AsyncOp KvStore::start_get(std::uint64_t key) {
  std::uint32_t slot = 0;
  const bool cached = cached_slot(key, &slot);
  M3RMA_REQUIRE(cached,
                "start_get requires a cached slot location (get() caches)");
  stats_.gets += 1;
  return start_get_at(key, slot);
}

KvStore::AsyncOp KvStore::start_put(std::uint64_t key,
                                    std::span<const std::byte> value) {
  M3RMA_REQUIRE(value.size() == cfg_.value_bytes,
                "put value must be exactly value_bytes long");
  std::uint32_t slot = 0;
  const bool cached = cached_slot(key, &slot);
  M3RMA_REQUIRE(cached,
                "start_put requires a cached slot location (put() caches)");
  stats_.puts += 1;
  return start_put_at(key, slot, value, KvOutcome::updated);
}

KvStore::AsyncOp KvStore::start_incr(std::uint64_t key,
                                     std::uint64_t delta) {
  std::uint32_t slot = 0;
  const bool cached = cached_slot(key, &slot);
  M3RMA_REQUIRE(cached,
                "start_incr requires a cached slot location (incr() caches)");
  stats_.incrs += 1;
  return start_incr_at(key, slot, delta, KvOutcome::updated);
}

KvStore::AsyncOp KvStore::start_get_at(std::uint64_t key,
                                       std::uint32_t slot) {
  const int shard = shard_of(key);
  const std::uint64_t scratch = scratch_acquire();
  return {.req = eng_->get_bytes(scratch, shards_[shard], slot_off(slot),
                                 slot_stride(), shard),
          .key = key, .slot = slot, .scratch = scratch, .kind = OpKind::get,
          .ok = KvOutcome::hit, .valid = true};
}

KvStore::AsyncOp KvStore::start_put_at(std::uint64_t key, std::uint32_t slot,
                                       std::span<const std::byte> value,
                                       KvOutcome ok) {
  const int shard = shard_of(key);
  const std::uint64_t scratch = scratch_acquire();
  std::memcpy(rank_->memory().raw(scratch), value.data(), value.size());
  return {.req = eng_->put_bytes(scratch, shards_[shard], slot_off(slot) + 16,
                                 cfg_.value_bytes, shard, kPutAttrs),
          .key = key, .slot = slot, .scratch = scratch, .kind = OpKind::put,
          .ok = ok, .valid = true};
}

KvStore::AsyncOp KvStore::start_incr_at(std::uint64_t key, std::uint32_t slot,
                                        std::uint64_t delta, KvOutcome ok) {
  const int shard = shard_of(key);
  return {.req = eng_->start_rmw(portals::RmwOp::fetch_add, shards_[shard],
                                 slot_off(slot) + 8, delta, 0, shard),
          .key = key, .slot = slot, .kind = OpKind::rmw, .ok = ok,
          .valid = true};
}

KvOutcome KvStore::finish(AsyncOp& op, std::span<std::byte> out) {
  M3RMA_REQUIRE(op.valid, "finish on an empty or already-finished AsyncOp");
  op.valid = false;
  op.req.wait();
  const bool failed = op.req.failed();
  if (!failed && op.kind == OpKind::get) {
    // Tags are write-once (no deletes), so a cached location must still
    // hold the key it was cached for.
    M3RMA_ENSURE(read_scratch_u64(op.scratch, shard_of(op.key)) ==
                     tag_of(op.key),
                 "cached slot no longer holds the expected key");
    copy_value(op.scratch, out);
  }
  if (op.kind != OpKind::rmw) scratch_release(op.scratch);
  if (failed) return drain_failure(op.req);
  if (op.ok == KvOutcome::hit) stats_.hits += 1;
  if (op.ok == KvOutcome::inserted) stats_.inserts += 1;
  // An incr of a present key overwrites no value: updates counts puts.
  if (op.ok == KvOutcome::updated && op.kind == OpKind::put) {
    stats_.updates += 1;
  }
  return op.ok;
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
