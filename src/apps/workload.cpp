#include "apps/workload.hpp"

#include <algorithm>

#include "common/diagnostics.hpp"

namespace m3rma::apps {

WorkloadGen::WorkloadGen(runtime::Rank& rank, KvStore& kv, WorkloadConfig cfg)
    : rank_(&rank),
      kv_(&kv),
      cfg_(cfg),
      keys_(kv.config().key_space, cfg.zipf_s,
            mix64(cfg.seed ^ (0xC11E57ull + static_cast<std::uint64_t>(
                                                rank.id())))),
      mix_({cfg.get_frac, cfg.put_frac, cfg.rmw_frac},
           mix64(cfg.seed ^ (0x0FF5E7ull + static_cast<std::uint64_t>(
                                               rank.id())))) {
  M3RMA_REQUIRE(cfg_.window >= 1, "closed loop needs a window of at least 1");
  valbuf_.resize(kv.config().value_bytes);
}

std::byte WorkloadGen::value_byte(std::uint64_t key) const {
  return static_cast<std::byte>(mix64(key) & 0xFF);
}

std::uint64_t WorkloadGen::preload(std::uint64_t client_index,
                                   std::uint64_t num_clients) {
  M3RMA_REQUIRE(num_clients >= 1 && client_index < num_clients,
                "preload: client_index must be < num_clients");
  std::uint64_t n = 0;
  for (std::uint64_t key = client_index; key < kv_->config().key_space;
       key += num_clients) {
    std::fill(valbuf_.begin(), valbuf_.end(), value_byte(key));
    const KvOutcome o = kv_->put(key, valbuf_);
    M3RMA_ENSURE(o == KvOutcome::inserted || o == KvOutcome::updated,
                 "preload insert did not land");
    ++n;
  }
  return n;
}

void WorkloadGen::warm() {
  for (std::uint64_t key = 0; key < kv_->config().key_space; ++key) {
    kv_->locate(key);
  }
}

void WorkloadGen::record(const Issued& f, KvOutcome o) {
  Completion c;
  c.done_at = rank_->ctx().now();
  c.latency = c.done_at - f.issued_at;
  c.kind = f.kind;
  c.shard = f.shard;
  c.outcome = o;
  if (o == KvOutcome::hit || o == KvOutcome::inserted ||
      o == KvOutcome::updated) {
    ++ok_;
  }
  done_.push_back(c);
}

std::uint64_t WorkloadGen::run() {
  // The ops in flight, in issue order, and what each one was.
  std::vector<KvStore::AsyncOp> ops;
  std::vector<Issued> issued;
  const auto window = static_cast<std::size_t>(cfg_.window);
  ops.reserve(window);
  issued.reserve(window);
  done_.reserve(done_.size() + cfg_.ops);
  // Test every op in flight and retire the done ones, in issue order, each
  // stamped now.
  const auto retire_done = [&] {
    std::size_t kept = 0;
    for (std::size_t j = 0; j < ops.size(); ++j) {
      if (ops[j].req.test()) {
        record(issued[j], kv_->finish(ops[j]));
      } else {
        if (kept != j) {
          ops[kept] = std::move(ops[j]);
          issued[kept] = issued[j];
        }
        ++kept;
      }
    }
    ops.resize(kept);
    issued.resize(kept);
  };
  for (std::uint64_t i = 0; i < cfg_.ops; ++i) {
    const std::uint64_t key = keys_.next();
    const auto kind = static_cast<OpKind>(mix_.next());
    const auto shard = static_cast<std::uint16_t>(kv_->shard_of(key));
    retire_done();
    if (!kv_->location_cached(key)) {
      const Issued f{rank_->ctx().now(), kind, shard};
      // Blocking path: a cold key still needs its probe walk (and a claim,
      // for a put or an RMW of an absent key). Ops in flight retire once it
      // returns. An RMW on a shard that cannot serve it throws, already
      // counted; that op retires failed.
      KvOutcome o = KvOutcome::miss;
      try {
        if (kind == OpKind::rmw) {
          o = kv_->incr(key, 1) ? KvOutcome::updated : KvOutcome::overflow;
        } else if (kind == OpKind::put) {
          std::fill(valbuf_.begin(), valbuf_.end(), value_byte(key));
          o = kv_->put(key, valbuf_);
        } else {
          o = kv_->get(key);
        }
      } catch (const RankFailedError&) {
        o = KvOutcome::failed;
      }
      record(f, o);
      continue;
    }
    if (ops.size() >= window) {
      kv_->wait_any(ops);
      retire_done();
    }
    issued.push_back({rank_->ctx().now(), kind, shard});
    if (kind == OpKind::get) {
      ops.push_back(kv_->start_get(key));
    } else if (kind == OpKind::put) {
      std::fill(valbuf_.begin(), valbuf_.end(), value_byte(key));
      ops.push_back(kv_->start_put(key, valbuf_));
    } else {
      ops.push_back(kv_->start_incr(key, 1));
    }
  }
  while (!ops.empty()) {
    kv_->wait_any(ops);
    retire_done();
  }
  return ok_;
}

}  // namespace m3rma::apps
