#include "core/replication.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "trace/attribution.hpp"

namespace m3rma::core {

Replication::Replication(RmaEngine& eng)
    : eng_(eng),
      bye_seen_(static_cast<std::size_t>(eng.rank_->world().size()), 0) {}

Replication::~Replication() {
  // std::map: deterministic dealloc order, so the domain's free list
  // evolves identically run-to-run.
  for (const auto& [id, buf] : bufs_) eng_.rank_->memory().dealloc(buf);
}

// The engine's replication observability (0 with replication off).
std::uint64_t RmaEngine::mirrors_applied() const {
  return repl_ ? repl_->mirrors_applied_ : 0;
}

std::size_t RmaEngine::replicas_hosted() const {
  return repl_ ? repl_->bufs_.size() : 0;
}

// ------------------------------------------------------------------ attach

int Replication::attach(std::uint64_t mem_id, std::uint64_t length) {
  runtime::Rank& rank = *eng_.rank_;
  const int nranks = rank.world().size();
  int backup = (rank.id() + rank.world().config().replication.backup_offset) %
               nranks;
  if (backup < 0) backup += nranks;
  if (backup == rank.id() || eng_.dead(backup)) return -1;
  // Synchronous replica registration round trip. Origins can only learn of
  // the handle after attach returns, so every mirror strictly follows the
  // backup's repl_ready — a mirror can never race its replica's creation.
  // If the backup dies mid-wait, the pending request is drained with an
  // error and the window is created unreplicated.
  auto st = eng_.new_req(backup, 1);
  eng_.charge_inject();
  AmHdr h;
  h.kind = AmHdr::Kind::repl_create;
  h.mem_id = mem_id;
  h.length = length;
  h.req_id = st->id;
  h.value_a = static_cast<std::uint64_t>(rank.memory().config().endian);
  eng_.send_am(backup, h, {});
  eng_.progress_until([st] { return st->done; });
  if (st->status != OpStatus::ok || st->rmw_value != 1) return -1;
  windows_.emplace(mem_id, Window{backup, -1, false});
  return backup;
}

void Replication::detach(std::uint64_t mem_id) {
  if (windows_.erase(mem_id) == 0) return;  // never replicated
  detached_.insert(mem_id);
  AmHdr h;
  h.kind = AmHdr::Kind::repl_detach;
  h.mem_id = mem_id;
  for (const int m : eng_.comm_->members()) {
    if (m != eng_.rank_->id() && !eng_.dead(m)) eng_.send_am(m, h, {});
  }
}

void Replication::host_replica(std::uint64_t mem_id, std::uint64_t length,
                               int materializing_from) {
  const std::uint64_t buf =
      eng_.rank_->memory().alloc(std::max<std::uint64_t>(length, 1));
  // Replica copies listen too: a post-failover retargeted notified op (or a
  // re-armed rescue) must find a queue here, never land unheard.
  eng_.expose(mem_id, buf, length);
  bufs_.emplace(mem_id, buf);
  windows_.emplace(mem_id, Window{-1, materializing_from, false});
}

// ---------------------------------------------------------------- teardown

void Replication::quiesce() {
  quiescing_ = true;  // stop initiating re-replication; keep serving
  if (!fwd_hold_.empty()) {
    // A repair confirmation lost to a primary that disposed before serving
    // it must not strand held mirrors past teardown: put the deferred
    // tails on the wire before draining. (Lazy mode takes no holds, so its
    // deferred log is untouched here.)
    fwd_hold_.clear();
    for (const auto& [b, led] : out_) {
      if (!eng_.dead(b) && led.flushed < led.sent) flush_deferred(b);
    }
  }
  const auto drained = [&] {
    for (const auto& [b, led] : out_) {
      if (!eng_.dead(b) && busy(b)) return false;
    }
    return true;
  };
  if (!out_.empty()) {
    // Drain the mirror streams before leaving: every mirror must be applied
    // and acked (or its backup dead) while both engines still hold the AM
    // protocol.
    eng_.progress_until(drained);
  }
  runtime::Comm& comm = *eng_.comm_;
  if (comm.size() == 1) {
    comm.barrier();
    return;
  }
  // Fault-robust teardown: say bye to every member, then park — still
  // serving replicas, probes and adoption streams — until every member has
  // either said bye or died. A dissemination barrier would release us the
  // instant a round partner dies, tearing this engine down while a
  // re-replication burst or retargeted op may still be headed here. Byes
  // to silently-dead members ride the reliability layer, so they drive
  // endogenous detection exactly like any other unacked traffic.
  AmHdr h;
  h.kind = AmHdr::Kind::bye;
  for (const int m : comm.members()) {
    if (m == eng_.rank_->id() || eng_.dead(m)) continue;
    eng_.send_am(m, h, {});
  }
  // (drained first: serving may refill a forward ledger)
  eng_.progress_until([&] { return drained() && peers_quiesced(); });
}

bool Replication::peers_quiesced() const {
  if (!quiescing_) return false;
  for (const int m : eng_.comm_->members()) {
    if (m == eng_.rank_->id()) continue;
    if (bye_seen_[static_cast<std::size_t>(m)] == 0 && !eng_.dead(m)) {
      return false;
    }
  }
  return true;
}

bool Replication::busy(int backup) const {
  const auto it = out_.find(backup);
  return it != out_.end() && it->second.acked < it->second.flushed;
}

// ---------------------------------------------------------------- failover

OpStatus Replication::resolve(const TargetMem& mem, TargetMem* eff) {
  *eff = mem;
  if (!eng_.dead(mem.owner)) {
    // Healthy fast path: the handle is used exactly as shipped. Owner alive,
    // designated backup dead: the owner re-replicates along the succession
    // chain; mirror new writes straight at its fresh backup.
    if (mem.backup >= 0 && eng_.dead(mem.backup)) {
      eff->backup = chain_next_alive(mem.id, mem.owner);
    }
    return OpStatus::ok;
  }
  if (mem.backup < 0) return OpStatus::target_failed;
  // Owner dead: walk the succession chain for the acting primary. The first
  // two members are the handle's own owner/backup pair, whose copy we trust
  // by construction (registered at attach); any later member holds a
  // re-replicated copy and must be probed for completeness.
  for (;;) {
    if (lost_windows_.count(mem.id) != 0 || detached_.count(mem.id) != 0) {
      break;
    }
    const int p = chain_next_alive(mem.id);
    if (p < 0) break;
    if (p != mem.owner && p != mem.backup && !probe_replica(p, mem.id)) {
      if (eng_.dead(p)) continue;
      break;  // answered: copy incomplete -> window lost
    }
    // Adopt the replica only after the mirror stream is flushed: everything
    // the dead primary acked must be applied there first.
    failover_sync(p);
    if (eng_.dead(p)) continue;
    eff->owner = p;
    eff->backup = chain_next_alive(mem.id, p);
    eng_.stats_.retargeted_ops += 1;
    return OpStatus::ok;
  }
  eng_.stats_.replica_lost_ops += 1;
  return OpStatus::replica_lost;
}

void Replication::failover_sync(int backup) {
  // The early return keeps the event order: progress_until always runs
  // progress() first.
  if (!busy(backup)) return;
  eng_.progress_until([&] { return !busy(backup) || eng_.dead(backup); });
}

bool Replication::rescue(Request::State& st, int dead) {
  if (st.repl_backup < 0 || st.repl_backup == dead ||
      eng_.dead(st.repl_backup) || detached_.count(st.repl_mem.id) != 0) {
    return false;
  }
  if (!st.is_get && st.counts_send && st.flush_threshold == 0) {
    // Plain local-completion put: its SEND events are already queued and
    // complete it normally; its mirrors preserve the remote effect. The
    // wire notify bit was aimed at the dead primary, so re-arm the
    // notification at the backup whose copy now serves the data.
    rearm_notify(st);
    return true;
  }
  st.repl_rescued = true;
  st.failover_from = eng_.target_failed_at_[static_cast<std::size_t>(dead)];
  if (st.is_get) {
    // In-flight get: re-drive it at the backup once the mirror stream there
    // is flushed (progress()). The engine has freed its staging buffer.
    st.pending = 0;
    reissue_.push_back(st.id);
  } else {
    // Remote-completion put/acc: the mirrors carry its effect — complete it
    // once the backup has acked the highest covering mirror seq.
    const auto lit = out_.find(st.repl_backup);
    const std::uint64_t acked = lit == out_.end() ? 0 : lit->second.acked;
    if (acked >= st.repl_mirror_seq) {
      finish_rescue(st);
      return true;
    }
    waiters_[st.repl_backup].push_back(st.id);
  }
  note(*eng_.rank_, trace::Category::rma, "failover.park", [&] {
    return "req=" + std::to_string(st.id) +
           " backup=" + std::to_string(st.repl_backup);
  });
  return true;
}

void Replication::finish_rescue(Request::State& st) {
  eng_.stats_.rescued_ops += 1;
  note(*eng_.rank_, trace::Category::rma, "failover.rescue",
       [&] {
         return "req=" + std::to_string(st.id) +
                " backup=" + std::to_string(st.repl_backup);
       });
  rearm_notify(st);
  eng_.settle(st);
}

void Replication::lose_replica(Request::State& st, int backup) {
  eng_.stats_.replica_lost_ops += 1;
  eng_.stats_.drained_ops += 1;
  note(*eng_.rank_, trace::Category::rma, "failover.replica_lost", [&] {
    return "req=" + std::to_string(st.id) + " backup=" + std::to_string(backup);
  });
  eng_.settle(st, OpStatus::replica_lost);
}

void Replication::rearm_notify(const Request::State& st) {
  if (!st.notify || st.repl_backup < 0 || eng_.dead(st.repl_backup)) return;
  AmHdr h;
  h.kind = AmHdr::Kind::notify_fire;
  h.mem_id = st.repl_mem.id;
  h.offset = st.notify_disp;
  h.length = st.notify_bytes;
  h.value_a = st.notify_tag;
  eng_.send_am(st.repl_backup, h, {});
  eng_.stats_.notifies_rearmed += 1;
}

void Replication::on_target_failed(int node) {
  // The dead node may also have been someone's backup.
  // Rescued puts parked on its acks, and rescued gets queued for re-drive
  // at it, can never complete: both copies of their window are gone.
  if (auto wit = waiters_.find(node); wit != waiters_.end()) {
    for (const std::uint64_t id : wit->second) {
      auto st = eng_.find_req(id);
      if (st && !st->done) lose_replica(*st, node);
    }
    waiters_.erase(wit);
  }
  std::erase_if(reissue_, [&](std::uint64_t id) {
    auto st = eng_.find_req(id);
    if (st && !st->done && st->repl_backup == node) lose_replica(*st, node);
    return !st || st->done;
  });
  // Mirrors toward the dead backup are undeliverable, but entries whose
  // window's primary is still alive cover writes that may have raced the
  // primary's re-replication snapshot (applied at the primary after the
  // snapshot cut, mirror unacked or still lazily deferred): without a
  // repair the effect exists only at the primary, and the NEXT crash loses
  // it even though the origin saw it ack. Entries whose primary is this
  // rank are snapshot/forward traffic; a fresh burst supersedes them.
  //
  // The repair is per-kind:
  //  * put mirrors re-log onto this origin's ledger to the fresh backup —
  //    idempotent, ordered against the origin's newer writes by the stream
  //    seq, and ordered after the snapshot by the materialization gate.
  //  * RMW and accumulate mirrors cannot be replayed: apply_rmw/apply_acc
  //    are not idempotent, a replay double-applies whenever the snapshot
  //    already carries the effect, and the origin cannot tell whether it
  //    does (transmitted and lazily deferred entries are equally
  //    undecidable). Instead the live primary is asked to re-publish the
  //    affected bytes from its authoritative memory (repl_region_fwd):
  //    the region rides the primary's own in-order stream behind its
  //    snapshot burst, so it converges to the authoritative value whether
  //    or not the snapshot carried the effect.
  // Region repairs awaiting `node`'s confirmation will never hear back:
  // release their holds now. The repaired window's fate is the chain
  // machinery's problem (re-adoption or terminal loss) — holding mirrors
  // longer only strands the stream tail.
  if (const auto q = fwd_inflight_.find(node); q != fwd_inflight_.end()) {
    for (const int b : q->second) release_hold(b);
    fwd_inflight_.erase(q);
  }
  // Holds on the stream toward the dead rank are moot: the ledger repair
  // below re-routes or region-repairs its entries, and fresh mirrors no
  // longer route there. (Confirmations still pending for those holds
  // decrement a missing map entry, which the done handler tolerates.)
  fwd_hold_.erase(node);
  if (auto oit = out_.find(node); oit != out_.end()) {
    for (const Mirror& pnd : oit->second.pending) {
      if (pnd.peer == node || pnd.peer == eng_.rank_->id()) continue;
      if (eng_.dead(pnd.peer)) continue;
      const AmHdr h = pnd.hdr;
      if (h.kind == AmHdr::Kind::repl_mirror_rmw) {
        region_fwd(pnd.peer, h.mem_id, h.offset, 8);
        continue;
      }
      if (h.kind != AmHdr::Kind::repl_mirror) continue;
      if (h.op == RmaOptype::accumulate) {
        region_fwd(pnd.peer, h.mem_id, h.offset, h.length);
        continue;
      }
      const int nb = chain_next_alive(h.mem_id, pnd.peer);
      if (nb < 0) continue;
      mirror_raw(nb, h, pnd.payload);
    }
  }
  out_.erase(node);
  in_.erase(node);
  // Probe answers from the dead rank no longer vouch for anything.
  std::erase_if(probe_ok_, [&](const auto& e) { return e.second == node; });

  // Re-sync: mirrors covering windows whose PRIMARY is the dead node and
  // that their backup has not yet acked are re-sent (the backup dedups by
  // seq), bounding the "acked by the primary but not yet mirrored" window.
  // Sorted backup order — unordered_map order is not deterministic.
  std::vector<int> backups;
  backups.reserve(out_.size());
  for (const auto& [b, led] : out_) backups.push_back(b);
  std::sort(backups.begin(), backups.end());
  for (const int b : backups) {
    if (eng_.dead(b)) continue;
    std::uint64_t ops = 0;
    std::uint64_t bytes = 0;
    Ledger& led = out_[b];
    std::uint64_t hi = led.flushed;
    for (const Mirror& pnd : led.pending) {
      if (pnd.peer == node) hi = std::max(hi, pnd.hdr.req_id);
    }
    for (const Mirror& pnd : led.pending) {
      // In lazy mode this is the deferred first transmission of the
      // write log; in eager mode it is a re-send the backup dedups by seq.
      // Deferred entries for OTHER windows interleaved below the re-sync
      // high-water mark go out too: advancing flushed past an
      // untransmitted seq would strand a hole in the in-order stream.
      const std::uint64_t seq = pnd.hdr.req_id;
      const bool resync = pnd.peer == node;
      const bool deferred_below = seq > led.flushed && seq <= hi;
      if (!resync && !deferred_below) continue;
      eng_.send_am(b, pnd.hdr, pnd.payload);
      ops += 1;
      bytes += pnd.payload.size();
    }
    led.flushed = std::max(led.flushed, hi);
    eng_.stats_.resync_ops += ops;
    eng_.stats_.resync_bytes += bytes;
    if (ops > 0) {
      note(*eng_.rank_, trace::Category::rma, "failover.resync", [&] {
        return "backup=" + std::to_string(b) + " ops=" + std::to_string(ops) +
               " bytes=" + std::to_string(bytes);
      });
    }
  }

  // Restore redundancy: if this rank is now the first live chain member of
  // any registered window, burst a snapshot to the next eligible rank.
  update_roles();
}

void Replication::progress() {
  while (!reissue_.empty()) {
    const std::uint64_t id = reissue_.front();
    auto st = eng_.find_req(id);
    if (!st || st->done) {
      reissue_.pop_front();
      continue;
    }
    // A replica read is only trustworthy once every mirror the dead primary
    // may have acked has been applied (and acked) there. The backup is
    // alive: on_target_failed fails the re-drives queued at a dead one.
    const int b = st->repl_backup;
    if (busy(b)) break;
    reissue_.pop_front();
    st->repl_rescued = false;
    st->pending = 0;
    TargetMem eff = st->repl_mem;
    eff.owner = b;
    eff.backup = chain_next_alive(st->repl_mem.id, b);
    st->world_target = b;
    eng_.stats_.reissued_gets += 1;
    eng_.stats_.retargeted_ops += 1;
    note(*eng_.rank_, trace::Category::rma, "failover.reissue",
         [&] {
           return "req=" + std::to_string(id) +
                  " backup=" + std::to_string(b);
         });
    eng_.issue_blocks(st, RmaOptype::get, portals::AccOp::replace, false,
                      st->origin_addr, st->origin_count, st->origin_dt, eff,
                      st->repl_disp, st->target_count, st->target_dt,
                      Attrs::none());
  }
}

// ----------------------------------------------------------- mirror streams

void Replication::track_get(Request::State& st, const TargetMem& mem,
                            std::uint64_t disp) {
  // If the owner dies mid-flight the get is re-driven at the backup as a
  // direct get (progress()); replica reads need no serializer, mirrors
  // apply in stream order there.
  st.repl_backup = mem.backup;
  st.repl_mem = mem;
  st.repl_disp = disp;
}

void Replication::mirror_block(Request::State& st, bool is_acc,
                               portals::AccOp acc_op, portals::NumType nt,
                               const TargetMem& mem, std::uint64_t offset,
                               std::uint64_t src_addr, std::uint64_t len) {
  if (eng_.dead(mem.backup)) {
    // Stale handle: the backup died while this op's data packet was being
    // injected (the injection yield lets the failure event run, repair the
    // old ledger, and erase it). Logging here would recreate that ledger as
    // an orphan no repair or re-sync ever visits — the entry, and with it
    // the op, would be silently lost at the primary's death. The data
    // packet is already queued ahead of any AM on the same (origin,
    // primary) channel, so ask the still-live primary to re-publish the
    // post-op region to its current backup instead: the idempotent repair
    // reads state that includes this op's effect.
    if (!eng_.dead(mem.owner)) region_fwd(mem.owner, mem.id, offset, len);
    return;
  }
  AmHdr h;
  h.kind = AmHdr::Kind::repl_mirror;
  h.op = is_acc ? RmaOptype::accumulate : RmaOptype::put;
  h.acc = acc_op;
  h.nt = nt;
  h.mem_id = mem.id;
  h.offset = offset;
  h.length = len;
  // The packed bytes are already in the primary's byte order, which the
  // backup shares (replicas are endian-matched at creation).
  std::vector<std::byte> payload(len);
  eng_.rank_->memory().nic_read(src_addr, payload);
  log_mirror(mem, h, std::move(payload), &st);
}

void Replication::replicate_rmw(portals::RmwOp op, const TargetMem& eff,
                                std::uint64_t disp, std::uint64_t a,
                                std::uint64_t b) {
  if (eff.backup < 0) return;
  if (!eng_.dead(eff.backup)) {
    // With the issue-time backup alive, replay it semantically on this
    // origin's own mirror stream: sent AFTER the primary's reply, so the
    // mirror replays exactly the ops the primary committed, in this
    // origin's program order, and survives the primary's death.
    AmHdr h;
    h.kind = AmHdr::Kind::repl_mirror_rmw;
    h.rmw = op;
    h.mem_id = eff.id;
    h.offset = disp;
    h.value_a = a;
    h.value_b = b;
    log_mirror(eff, h, {}, nullptr);
  } else if (!eng_.dead(eff.owner)) {
    // That backup died while the op was in flight: a replay has nowhere
    // safe to go — the fresh backup's snapshot may or may not already
    // carry the effect — so ask the primary (alive: it just replied) to
    // re-publish the post-RMW word to its current backup instead.
    region_fwd(eff.owner, eff.id, disp, 8);
  }
}

void Replication::log_mirror(const TargetMem& mem, AmHdr h,
                             std::vector<std::byte> payload,
                             Request::State* st) {
  Ledger& led = out_[mem.backup];
  h.req_id = ++led.sent;  // per-(origin, backup) mirror stream seq
  // The resync log keeps a copy until the backup's cumulative ack covers it.
  led.pending.push_back(Mirror{mem.owner, h, payload});
  if (st != nullptr) {
    st->repl_backup = mem.backup;
    st->repl_mem = mem;
    st->repl_mirror_seq = h.req_id;
  }
  eng_.stats_.mirrored_ops += 1;
  eng_.stats_.mirror_bytes += payload.size();
  runtime::Rank& rank = *eng_.rank_;
  if (rank.world().config().replication.mode == runtime::ReplMode::lazy) {
    // Lazy recovery: the entry stays logged-but-untransmitted (flushed does
    // not advance), keeping mirror traffic entirely off the healthy-path
    // critical path; failover re-sync pushes the log instead. An entry
    // logged after its primary died (the death cut the op's injection)
    // missed that re-sync: it goes out now, behind the deferred tail.
    if (eng_.dead(mem.owner)) flush_deferred(mem.backup);
    return;
  }
  if (const auto hold = fwd_hold_.find(mem.backup);
      hold != fwd_hold_.end() && hold->second > 0) {
    // Region repair in flight toward this backup: keep the entry logged but
    // off the wire so the repair put applies first (see region_fwd);
    // repl_region_fwd_done flushes the held tail.
    return;
  }
  led.flushed = led.sent;
  const std::uint64_t tag =
      st != nullptr ? trace::op_tag(rank.id(), st->id) : 0;
  eng_.charge_inject(tag);
  eng_.send_am(mem.backup, h, std::move(payload), tag);
}

void Replication::region_fwd(int primary, std::uint64_t mem_id,
                             std::uint64_t offset, std::uint64_t length) {
  if (length == 0) return;
  AmHdr f;
  f.kind = AmHdr::Kind::repl_region_fwd;
  f.mem_id = mem_id;
  f.offset = offset;
  f.length = length;
  eng_.send_am(primary, f, {});
  // The repair put rides the primary's stream to the fresh backup, but this
  // origin keeps mirroring on its OWN stream, and the fabric does not order
  // the two against each other: a mirror sent between now and the put's
  // arrival lands first and is then clobbered by the put, whose bytes
  // predate that mirror's data packet. So in eager mode, hold new mirrors
  // toward the backup the primary will publish to — logged but
  // untransmitted, the lazy-mode discipline — until the primary confirms
  // the put is on the wire (repl_region_fwd_done); every held mirror then
  // trails the put. Lazy mode defers everything anyway: no hold. The guess
  // of the primary's backup can go stale under detection skew; a stale hold
  // only mis-sizes the deferral window (degrading to the unordered
  // behavior), it never corrupts the stream.
  int held = -1;
  if (eng_.rank_->world().config().replication.mode !=
      runtime::ReplMode::lazy) {
    const int b = chain_next_alive(mem_id, primary);
    if (b >= 0) {
      held = b;
      fwd_hold_[b] += 1;
    }
  }
  fwd_inflight_[primary].push_back(held);
}

void Replication::apply_mirror(const AmHdr& h,
                               std::span<const std::byte> payload) {
  auto it = eng_.attached_.find(h.mem_id);
  M3RMA_ENSURE(it != eng_.attached_.end(), "mirror for an unknown replica");
  const RmaEngine::Attached& a = it->second;
  auto& mem = eng_.rank_->memory();
  if (h.kind == AmHdr::Kind::repl_mirror_rmw) {
    M3RMA_ENSURE(h.offset + 8 <= a.length, "mirror RMW exceeds the replica");
    apply_rmw_word(mem, a.base + h.offset, h);
  } else if (h.op == RmaOptype::accumulate) {
    M3RMA_ENSURE(h.offset + h.length <= a.length,
                 "mirror accumulate exceeds the replica");
    portals::apply_acc(h.acc, h.nt, mem.raw(a.base + h.offset),
                       payload.data(), h.length, mem.config().endian);
  } else {
    M3RMA_ENSURE(h.offset + h.length <= a.length,
                 "mirror put exceeds the replica");
    mem.nic_write(a.base + h.offset, payload);
  }
  mirrors_applied_ += 1;
}

void Replication::flush_deferred(int backup) {
  const auto it = out_.find(backup);
  if (it == out_.end()) return;
  Ledger& led = it->second;
  for (const Mirror& pnd : led.pending) {
    if (pnd.hdr.req_id <= led.flushed) continue;
    eng_.send_am(backup, pnd.hdr, pnd.payload);
  }
  led.flushed = led.sent;
}

void Replication::release_hold(int backup) {
  if (backup < 0) return;
  const auto hold = fwd_hold_.find(backup);
  if (hold == fwd_hold_.end()) return;
  if (--hold->second > 0) return;
  fwd_hold_.erase(hold);
  if (!eng_.dead(backup)) flush_deferred(backup);
}

void Replication::mirror_raw(int backup, const AmHdr& hdr,
                             std::vector<std::byte> payload) {
  // This append flushes the whole stream. A lazily deferred or repair-held
  // entry below the new flush point would leave a seq hole the backup can
  // never fill (it accepts strictly in order), wedging every later ack — so
  // transmit the deferred tail first, keeping the stream contiguous.
  flush_deferred(backup);
  Ledger& led = out_[backup];
  AmHdr h = hdr;
  h.req_id = ++led.sent;
  led.flushed = led.sent;
  // peer = self: the authoritative copy of this data is local, so a later
  // death of `backup` triggers a fresh burst, never a blind re-send.
  led.pending.push_back(Mirror{eng_.rank_->id(), h, payload});
  eng_.send_am(backup, h, std::move(payload));
}

void Replication::route_mirror(int src, const AmHdr& h,
                               std::span<const std::byte> payload) {
  const auto park = [&](Gate& gate) {
    gate[h.mem_id].push_back(Mirror{src, h, {payload.begin(), payload.end()}});
  };
  auto w = windows_.find(h.mem_id);
  if (w == windows_.end()) {
    // Raced ahead of this rank's adoption of the window: park until the
    // acting primary's repl_adopt says which stream it materializes from.
    park(pre_adopt_gate_);
    return;
  }
  if (h.kind == AmHdr::Kind::repl_sync_done) {
    if (w->second.materializing_from == src) {
      w->second.materializing_from = -1;
      auto g = mat_gate_.find(h.mem_id);
      if (g != mat_gate_.end()) {
        auto gated = std::move(g->second);
        mat_gate_.erase(g);
        for (const auto& gm : gated) apply_mirror(gm.hdr, gm.payload);
      }
    }
    return;  // never forwarded
  }
  if (w->second.lost) return;  // incomplete copy: the window is dead here
  if (w->second.materializing_from >= 0 &&
      src != w->second.materializing_from) {
    // Mirror from a third party while the snapshot streams in: the snapshot
    // will contain everything its source applied, so defer to after it.
    park(mat_gate_);
  } else {
    apply_mirror(h, payload);
  }
  if (w->second.cur_backup >= 0 && !peers_quiesced()) {
    // Acting primary with a live successor: relay in-flight mirrors that
    // were addressed to us back when we were the backup, so the successor's
    // copy sees them too (our snapshot predates their acceptance). That
    // includes mirrors whose origin IS the successor — an origin applies
    // its replica only through incoming ledger streams, never its own
    // outgoing log, so without the echo a lazy write log resynced here
    // would be missing from its author's adopted copy. Once every peer has
    // entered quiesce the relay stops: no member issues new ops past its
    // bye, and the successor may dispose the moment its own bye predicate
    // holds — a late forward could chase a torn-down engine.
    mirror_raw(w->second.cur_backup, h, {payload.begin(), payload.end()});
    eng_.stats_.forwarded_mirrors += 1;
  }
}

// ------------------------------------------- multi-crash re-replication

Endian Replication::node_endian(int world_rank) const {
  const auto& wc = eng_.rank_->world().config();
  const auto it = wc.node_overrides.find(world_rank);
  return it != wc.node_overrides.end() ? it->second.endian : wc.node.endian;
}

std::vector<int> Replication::chain_members(std::uint64_t mem_id) const {
  const int n = eng_.rank_->world().size();
  const int owner0 = static_cast<int>(mem_id >> 32);
  int off = eng_.rank_->world().config().replication.backup_offset % n;
  if (off < 0) off += n;
  std::vector<int> chain;
  chain.push_back(owner0);
  if (off == 0) return chain;
  for (int r = (owner0 + off) % n; r != owner0; r = (r + off) % n) {
    chain.push_back(r);
  }
  return chain;
}

bool Replication::chain_eligible(int world_rank, std::uint64_t mem_id) const {
  if (eng_.dead(world_rank)) return false;
  return node_endian(world_rank) ==
         node_endian(static_cast<int>(mem_id >> 32));
}

int Replication::chain_next_alive(std::uint64_t mem_id, int after) const {
  bool past = after < 0;
  for (const int r : chain_members(mem_id)) {
    if (past && chain_eligible(r, mem_id)) return r;
    if (r == after) past = true;
  }
  return -1;
}

bool Replication::probe_replica(int target, std::uint64_t mem_id) {
  if (lost_windows_.count(mem_id) != 0) return false;
  const auto hit = probe_ok_.find(mem_id);
  if (hit != probe_ok_.end() && hit->second == target) return true;
  for (;;) {
    auto st = eng_.new_req(target, 1);
    eng_.charge_inject();
    AmHdr h;
    h.kind = AmHdr::Kind::repl_probe;
    h.mem_id = mem_id;
    h.req_id = st->id;
    eng_.send_am(target, h, {});
    eng_.stats_.probes_sent += 1;
    eng_.progress_until([st] { return st->done; });
    if (st->status != OpStatus::ok) return false;  // died mid-probe: re-walk
    if (st->rmw_value == 1) {
      probe_ok_[mem_id] = target;
      return true;
    }
    if (st->rmw_value != 2) break;  // definitive: unhosted or marked lost
    // Copy still materializing — not a verdict. The snapshot either
    // completes (next answer 1), its source turns out dead and the copy is
    // marked lost (answer 0), or the candidate dies (probe drains with an
    // error); each retry costs a full round trip of simulated time, so the
    // loop always advances toward one of those outcomes.
  }
  lost_windows_.insert(mem_id);
  return false;
}

void Replication::update_roles() {
  if (eng_.disposed_ || windows_.empty()) return;
  const int me = eng_.rank_->id();
  for (auto& [mem_id, w] : windows_) {  // std::map: ascending window id
    if (w.lost || detached_.count(mem_id) != 0) continue;
    if (w.materializing_from >= 0 && eng_.dead(w.materializing_from)) {
      // Half-built copy whose snapshot source died: nothing can ever
      // complete it (adoption refuses an existing attachment, third-party
      // mirrors park behind the materialization gate), so the loss is
      // terminal. Recorded unconditionally — chain position aside, and on
      // quiescing ranks too, whose probe answers must not read as "still
      // materializing" forever.
      w.lost = true;
      w.materializing_from = -1;
      lost_windows_.insert(mem_id);
      mat_gate_.erase(mem_id);
      pre_adopt_gate_.erase(mem_id);
      continue;
    }
    if (quiescing_) {
      // Teardown phase: keep serving the copies we hold, but start no new
      // adoption — a freshly chosen backup could receive the final bye and
      // dispose while our snapshot burst is still in flight to it.
      if (w.cur_backup >= 0 && eng_.dead(w.cur_backup)) w.cur_backup = -1;
      continue;
    }
    if (chain_next_alive(mem_id) != me) continue;
    const int nb = chain_next_alive(mem_id, me);
    if (nb == w.cur_backup) continue;
    w.cur_backup = nb;
    if (nb < 0) continue;  // chain exhausted: run unreplicated
    const auto it = eng_.attached_.find(mem_id);
    M3RMA_ENSURE(it != eng_.attached_.end(),
                 "re-replication of an unattached window");
    const RmaEngine::Attached& a = it->second;
    AmHdr adopt;
    adopt.kind = AmHdr::Kind::repl_adopt;
    adopt.mem_id = mem_id;
    adopt.length = a.length;
    eng_.send_am(nb, adopt, {});
    // Snapshot burst on our own mirror stream: chunks, then the completion
    // marker, all cumulatively acked like ordinary mirrors.
    constexpr std::uint64_t kChunk = 64 * 1024;
    for (std::uint64_t off = 0; off < a.length; off += kChunk) {
      const std::uint64_t len = std::min(kChunk, a.length - off);
      AmHdr h;
      h.kind = AmHdr::Kind::repl_mirror;
      h.op = RmaOptype::put;
      h.mem_id = mem_id;
      h.offset = off;
      h.length = len;
      std::vector<std::byte> chunk(len);
      eng_.rank_->memory().nic_read(a.base + off, chunk);
      mirror_raw(nb, h, std::move(chunk));
      eng_.stats_.rerepl_bytes += len;
    }
    AmHdr done;
    done.kind = AmHdr::Kind::repl_sync_done;
    done.mem_id = mem_id;
    mirror_raw(nb, done, {});
    eng_.stats_.rereplications += 1;
    note(*eng_.rank_, trace::Category::rma, "failover.rereplicate",
         [&] {
           return "mem=" + std::to_string(mem_id) +
                  " backup=" + std::to_string(nb);
         });
  }
}

// ------------------------------------------------------- active messages

void Replication::on_am(const AmHdr& h, fabric::Packet& p) {
  switch (h.kind) {
    case AmHdr::Kind::repl_ready:       // value_a 1 = registered, 0 = refused
    case AmHdr::Kind::repl_probe_ack:   // value_a 1 = copy complete and live
      if (auto st = eng_.find_req(h.req_id)) {
        st->rmw_value = h.value_a;
        eng_.settle(*st);
      }
      break;
    case AmHdr::Kind::repl_create: {
      // NIC-side replica registration (no serializer dispatch, like
      // count_query): allocate a shadow region and expose it under the SAME
      // mem id, so post-failover direct ops match it with no origin-side
      // address translation.
      AmHdr r;
      r.kind = AmHdr::Kind::repl_ready;
      r.req_id = h.req_id;
      const auto owner_endian = static_cast<Endian>(h.value_a);
      if (owner_endian != eng_.rank_->memory().config().endian ||
          eng_.disposed_) {
        r.value_a = 0;  // refused: mirrors would be byte-order garbage here
      } else {
        host_replica(h.mem_id, h.length, -1);
        r.value_a = 1;
      }
      eng_.send_am(p.src, r, {});
      break;
    }
    case AmHdr::Kind::repl_adopt: {
      // Chosen as the fresh backup of a window after a failover: expose a
      // shadow region under the SAME mem id (like repl_create) and
      // materialize from the acting primary's snapshot stream. No refusal
      // path — the chain skips endian-mismatched ranks, and both sides
      // compute it identically.
      if (eng_.disposed_ || eng_.attached_.count(h.mem_id) != 0) break;
      host_replica(h.mem_id, h.length, p.src);
      // Mirrors that raced ahead of this adoption: re-route now that the
      // registry entry says which stream materializes the copy.
      if (auto g = pre_adopt_gate_.find(h.mem_id);
          g != pre_adopt_gate_.end()) {
        auto parked = std::move(g->second);
        pre_adopt_gate_.erase(g);
        for (const auto& gm : parked) route_mirror(gm.peer, gm.hdr, gm.payload);
      }
      break;
    }
    case AmHdr::Kind::repl_probe: {
      // Answered NIC-side like count_query: is this rank a complete, live
      // copy holder of the window? Three-valued: a copy mid-
      // materialization is neither ready nor lost — the snapshot source
      // may have died right after sending repl_sync_done (marker still in
      // flight, probe overtook it), in which case this copy completes
      // moments later. Only an actually-lost (or unhosted) window is a
      // terminal 0; materializing answers 2 so the prober retries instead
      // of caching a permanent loss.
      const auto w = windows_.find(h.mem_id);
      const bool hosted = !eng_.disposed_ &&
                          eng_.attached_.count(h.mem_id) != 0 &&
                          w != windows_.end() && !w->second.lost;
      AmHdr r;
      r.kind = AmHdr::Kind::repl_probe_ack;
      r.req_id = h.req_id;
      r.value_a = !hosted ? 0 : (w->second.materializing_from >= 0 ? 2 : 1);
      eng_.send_am(p.src, r, {});
      break;
    }
    case AmHdr::Kind::repl_region_fwd: {
      // Serving copy of a failed-over window: re-publish the requested
      // region to the current backup as a plain put on our own mirror
      // stream. The bytes are read from the authoritative memory here, so
      // the mirror is idempotent against the snapshot burst regardless of
      // whether the burst already carried the repaired op's effect. No
      // backup yet (chain exhausted, or every peer already past its last
      // op and free to dispose): drop — a later adoption bursts the bytes
      // with the rest of the region.
      const auto a = eng_.attached_.find(h.mem_id);
      const auto w = windows_.find(h.mem_id);
      const bool publish = !eng_.disposed_ && h.length != 0 &&
                           a != eng_.attached_.end() && w != windows_.end() &&
                           w->second.cur_backup >= 0 &&
                           !eng_.dead(w->second.cur_backup) &&
                           !peers_quiesced();
      if (publish) {
        M3RMA_ENSURE(h.offset + h.length <= a->second.length,
                     "forwarded region exceeds the window");
        AmHdr mh;
        mh.kind = AmHdr::Kind::repl_mirror;
        mh.op = RmaOptype::put;
        mh.mem_id = h.mem_id;
        mh.offset = h.offset;
        mh.length = h.length;
        std::vector<std::byte> region(h.length);
        eng_.rank_->memory().nic_read(a->second.base + h.offset, region);
        mirror_raw(w->second.cur_backup, mh, std::move(region));
      }
      // Confirm, published or dropped: the origin holds fresh mirrors
      // toward our backup until this arrives, and a drop means there is no
      // put to order behind anyway.
      AmHdr d;
      d.kind = AmHdr::Kind::repl_region_fwd_done;
      d.mem_id = h.mem_id;
      eng_.send_am(p.src, d, {});
      break;
    }
    case AmHdr::Kind::repl_region_fwd_done: {
      // Release one hold taken when the matching repl_region_fwd went out
      // (the fabric is FIFO per pair, so confirmations arrive in request
      // order). Flushing the deferred tail only now puts every held mirror
      // on the wire strictly behind the primary's repair put.
      const auto q = fwd_inflight_.find(p.src);
      if (q == fwd_inflight_.end() || q->second.empty()) break;
      const int b = q->second.front();
      q->second.pop_front();
      if (q->second.empty()) fwd_inflight_.erase(q);
      release_hold(b);
      break;
    }
    case AmHdr::Kind::repl_detach:
      detached_.insert(h.mem_id);
      break;
    case AmHdr::Kind::bye:
      bye_seen_[static_cast<std::size_t>(p.src)] = 1;
      break;
    case AmHdr::Kind::notify_fire:
      // Failover re-arm: the origin of a rescued notified op tells the
      // surviving copy to enqueue the notification its dead primary can no
      // longer deliver.
      eng_.fire_notify_local(
          h.mem_id,
          notify::Notification{p.src, static_cast<std::uint32_t>(h.value_a),
                               h.length, h.offset});
      break;
    case AmHdr::Kind::repl_mirror:
    case AmHdr::Kind::repl_mirror_rmw:
    case AmHdr::Kind::repl_sync_done: {
      // Apply in per-origin stream order, directly on the replica (never
      // through the serializer, and never counted in the engine's
      // am_applied_from_ — mirrors must not perturb the primary-path flush
      // accounting). repl_sync_done rides the same ledger stream: it must
      // be accepted in sequence so the materialization cut-over is ordered
      // against the snapshot chunks preceding it.
      // Acks are cut at ACCEPT time, not apply time: a mirror parked behind
      // a materializing window still advances the cumulative ack, so the
      // acting primary's flush never deadlocks on its own snapshot stream.
      Inbound& in = in_[p.src];
      if (h.req_id == in.applied + 1) {
        route_mirror(p.src, h, p.payload);
        in.applied += 1;
        for (auto hit = in.held.find(in.applied + 1); hit != in.held.end();
             hit = in.held.find(in.applied + 1)) {
          route_mirror(p.src, hit->second.hdr, hit->second.payload);
          in.applied += 1;
          in.held.erase(hit);
        }
      } else if (h.req_id > in.applied + 1) {
        // Out-of-order on an unordered network: hold until the gap closes.
        in.held.emplace(h.req_id, Mirror{p.src, h, std::move(p.payload)});
      }
      // else: duplicate (failover re-sync) — already applied; just re-ack.
      AmHdr r;
      r.kind = AmHdr::Kind::repl_mirror_ack;
      r.req_id = in.applied;  // cumulative
      eng_.send_am(p.src, r, {}, p.op);
      break;
    }
    case AmHdr::Kind::repl_mirror_ack: {
      const auto lit = out_.find(p.src);
      if (lit == out_.end()) break;
      Ledger& led = lit->second;
      if (h.req_id <= led.acked) break;
      led.acked = h.req_id;
      while (!led.pending.empty() &&
             led.pending.front().hdr.req_id <= led.acked) {
        led.pending.pop_front();
      }
      // Finish rescued ops whose highest mirror seq is now covered, in the
      // order they were parked (request-id order).
      const auto wit = waiters_.find(p.src);
      if (wit == waiters_.end()) break;
      std::erase_if(wit->second, [&](std::uint64_t id) {
        auto st = eng_.find_req(id);
        if (st && !st->done && st->repl_mirror_seq <= led.acked) {
          finish_rescue(*st);
        }
        return !st || st->done;
      });
      if (wit->second.empty()) waiters_.erase(wit);
      break;
    }
    default:
      break;  // the engine's own kinds never reach here
  }
}

}  // namespace m3rma::core
