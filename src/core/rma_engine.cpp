#include "core/rma_engine.hpp"

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>

#include "trace/attribution.hpp"
#include "trace/recorder.hpp"

namespace m3rma::core {

// ---------------------------------------------------------- request state

struct Request::State {
  std::uint64_t id = 0;
  int world_target = -1;
  bool done = false;
  OpStatus status = OpStatus::ok;
  std::uint32_t pending = 0;  // segment completions still expected
  bool counts_send = true;    // decrement on SEND (local) vs ACK (remote)
  // get finalization
  bool is_get = false;
  std::uint64_t dest_addr = 0;
  bool needs_unpack = false;
  bool needs_swap = false;
  std::uint64_t origin_addr = 0;
  std::uint64_t origin_count = 0;
  dt::Datatype origin_dt;
  dt::Datatype target_dt;
  std::uint64_t target_count = 0;
  std::uint64_t staging_len = 0;
  // software flush
  std::uint64_t flush_threshold = 0;
  std::uint32_t flush_retries = 0;
  // rmw result
  std::uint64_t rmw_value = 0;
  // rmi reply payload
  std::vector<std::byte> rmi_reply;
  // tracing: open rma span (0 = untraced), issue time, histogram key
  std::uint64_t trace_span = 0;
  std::uint64_t trace_t0 = 0;
  std::string trace_hist;
  // latency attribution: op_begin was called for this request's tag (child
  // and internal requests stay false — they alias into a parent op), and the
  // failure-detection time when the op was rescued through failover (0 = no
  // failover; the [failover_from, completion] window is the failover stall).
  bool op_tracked = false;
  sim::Time failover_from = 0;
  // replication/failover: live backup adopted at issue (-1 = none), highest
  // mirror seq covering this op, and the issue parameters needed to re-drive
  // a get at the backup. A rescued request no longer completes through
  // finish_segment — only through the failover machinery.
  int repl_backup = -1;
  std::uint64_t repl_mirror_seq = 0;
  bool repl_rescued = false;
  TargetMem repl_mem;
  std::uint64_t repl_disp = 0;
  // notified access: the op carries a user tag to fire at the target; the
  // bytes/disp pair is what a failover re-arm reports to the backup's queue.
  bool notify = false;
  std::uint32_t notify_tag = 0;
  std::uint64_t notify_bytes = 0;
  std::uint64_t notify_disp = 0;
};

bool Request::done() const { return st_ == nullptr || st_->done; }

OpStatus Request::status() const {
  return st_ == nullptr ? OpStatus::ok : st_->status;
}

bool Request::test() {
  if (done()) return true;
  eng_->progress();
  return done();
}

void Request::wait() {
  if (done()) return;
  auto st = st_;
  eng_->progress_until([st] { return st->done; });
}

namespace {

/// Count-query flush retries before declaring the ops lost.
constexpr std::uint32_t kMaxFlushRetries = 10000;
/// Per-op handler cost of the serializer (comm thread or progress engine).
constexpr sim::Time kApplyNs = 600;
/// Lock-manager service time per lock transition (delivery context).
constexpr sim::Time kLockServiceNs = 300;
/// Software-flush retry backoff on ack-less networks.
constexpr sim::Time kFlushRetryNs = 2000;
/// Local copy engine speed for pack/unpack staging (bytes per ns).
constexpr double kCopyBytesPerNs = 8.0;

/// `r`'s trace track ("rank<id>").
int rank_track(trace::Recorder* tr, const runtime::Rank& r) {
  return tr->track("rank" + std::to_string(r.id()));
}

/// Instant event on `r`'s trace track, then an optional counter bump.
/// `args()` builds the argument string only when `cat` is traced.
template <class Args>
void note(runtime::Rank& r, trace::Category cat, const char* name,
          Args&& args, const char* counter = nullptr) {
  trace::Recorder* tr = trace::want(r.world().engine().tracer(), cat);
  if (tr == nullptr) return;
  tr->instant(rank_track(tr, r), cat, name, args());
  if (counter != nullptr) tr->add_counter(cat, counter);
}

portals::NumType to_num_type(dt::LeafKind k) {
  using dt::LeafKind;
  using portals::NumType;
  switch (k) {
    case LeafKind::bytes:
    case LeafKind::i8:
      return NumType::i8;
    case LeafKind::i16:
      return NumType::i16;
    case LeafKind::i32:
      return NumType::i32;
    case LeafKind::i64:
      return NumType::i64;
    case LeafKind::u64:
      return NumType::u64;
    case LeafKind::f32:
      return NumType::f32;
    case LeafKind::f64:
      return NumType::f64;
  }
  throw Panic("unknown LeafKind");
}

dt::Datatype leaf_datatype(dt::LeafKind k) {
  using dt::LeafKind;
  switch (k) {
    case LeafKind::bytes:
      return dt::Datatype::byte();
    case LeafKind::i8:
      return dt::Datatype::int8();
    case LeafKind::i16:
      return dt::Datatype::int16();
    case LeafKind::i32:
      return dt::Datatype::int32();
    case LeafKind::i64:
      return dt::Datatype::int64();
    case LeafKind::u64:
      return dt::Datatype::uint64();
    case LeafKind::f32:
      return dt::Datatype::float32();
    case LeafKind::f64:
      return dt::Datatype::float64();
  }
  throw Panic("unknown LeafKind");
}

std::uint64_t u64_to_endian_bytes(std::uint64_t v, Endian e,
                                  std::byte* out8) {
  std::memcpy(out8, &v, 8);
  if (e != host_endian()) swap_element(out8, 8);
  return v;
}

std::uint64_t u64_from_endian_bytes(const std::byte* in8, Endian e) {
  std::byte tmp[8];
  std::memcpy(tmp, in8, 8);
  if (e != host_endian()) swap_element(tmp, 8);
  std::uint64_t v = 0;
  std::memcpy(&v, tmp, 8);
  return v;
}

/// Scoped set/restore of an engine slot (the attribution parent tag, the
/// pending notify tag), so the issue paths stay exception- and
/// early-return-safe and a tag never leaks into the next op.
template <class T>
class ScopedSet {
 public:
  ScopedSet(T& slot, T v) : slot_(slot), prev_(slot) { slot_ = std::move(v); }
  ~ScopedSet() { slot_ = std::move(prev_); }
  ScopedSet(const ScopedSet&) = delete;
  ScopedSet& operator=(const ScopedSet&) = delete;

 private:
  T& slot_;
  T prev_;
};

}  // namespace

// ------------------------------------------------------------ construction

RmaEngine::RmaEngine(runtime::Rank& rank, runtime::Comm& comm,
                     EngineConfig cfg)
    : rank_(&rank),
      comm_(&comm),
      cfg_(cfg),
      ptl_(&rank.portals()),
      eq_(rank.world().engine()) {
  targets_.resize(static_cast<std::size_t>(rank.world().size()));
  target_failed_.assign(static_cast<std::size_t>(rank.world().size()), 0);
  target_failed_at_.assign(static_cast<std::size_t>(rank.world().size()), 0);
  bye_seen_.assign(static_cast<std::size_t>(rank.world().size()), 0);
  md_all_ = ptl_->md_bind(0, rank.memory().config().size, &eq_);
  auto& nic = rank.world().fabric().nic(rank.id());
  M3RMA_REQUIRE(!nic.protocol_registered(kAmProtocolId),
                "one live RmaEngine per rank at a time");
  nic.register_protocol(kAmProtocolId,
                        [this](fabric::Packet&& p) { on_am(std::move(p)); });
  death_listener_ = rank.world().fabric().add_death_listener(
      [this](int node) { on_target_failed(node); });

  if (cfg_.serializer == SerializerKind::comm_thread) {
    // The dedicated communication thread: the cheap serializer of §V-A.
    am_chan_ = std::make_shared<sim::Channel<AmMsg>>(rank.world().engine());
    rank.world().engine().spawn(
        "commthread" + std::to_string(rank.id()),
        [chan = am_chan_, alive = alive_, self = this](sim::Context& ctx) {
          while (true) {
            AmMsg m = chan->recv(ctx);
            // `alive` clears in dispose(): a message still queued when the
            // engine went away (a killed rank unwinding mid-service) must
            // not execute — `self` no longer exists.
            if (m.src == -2 || !*alive) return;
            if (!self->serve(ctx, std::move(m))) return;
          }
        },
        /*daemon=*/true);
  }
  try {
    comm_->barrier();  // everyone is wired up before any RMA flows
  } catch (...) {
    // Killed (or failed) during the wire-up barrier: release the protocol
    // and the death listener before the half-built engine is abandoned.
    dispose();
    throw;
  }
}

RmaEngine::~RmaEngine() {
  try {
    quiesce();
  } catch (...) {
    // Teardown during stack unwinding: skip the collective handshake.
  }
  dispose();
}

void RmaEngine::dispose() {
  if (disposed_) return;
  disposed_ = true;
  shutting_down_ = true;
  if (death_listener_ != -1) {
    rank_->world().fabric().remove_death_listener(death_listener_);
    death_listener_ = -1;
  }
  *alive_ = false;
  if (am_chan_) am_chan_->push(AmMsg{-2, {}, {}});
  auto& nic = rank_->world().fabric().nic(rank_->id());
  if (nic.protocol_registered(kAmProtocolId)) {
    nic.unregister_protocol(kAmProtocolId);
  }
  for (auto& [id, a] : attached_) ptl_->me_unlink(a.me);
  attached_.clear();
  for (const auto& [id, q] : notify_queues_) ptl_->clear_notify_sink(id);
  notify_queues_.clear();
  // Replica regions hosted for other ranks (std::map: deterministic
  // dealloc order, so the domain's free list evolves identically run-to-run).
  for (const auto& [id, buf] : replica_bufs_) rank_->memory().dealloc(buf);
  replica_bufs_.clear();
  repl_windows_.clear();
  mat_gate_.clear();
  pre_adopt_gate_.clear();
  ptl_->md_release(md_all_);
}

void RmaEngine::quiesce() {
  complete(kAllRanks);
  quiescing_ = true;  // stop initiating re-replication; keep serving
  if (!fwd_hold_.empty()) {
    // A repair confirmation lost to a primary that disposed before serving
    // it must not strand held mirrors past teardown: put the deferred
    // tails on the wire before draining. (Lazy mode takes no holds, so its
    // deferred log is untouched here.)
    fwd_hold_.clear();
    for (const auto& [b, led] : repl_out_) {
      if (target_failed_[static_cast<std::size_t>(b)] == 0 &&
          led.flushed < led.sent) {
        flush_deferred(b);
      }
    }
  }
  const auto drained = [&] {
    for (const auto& [b, led] : repl_out_) {
      if (target_failed_[static_cast<std::size_t>(b)] == 0 &&
          led.acked < led.flushed) {
        return false;
      }
    }
    return true;
  };
  if (!repl_out_.empty()) {
    // Drain the mirror streams before leaving: every mirror must be applied
    // and acked (or its backup dead) while both engines still hold the AM
    // protocol.
    progress_until(drained);
  }
  if (rank_->world().config().replication.enabled && comm_->size() > 1) {
    // Fault-robust teardown: say bye to every member, then park — still
    // serving replicas, probes and adoption streams — until every member has
    // either said bye or died. A dissemination barrier would release us the
    // instant a round partner dies, tearing this engine down while a
    // re-replication burst or retargeted op may still be headed here. Byes
    // to silently-dead members ride the reliability layer, so they drive
    // endogenous detection exactly like any other unacked traffic.
    AmHdr h;
    h.kind = AmHdr::Kind::bye;
    for (const int m : comm_->members()) {
      if (m == rank_->id()) continue;
      if (target_failed_[static_cast<std::size_t>(m)] != 0) continue;
      send_am(m, h, {});
    }
    // (drained first: serving may refill a forward ledger)
    progress_until([&] { return drained() && peers_quiesced(); });
  } else {
    comm_->barrier();
  }
}

bool RmaEngine::peers_quiesced() const {
  if (!quiescing_) return false;
  for (const int m : comm_->members()) {
    if (m == rank_->id()) continue;
    if (bye_seen_[static_cast<std::size_t>(m)] == 0 &&
        target_failed_[static_cast<std::size_t>(m)] == 0) {
      return false;
    }
  }
  return true;
}

// --------------------------------------------------------------- attaching

TargetMem RmaEngine::attach(std::uint64_t addr, std::uint64_t length) {
  M3RMA_REQUIRE(length > 0, "attach of empty region");
  M3RMA_REQUIRE(rank_->memory().contains(addr, length),
                "attach region outside this rank's memory");
  const std::uint64_t id =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(rank_->id()))
       << 32) |
      next_attach_++;
  const portals::MeHandle me =
      ptl_->me_append(kPtData, id, 0, addr, length, nullptr);
  attached_.emplace(id, Attached{addr, length, me});
  // Notification queue for this window, registered before any origin can
  // learn the handle: a notified op can never land unheard. Creating it is
  // simulation-invisible (no time, no traffic) so unused windows stay
  // byte-identical.
  register_notify_queue(id);

  const auto& mc = rank_->memory().config();
  TargetMem t;
  t.owner = rank_->id();
  t.id = id;
  t.base = addr;
  t.length = length;
  t.endian = mc.endian;
  t.addr_bits = static_cast<std::uint8_t>(mc.addr_bits);
  t.noncoherent = mc.coherence == memsim::Coherence::noncoherent_writethrough;

  const auto& rp = rank_->world().config().replication;
  if (rp.enabled && rank_->world().size() > 1) {
    const int nranks = rank_->world().size();
    int backup = (rank_->id() + rp.backup_offset) % nranks;
    if (backup < 0) backup += nranks;
    if (backup != rank_->id() &&
        target_failed_[static_cast<std::size_t>(backup)] == 0) {
      // Synchronous replica registration round trip. Origins can only learn
      // of the handle after attach returns, so every mirror strictly follows
      // the backup's repl_ready — a mirror can never race its replica's
      // creation. If the backup dies mid-wait, the pending request is
      // drained with an error and the window is created unreplicated.
      auto st = new_req(backup, 1);
      charge_inject();
      AmHdr h;
      h.kind = AmHdr::Kind::repl_create;
      h.mem_id = id;
      h.length = length;
      h.req_id = st->id;
      h.value_a = static_cast<std::uint64_t>(mc.endian);
      send_am(backup, h, {});
      progress_until([st] { return st->done; });
      if (st->status == OpStatus::ok && st->rmw_value == 1) t.backup = backup;
    }
    if (t.backup >= 0) {
      repl_windows_.emplace(id, ReplWindow{length, t.backup, -1, false});
    }
  }
  return t;
}

TargetMem RmaEngine::attach(const runtime::Rank::Buffer& buf) {
  return attach(buf.addr, buf.size);
}

void RmaEngine::detach(const TargetMem& mem) {
  M3RMA_REQUIRE(mem.owner == rank_->id(), "detach must run on the owner");
  auto it = attached_.find(mem.id);
  M3RMA_REQUIRE(it != attached_.end(), "detach of unknown TargetMem");
  ptl_->me_unlink(it->second.me);
  attached_.erase(it);
  repl_windows_.erase(mem.id);
  ptl_->clear_notify_sink(mem.id);
  notify_queues_.erase(mem.id);
}

std::vector<TargetMem> RmaEngine::exchange_all(const TargetMem& mine) {
  TargetMem to_ship = mine;
  if (!to_ship.valid()) to_ship = TargetMem{};
  auto blob = to_ship.serialize();
  auto all = comm_->allgather(blob);
  std::vector<TargetMem> out;
  out.reserve(all.size());
  for (const auto& b : all) {
    // Dead ranks contribute an empty slot to the degraded allgather; give
    // the caller an invalid handle rather than panicking in deserialize.
    out.push_back(b.empty() ? TargetMem{} : TargetMem::deserialize(b));
  }
  return out;
}

std::pair<runtime::Rank::Buffer, std::vector<TargetMem>>
RmaEngine::allocate_shared(std::uint64_t bytes, std::uint64_t align) {
  runtime::Rank::Buffer buf = rank_->alloc(bytes, align);
  auto mems = exchange_all(attach(buf.addr, buf.size));
  return {buf, std::move(mems)};
}

// ------------------------------------------------------------ public ops

Request RmaEngine::put(std::uint64_t origin_addr, std::uint64_t origin_count,
                       const dt::Datatype& origin_dt, const TargetMem& mem,
                       std::uint64_t target_disp, std::uint64_t target_count,
                       const dt::Datatype& target_dt, int target_rank,
                       Attrs attrs) {
  return do_xfer(RmaOptype::put, portals::AccOp::replace, origin_addr,
                 origin_count, origin_dt, mem, target_disp, target_count,
                 target_dt, target_rank, attrs);
}

Request RmaEngine::get(std::uint64_t origin_addr, std::uint64_t origin_count,
                       const dt::Datatype& origin_dt, const TargetMem& mem,
                       std::uint64_t target_disp, std::uint64_t target_count,
                       const dt::Datatype& target_dt, int target_rank,
                       Attrs attrs) {
  return do_xfer(RmaOptype::get, portals::AccOp::replace, origin_addr,
                 origin_count, origin_dt, mem, target_disp, target_count,
                 target_dt, target_rank, attrs);
}

Request RmaEngine::accumulate(portals::AccOp op, std::uint64_t origin_addr,
                              std::uint64_t origin_count,
                              const dt::Datatype& origin_dt,
                              const TargetMem& mem, std::uint64_t target_disp,
                              std::uint64_t target_count,
                              const dt::Datatype& target_dt, int target_rank,
                              Attrs attrs) {
  return do_xfer(RmaOptype::accumulate, op, origin_addr, origin_count,
                 origin_dt, mem, target_disp, target_count, target_dt,
                 target_rank, attrs);
}

Request RmaEngine::xfer(RmaOptype op, portals::AccOp acc_op,
                        std::uint64_t origin_addr,
                        std::uint64_t origin_count,
                        const dt::Datatype& origin_dt, const TargetMem& mem,
                        std::uint64_t target_disp,
                        std::uint64_t target_count,
                        const dt::Datatype& target_dt, int target_rank,
                        Attrs attrs) {
  return do_xfer(op, acc_op, origin_addr, origin_count, origin_dt, mem,
                 target_disp, target_count, target_dt, target_rank, attrs);
}

Request RmaEngine::put_bytes(std::uint64_t origin_addr, const TargetMem& mem,
                             std::uint64_t target_disp, std::uint64_t length,
                             int target_rank, Attrs attrs) {
  const auto b = dt::Datatype::byte();
  return put(origin_addr, length, b, mem, target_disp, length, b,
             target_rank, attrs);
}

Request RmaEngine::get_bytes(std::uint64_t origin_addr, const TargetMem& mem,
                             std::uint64_t target_disp, std::uint64_t length,
                             int target_rank, Attrs attrs) {
  const auto b = dt::Datatype::byte();
  return get(origin_addr, length, b, mem, target_disp, length, b,
             target_rank, attrs);
}

// ---------------------------------------------------------- notified access

Request RmaEngine::put_notify(std::uint64_t origin_addr, const TargetMem& mem,
                              std::uint64_t target_disp, std::uint64_t length,
                              int target_rank, std::uint32_t tag,
                              Attrs attrs) {
  M3RMA_REQUIRE(length > 0, "notified put of zero bytes: a notification "
                            "must witness data");
  stats_.notifies_sent += 1;
  ScopedSet<std::optional<std::uint32_t>> scope(notify_tag_, tag);
  return put_bytes(origin_addr, mem, target_disp, length, target_rank, attrs);
}

Request RmaEngine::get_notify(std::uint64_t origin_addr, const TargetMem& mem,
                              std::uint64_t target_disp, std::uint64_t length,
                              int target_rank, std::uint32_t tag,
                              Attrs attrs) {
  M3RMA_REQUIRE(length > 0, "notified get of zero bytes: a notification "
                            "must witness data");
  stats_.notifies_sent += 1;
  ScopedSet<std::optional<std::uint32_t>> scope(notify_tag_, tag);
  return get_bytes(origin_addr, mem, target_disp, length, target_rank, attrs);
}

notify::NotifyQueue& RmaEngine::notify_queue(const TargetMem& mem) {
  auto it = notify_queues_.find(mem.id);
  M3RMA_REQUIRE(it != notify_queues_.end(),
                "notify_queue: this rank hosts no copy of that window");
  return *it->second;
}

void RmaEngine::register_notify_queue(std::uint64_t mem_id) {
  auto nq = std::make_unique<notify::NotifyQueue>(rank_->world().engine());
  ptl_->set_notify_sink(mem_id, [this, mem_id](const portals::Event& ev) {
    fire_notify_local(mem_id, notify::Notification{ev.initiator, ev.tag,
                                                   ev.length,
                                                   ev.remote_offset});
  });
  notify_queues_.emplace(mem_id, std::move(nq));
}

void RmaEngine::fire_notify_local(std::uint64_t mem_id,
                                  const notify::Notification& n) {
  auto it = notify_queues_.find(mem_id);
  if (it == notify_queues_.end()) {
    // No live copy here (detached, or a re-arm raced this rank's death
    // announcement): the consumer is gone, count it rather than lose it
    // silently.
    stats_.notifies_dropped += 1;
    return;
  }
  it->second->push(n);
  stats_.notifies_fired += 1;
}

void RmaEngine::rearm_notify(const Request::State& st) {
  if (!st.notify || st.repl_backup < 0) return;
  if (target_failed_[static_cast<std::size_t>(st.repl_backup)] != 0) return;
  AmHdr h;
  h.kind = AmHdr::Kind::notify_fire;
  h.mem_id = st.repl_mem.id;
  h.offset = st.notify_disp;
  h.length = st.notify_bytes;
  h.value_a = st.notify_tag;
  send_am(st.repl_backup, h, {});
  stats_.notifies_rearmed += 1;
}

// --------------------------------------------------------------- core issue

Request RmaEngine::do_xfer(RmaOptype op, portals::AccOp acc_op,
                           std::uint64_t origin_addr,
                           std::uint64_t origin_count,
                           const dt::Datatype& origin_dt,
                           const TargetMem& mem, std::uint64_t target_disp,
                           std::uint64_t target_count,
                           const dt::Datatype& target_dt, int target_rank,
                           Attrs attrs) {
  attrs = attrs | cfg_.default_attrs;
  M3RMA_REQUIRE(mem.valid(), "transfer to an invalid TargetMem");
  M3RMA_REQUIRE(comm_->to_world(target_rank) == mem.owner,
                "target_rank does not own this TargetMem");
  M3RMA_REQUIRE(origin_dt.matches(origin_count, target_dt, target_count),
                "origin/target datatype signatures do not match");
  const std::uint64_t target_span = target_dt.extent() * target_count;
  M3RMA_REQUIRE(target_disp + target_span <= mem.length,
                "transfer exceeds the target memory object");
  const std::uint64_t origin_span = origin_dt.extent() * origin_count;
  M3RMA_REQUIRE(rank_->memory().contains(origin_addr,
                                         std::max<std::uint64_t>(origin_span,
                                                                 1)),
                "origin buffer outside this rank's memory");
  if (op == RmaOptype::accumulate) {
    M3RMA_REQUIRE(target_dt.has_uniform_leaf(),
                  "accumulate requires a uniform-leaf target datatype");
  }

  switch (op) {
    case RmaOptype::put:
      stats_.puts += 1;
      break;
    case RmaOptype::get:
      stats_.gets += 1;
      break;
    case RmaOptype::accumulate:
      stats_.accumulates += 1;
      break;
  }

  bool can_serve = true;
  OpStatus fail_status = OpStatus::ok;
  const TargetMem eff = effective_mem(mem, &can_serve, &fail_status);
  if (!can_serve) {
    // Fail fast: neither the target nor a replica can serve the op, so
    // don't touch the wire — hand back a pre-completed request carrying
    // the error.
    stats_.failed_fast += 1;
    if (auto* tr = trace::want(rank_->world().engine().tracer(),
                               trace::Category::rma)) {
      tr->add_counter(trace::Category::rma, "rma.failed_fast");
    }
    auto dead = new_req(mem.owner);
    settle(*dead, fail_status);
    return Request(this, std::move(dead));
  }

  auto st = new_req(eff.owner);
  if (notify_tag_) {
    // Read, not consumed: the reissue-from-scratch recursion below must
    // re-apply the tag to the replacement request.
    st->notify = true;
    st->notify_tag = *notify_tag_;
    st->notify_bytes = target_dt.size() * target_count;
    st->notify_disp = target_disp;
  }

  const char* opname = op == RmaOptype::put         ? "rma.put"
                       : op == RmaOptype::get       ? "rma.get"
                                                    : "rma.accumulate";
  if (auto* tr = trace::want(rank_->world().engine().tracer(),
                             trace::Category::rma)) {
    st->trace_span = tr->span_begin(
        rank_track(tr, *rank_), trace::Category::rma, opname,
        "attrs=" + attrs.describe() +
            " bytes=" + std::to_string(target_dt.size() * target_count) +
            " target=" + std::to_string(eff.owner));
    st->trace_t0 = tr->now();
    st->trace_hist = std::string(opname) + "[" + attrs.describe() + "]";
  }
  if (auto* tl = trace::timeline(rank_->world().engine().tracer())) {
    tl->op_begin(trace::op_tag(rank_->id(), st->id), opname, attrs.describe(),
                 cfg_.api_label, rank_->world().engine().now());
    st->op_tracked = true;
  }

  // Ordering property: on unordered networks an ordered op (or the first op
  // after order()) must not overtake earlier traffic — drain first.
  if (attrs.has(RmaAttr::ordering) || per(eff.owner).order_fence) {
    stall_for_order(eff.owner);
  }

  if (attrs.has(RmaAttr::atomicity) &&
      cfg_.serializer == SerializerKind::coarse_lock) {
    issue_locked_op(st, op, acc_op, origin_addr, origin_count, origin_dt,
                    eff, mem, target_disp, target_count, target_dt, attrs);
  } else {
    // Atomic ops go to the target's serializer. So does accumulate without
    // NIC atomics: element atomicity needs target-side software (§III-B1),
    // even without the atomicity attribute.
    const bool via_am =
        attrs.has(RmaAttr::atomicity) ||
        (op == RmaOptype::accumulate && !ptl_->supports_atomics());
    issue_blocks(st, op, acc_op, via_am, origin_addr, origin_count,
                 origin_dt, eff, target_disp, target_count, target_dt, attrs);
  }

  if (st->repl_backup >= 0) {
    // Rescue state keeps the ORIGINAL handle: a later chain re-walk must
    // trust only the attach-time owner/backup pair and probe anyone else.
    st->repl_mem = mem;
  }

  if (st->pending == 0 && !st->done) settle(*st);  // zero-byte transfer

  if (st->done && st->status == OpStatus::target_failed && mem.backup >= 0) {
    // The target died while this op was still being injected: the fault
    // drain found a request with no block (and hence no mirror) on the wire
    // yet, which it cannot rescue. Nothing was sent, so reissue from
    // scratch — the effective-target resolution now lands on the backup,
    // or fails fast for real if the backup is gone too.
    switch (op) {
      case RmaOptype::put:
        stats_.puts -= 1;
        break;
      case RmaOptype::get:
        stats_.gets -= 1;
        break;
      case RmaOptype::accumulate:
        stats_.accumulates -= 1;
        break;
    }
    return do_xfer(op, acc_op, origin_addr, origin_count, origin_dt, mem,
                   target_disp, target_count, target_dt, target_rank, attrs);
  }
  Request req(this, st);
  if (attrs.has(RmaAttr::blocking)) req.wait();
  return req;
}

void RmaEngine::issue_blocks(const std::shared_ptr<Request::State>& st,
                             RmaOptype op, portals::AccOp acc_op, bool via_am,
                             std::uint64_t origin_addr,
                             std::uint64_t origin_count,
                             const dt::Datatype& origin_dt,
                             const TargetMem& mem, std::uint64_t target_disp,
                             std::uint64_t target_count,
                             const dt::Datatype& target_dt, Attrs attrs) {
  const int t = mem.owner;
  const bool is_get = op == RmaOptype::get;
  const bool is_acc = op == RmaOptype::accumulate;
  const bool same_endian = mem.endian == rank_->memory().config().endian;
  const bool fast = origin_dt.is_contiguous() && target_dt.is_contiguous() &&
                    same_endian;
  const portals::NumType nt =
      is_acc ? to_num_type(target_dt.uniform_leaf()) : portals::NumType::i8;
  const std::uint64_t packed_len = target_dt.size() * target_count;
  // Read where used: packing yields, and the backup may die meanwhile.
  const auto backup_live = [&] {
    return mem.backup >= 0 &&
           target_failed_[static_cast<std::size_t>(mem.backup)] == 0;
  };

  // Completion discipline: only remote-completion direct ops request
  // hardware ACKs (Portals PTL_ACK_REQ); plain ops complete locally at SEND
  // and are flushed by count queries at completion points. AM ops are
  // always confirmed by the executor's software op_ack, gets by replies.
  const bool rc = attrs.has(RmaAttr::remote_completion);
  const bool acks = ptl_->supports_ack_events();
  const bool want_ack = !via_am && rc && acks;
  st->counts_send = !is_get && !via_am && !want_ack;

  std::uint64_t staging = 0;  // packed put/accumulate operand, if not `fast`
  bool mirror = false;
  if (is_get) {
    st->is_get = true;
    st->origin_addr = origin_addr;
    st->origin_count = origin_count;
    st->origin_dt = origin_dt;
    st->target_dt = target_dt;
    st->target_count = target_count;
    if (backup_live()) {
      // Rescue parameters: if the owner dies mid-flight this get is
      // re-driven at the backup as a direct get (drain_reissues); replica
      // reads need no serializer, mirrors apply in stream order there.
      st->repl_backup = mem.backup;
      st->repl_mem = mem;
      st->repl_disp = target_disp;
    }
    if (fast) {
      st->dest_addr = origin_addr;
    } else {
      st->staging_len = std::max<std::uint64_t>(packed_len, 1);
      st->dest_addr = rank_->memory().alloc(st->staging_len);
      st->needs_unpack = true;
      st->needs_swap = !same_endian;
      // Prepay the local gather/scatter cost (completion runs in event
      // context where time cannot be charged).
      charge_copy(packed_len);
    }
  } else {
    if (!fast) {
      staging = pack_origin(origin_addr, origin_count, origin_dt, target_dt,
                            target_count, mem.endian);
    }
    mirror = backup_live();
  }
  const std::uint64_t src_base = staging != 0 ? staging : origin_addr;

  sim::Context& ctx = rank_->ctx();
  const std::uint64_t tag = trace::op_tag(rank_->id(), st->id);
  auto issue_block = [&](std::uint64_t mem_off, std::uint64_t packed_off,
                         std::uint64_t len) {
    if (len == 0) return;
    // A notified op carries its notification on the LAST block only:
    // ordered delivery applies it after every earlier block, so one
    // notification witnesses the whole transfer.
    const bool nfy = st->notify && packed_off + len == packed_len;
    const std::uint64_t offset = target_disp + mem_off;
    if (via_am) {
      charge_inject(tag);
      AmHdr h;
      h.kind = AmHdr::Kind::data_op;
      h.op = op;
      h.mem_id = mem.id;
      h.offset = offset;
      h.length = len;
      h.req_id = st->id;
      // Notify marker: bit 32 set, low 32 bits the user tag (value_b is
      // unused by data_op otherwise).
      if (nfy) h.value_b = (1ULL << 32) | st->notify_tag;
      std::vector<std::byte> payload;
      if (is_get) {
        h.value_a = packed_off;  // echoed back as the reply's placement
      } else {
        h.acc = acc_op;
        h.nt = nt;
        payload.resize(len);
        rank_->memory().nic_read(src_base + packed_off, payload);
      }
      send_am(t, h, std::move(payload), tag);
    } else if (is_get) {
      ptl_->get(ctx, md_all_, st->dest_addr + packed_off, len, t, kPtData,
                mem.id, offset, st->id, nfy, st->notify_tag);
    } else if (is_acc) {
      ptl_->atomic(ctx, acc_op, nt, md_all_, src_base + packed_off, len, t,
                   kPtData, mem.id, offset, st->id, want_ack, nfy,
                   st->notify_tag);
    } else {
      ptl_->put(ctx, md_all_, src_base + packed_off, len, t, kPtData, mem.id,
                offset, st->id, want_ack, nfy, st->notify_tag);
    }
    if (is_get) {
      per(t).pending_replies += 1;
    } else {
      per(t).issued += 1;
      if (via_am || want_ack) per(t).issued_rc += 1;
    }
    st->pending += 1;
    if (mirror) {
      // The packed bytes are already in the primary's byte order, which the
      // backup shares (replicas are endian-matched at creation).
      mirror_block(st, is_acc, acc_op, nt, mem, offset, src_base + packed_off,
                   len);
    }
  };
  if (fast) {
    issue_block(0, 0, packed_len);
  } else {
    target_dt.for_each_block(target_count, [&](const dt::Block& b) {
      issue_block(b.mem_offset, b.packed_offset, b.nbytes());
    });
  }
  if (staging != 0) rank_->memory().dealloc(staging);

  if (!is_get && !via_am && rc && !acks) {
    // Software remote completion: confirm with a landed-count query.
    st->pending += 1;
    st->flush_threshold = per(t).issued;
    charge_inject(tag);
    AmHdr q;
    q.kind = AmHdr::Kind::count_query;
    q.req_id = st->id;
    send_am(t, q, {}, tag);
  }
}

void RmaEngine::issue_locked_op(const std::shared_ptr<Request::State>& st,
                                RmaOptype op, portals::AccOp acc_op,
                                std::uint64_t origin_addr,
                                std::uint64_t origin_count,
                                const dt::Datatype& origin_dt,
                                const TargetMem& mem,
                                const TargetMem& orig_mem,
                                std::uint64_t target_disp,
                                std::uint64_t target_count,
                                const dt::Datatype& target_dt, Attrs attrs) {
  const int t = mem.owner;
  // Attribution: the lock acquire and the inner get/put are child requests
  // of this op — alias their tags so their work lands on the parent.
  const std::uint64_t ptag = trace::op_tag(rank_->id(), st->id);
  auto* tl = trace::timeline(rank_->world().engine().tracer());
  const bool attr = tl != nullptr && tl->tracks(ptag);
  ScopedSet<std::uint64_t> parent_scope(attr_parent_,
                                        attr ? ptag : attr_parent_);
  // One blocking data-moving child, issued directly at the locked target.
  // For a notified op the child that carries the user's data inherits the
  // tag (and with it the wire fire and any failover re-arm).
  auto issue_child = [&](RmaOptype cop, portals::AccOp cacc,
                         std::uint64_t addr, std::uint64_t count,
                         const dt::Datatype& cdt, bool notified,
                         Attrs cattrs) {
    auto c = new_req(t);
    if (attr) tl->alias(trace::op_tag(rank_->id(), c->id), ptag);
    if (notified && st->notify) {
      c->notify = true;
      c->notify_tag = st->notify_tag;
      c->notify_bytes = st->notify_bytes;
      c->notify_disp = st->notify_disp;
    }
    issue_blocks(c, cop, cacc, false, addr, count, cdt, mem, target_disp,
                 target_count, target_dt, cattrs);
    return c;
  };
  // Mid-sequence death of a replicated target: re-walk the succession chain
  // from the original handle and re-drive the whole locked sequence at the
  // acting primary (whose own lock manager serializes there). The chain
  // strictly advances past dead ranks, so recursion terminates.
  auto retry_at_backup = [&]() -> bool {
    if (orig_mem.backup < 0 ||
        target_failed_[static_cast<std::size_t>(mem.owner)] == 0) {
      return false;
    }
    bool ok = false;
    OpStatus s = OpStatus::target_failed;
    const TargetMem eff = effective_mem(orig_mem, &ok, &s);
    if (!ok || eff.owner == mem.owner) return false;
    issue_locked_op(st, op, acc_op, origin_addr, origin_count, origin_dt, eff,
                    orig_mem, target_disp, target_count, target_dt, attrs);
    return true;
  };
  // Mid-operation target death: unless the sequence is re-driven at the
  // backup, complete the op with the error (on_target_failed may already
  // have drained it). Either way there is no lock manager left, so skip
  // the release.
  auto fail_out = [&](OpStatus s) {
    if (!retry_at_backup() && !st->done) settle(*st, s);
  };
  if (!lock_acquire(t)) {
    fail_out(mem.backup >= 0 ? OpStatus::replica_lost
                             : OpStatus::target_failed);
    return;
  }
  const Attrs inner = Attrs(RmaAttr::blocking) | RmaAttr::remote_completion;
  if (op == RmaOptype::accumulate && !ptl_->supports_atomics()) {
    // Get-modify-put under the lock: the classic emulation when neither NIC
    // atomics nor an extra execution context exist. The local image is kept
    // in this node's byte order; the direct get/put paths convert on the
    // wire as usual.
    const dt::LeafKind leaf = target_dt.uniform_leaf();
    const std::uint64_t bytes = target_dt.size() * target_count;
    const std::uint64_t es = portals::num_size(to_num_type(leaf));
    const dt::Datatype local_dt =
        dt::Datatype::contiguous(bytes / es, leaf_datatype(leaf));
    auto tmp = rank_->memory().alloc(std::max<std::uint64_t>(bytes, 1));
    auto g = issue_child(RmaOptype::get, portals::AccOp::replace, tmp, 1,
                         local_dt, false, Attrs::none());
    progress_until([g] { return g->done; });
    if (g->status != OpStatus::ok) {
      rank_->memory().dealloc(tmp);
      fail_out(g->status);
      return;
    }
    // Combine with the packed operand (both sides in this node's order).
    const std::uint64_t staging =
        rank_->memory().alloc(std::max<std::uint64_t>(bytes, 1));
    origin_dt.pack(rank_->memory().raw(origin_addr), origin_count,
                   rank_->memory().raw(staging));
    charge_copy(bytes);
    portals::apply_acc(acc_op, to_num_type(leaf), rank_->memory().raw(tmp),
                       rank_->memory().raw(staging), bytes,
                       rank_->memory().config().endian);
    auto p = issue_child(RmaOptype::put, portals::AccOp::replace, tmp, 1,
                         local_dt, false, inner);
    progress_until([p] { return p->done; });
    if (p->status != OpStatus::ok) {
      rank_->memory().dealloc(staging);
      rank_->memory().dealloc(tmp);
      fail_out(p->status);
      return;
    }
    flush_target(t);
    rank_->memory().dealloc(staging);
    rank_->memory().dealloc(tmp);
  } else if (op == RmaOptype::get) {
    auto g = issue_child(op, acc_op, origin_addr, origin_count, origin_dt,
                         true, Attrs::none());
    progress_until([g] { return g->done; });
    if (g->status != OpStatus::ok) {
      fail_out(g->status);
      return;
    }
  } else {
    // FIFO delivery lets the release ride right behind the data: the next
    // grant can only be issued after the put has been applied, so atomicity
    // holds without stalling a full ACK round trip.
    const bool ordered = rank_->world().config().caps.ordered_delivery;
    auto p = issue_child(op, acc_op, origin_addr, origin_count, origin_dt,
                         true,
                         ordered ? Attrs(RmaAttr::remote_completion) : inner);
    if (ordered) lock_release(t);
    progress_until([p] { return p->done; });
    if (p->status != OpStatus::ok) {
      fail_out(p->status);
      return;
    }
    if (ordered) {
      if (!st->done) settle(*st);
      return;
    }
    flush_target(t);
  }
  lock_release(t);
  if (!st->done) settle(*st);
}

// ----------------------------------------------------------------- staging

std::uint64_t RmaEngine::pack_origin(std::uint64_t origin_addr,
                                     std::uint64_t origin_count,
                                     const dt::Datatype& origin_dt,
                                     const dt::Datatype& target_dt,
                                     std::uint64_t target_count,
                                     Endian target_endian) {
  const std::uint64_t bytes = origin_dt.size() * origin_count;
  const std::uint64_t staging =
      rank_->memory().alloc(std::max<std::uint64_t>(bytes, 1));
  origin_dt.pack(rank_->memory().raw(origin_addr), origin_count,
                 rank_->memory().raw(staging));
  charge_copy(bytes);
  if (target_endian != rank_->memory().config().endian) {
    target_dt.byteswap_packed(rank_->memory().raw(staging), target_count);
  }
  return staging;
}

void RmaEngine::charge_inject(std::uint64_t tag) {
  sim::Context& ctx = rank_->ctx();
  const sim::Time t0 = ctx.now();
  ctx.delay(rank_->world().config().costs.inject_overhead_ns);
  auto* tl = trace::timeline(rank_->world().engine().tracer());
  if (tl != nullptr && tl->tracks(tag)) {
    tl->add(tag, trace::Segment::inject, t0, ctx.now());
  }
}

void RmaEngine::charge_copy(std::uint64_t bytes) {
  if (bytes == 0) return;
  rank_->ctx().delay(
      static_cast<sim::Time>(static_cast<double>(bytes) / kCopyBytesPerNs));
}

// ------------------------------------------------- ordering and completion

RmaEngine::PerTarget& RmaEngine::per(int world_rank) {
  return targets_[static_cast<std::size_t>(world_rank)];
}
const RmaEngine::PerTarget& RmaEngine::per(int world_rank) const {
  return targets_[static_cast<std::size_t>(world_rank)];
}

bool RmaEngine::target_quiet(int world_target) const {
  const PerTarget& pt = per(world_target);
  return pt.confirmed >= pt.issued && pt.pending_replies == 0;
}

void RmaEngine::stall_for_order(int world_target) {
  per(world_target).order_fence = false;
  if (rank_->world().config().caps.ordered_delivery) return;  // free
  flush_target(world_target);
}

void RmaEngine::flush_target(int world_target) {
  flush_many({world_target});
}

void RmaEngine::flush_many(const std::vector<int>& world_targets) {
  // Failed targets are excluded throughout: their ops were drained with an
  // error status and their counters reconciled by on_target_failed, and a
  // target that dies while we wait flips its flag and wakes us via the same
  // notification, so neither phase can hang on a dead rank.
  auto dead = [&](int t) {
    return target_failed_[static_cast<std::size_t>(t)] != 0;
  };
  // Phase 1: wait for outstanding get/RMW replies and all expected
  // confirmations (hardware ACKs / software op_acks).
  progress_until([&] {
    for (int t : world_targets) {
      if (dead(t)) continue;
      const PerTarget& pt = per(t);
      if (pt.pending_replies != 0 || pt.acked < pt.issued_rc) return false;
      if (!repl_out_.empty()) {
        // t may be a backup whose mirror stream carries rescued ops:
        // completion must wait for the stream to flush (which also finishes
        // every parked waiter and unblocks queued get re-drives).
        const auto lit = repl_out_.find(t);
        if (lit != repl_out_.end() &&
            lit->second.acked < lit->second.flushed) {
          return false;
        }
      }
    }
    return true;
  });
  // ACKs prove remote completion op-for-op when every op requested one.
  for (int t : world_targets) {
    if (dead(t)) continue;
    PerTarget& pt = per(t);
    if (pt.issued_rc == pt.issued) pt.confirmed = pt.issued;
  }

  // Phase 2: targets with unconfirmed (ack-less) ops need a software
  // count-query flush — concurrently across targets.
  std::vector<std::shared_ptr<Request::State>> probes;
  std::vector<int> probe_targets;
  for (int t : world_targets) {
    if (dead(t) || target_quiet(t)) continue;
    auto st = new_req(t, 1);
    st->flush_threshold = per(t).issued;
    charge_inject();
    AmHdr q;
    q.kind = AmHdr::Kind::count_query;
    q.req_id = st->id;
    send_am(t, q, {});
    probes.push_back(std::move(st));
    probe_targets.push_back(t);
  }
  progress_until([&] {
    for (const auto& st : probes) {
      if (!st->done) return false;
    }
    return true;
  });
  for (std::size_t i = 0; i < probes.size(); ++i) {
    // A probe whose target died mid-flush was drained, not answered; that
    // target's ops are error-completed, not confirmed.
    if (probes[i]->status == OpStatus::ok) {
      per(probe_targets[i]).confirmed = per(probe_targets[i]).issued;
    }
  }
}

std::vector<int> RmaEngine::complete(int target_rank) {
  stats_.completes += 1;
  trace::SpanHandle h = 0;
  if (auto* tr = trace::want(rank_->world().engine().tracer(),
                             trace::Category::rma)) {
    h = tr->span_begin(rank_track(tr, *rank_), trace::Category::rma,
                       "rma.complete",
                       target_rank == kAllRanks
                           ? std::string("target=all")
                           : "target=" + std::to_string(target_rank));
  }
  std::vector<int> comm_targets;
  if (target_rank == kAllRanks) {
    comm_targets.reserve(static_cast<std::size_t>(comm_->size()));
    for (int r = 0; r < comm_->size(); ++r) comm_targets.push_back(r);
  } else {
    comm_targets.push_back(target_rank);
  }
  std::vector<int> world_targets;
  world_targets.reserve(comm_targets.size());
  for (int r : comm_targets) world_targets.push_back(comm_->to_world(r));
  try {
    flush_many(world_targets);
  } catch (...) {
    // This rank was killed mid-flush: close the span before unwinding.
    if (h != 0) rank_->world().engine().tracer()->span_end(h);
    throw;
  }
  std::vector<int> failed;
  for (std::size_t i = 0; i < comm_targets.size(); ++i) {
    if (target_failed_[static_cast<std::size_t>(world_targets[i])] != 0) {
      failed.push_back(comm_targets[i]);
    }
  }
  if (h != 0) rank_->world().engine().tracer()->span_end(h);
  return failed;
}

std::vector<int> RmaEngine::complete_collective() {
  std::vector<int> failed = complete(kAllRanks);
  comm_->barrier();
  return failed;
}

void RmaEngine::order(int target_rank) {
  stats_.orders += 1;
  if (rank_->world().config().caps.ordered_delivery) return;  // free
  if (target_rank == kAllRanks) {
    for (int r = 0; r < comm_->size(); ++r) {
      per(comm_->to_world(r)).order_fence = true;
    }
  } else {
    per(comm_->to_world(target_rank)).order_fence = true;
  }
}

void RmaEngine::order_collective() {
  order(kAllRanks);
  comm_->barrier();
}

std::uint64_t RmaEngine::outstanding(int target_rank) const {
  const PerTarget& pt = per(comm_->to_world(target_rank));
  return (pt.issued - std::min(pt.confirmed, pt.issued)) +
         pt.pending_replies;
}

bool RmaEngine::target_failed(int target_rank) const {
  const int w = comm_->to_world(target_rank);
  return target_failed_[static_cast<std::size_t>(w)] != 0;
}

sim::Time RmaEngine::target_failed_at(int target_rank) const {
  const int w = comm_->to_world(target_rank);
  return target_failed_at_[static_cast<std::size_t>(w)];
}

// ---------------------------------------------------------- failure detector

void RmaEngine::on_target_failed(int node) {
  if (node == rank_->id()) return;  // our own death; the process is unwinding
  const auto n = static_cast<std::size_t>(node);
  if (target_failed_[n] != 0) return;
  target_failed_[n] = 1;
  target_failed_at_[n] = rank_->world().engine().now();
  stats_.target_failures += 1;
  note(*rank_, trace::Category::rma, "fault.detect",
       [&] { return "target=" + std::to_string(node); },
       "rma.target_failures");

  // Drain every pending op addressed to the dead target: complete it now
  // with an error status instead of leaving it waiting for replies that can
  // never arrive. Sorted by id — unordered_map order is not deterministic.
  std::vector<std::shared_ptr<Request::State>> victims;
  for (auto& [id, st] : reqs_) {
    if (st->world_target == node && !st->done) victims.push_back(st);
  }
  std::sort(victims.begin(), victims.end(),
            [](const auto& a, const auto& b) { return a->id < b->id; });
  for (auto& st : victims) {
    const bool rescuable =
        st->repl_backup >= 0 && st->repl_backup != node &&
        target_failed_[static_cast<std::size_t>(st->repl_backup)] == 0;
    if (rescuable && !st->is_get && st->counts_send &&
        st->flush_threshold == 0) {
      // Plain local-completion put: its SEND events are already queued and
      // complete it normally; its mirrors preserve the remote effect. The
      // wire notify bit was aimed at the dead primary, so re-arm the
      // notification at the backup whose copy now serves the data.
      rearm_notify(*st);
      continue;
    }
    const auto park = [&] {
      note(*rank_, trace::Category::rma, "failover.park", [&] {
        return "req=" + std::to_string(st->id) +
               " backup=" + std::to_string(st->repl_backup);
      });
    };
    if (rescuable && !st->is_get) {
      // Remote-completion put/acc: the mirrors carry its effect — complete
      // it once the backup has acked the highest covering mirror seq.
      st->repl_rescued = true;
      st->failover_from = target_failed_at_[n];
      const auto lit = repl_out_.find(st->repl_backup);
      const std::uint64_t acked =
          lit == repl_out_.end() ? 0 : lit->second.acked;
      if (acked >= st->repl_mirror_seq) {
        finish_rescue(*st);
      } else {
        repl_waiters_[st->repl_backup].push_back(st->id);
        park();
      }
      continue;
    }
    if (rescuable && st->is_get) {
      // In-flight get: re-drive it at the backup once the mirror stream
      // there is flushed (drain_reissues).
      st->repl_rescued = true;
      st->failover_from = target_failed_at_[n];
      if (st->needs_unpack) {
        rank_->memory().dealloc(st->dest_addr);
        st->needs_unpack = false;
      }
      st->pending = 0;
      repl_reissue_.push_back(st->id);
      park();
      continue;
    }
    const OpStatus status = st->repl_backup >= 0 ? OpStatus::replica_lost
                                                 : OpStatus::target_failed;
    if (status == OpStatus::replica_lost) stats_.replica_lost_ops += 1;
    if (st->is_get && st->needs_unpack) {
      // The staging buffer holds garbage; skip the unpack, free it.
      rank_->memory().dealloc(st->dest_addr);
    }
    stats_.drained_ops += 1;
    note(*rank_, trace::Category::rma, "fault.drain",
         [&] {
           return "req=" + std::to_string(st->id) +
                  " target=" + std::to_string(node);
         },
         "rma.drained_ops");
    settle(*st, status);
  }

  // Reconcile the per-target ledger so flush predicates hold trivially and
  // no completion path ever waits on the dead rank again.
  PerTarget& pt = per(node);
  pt.acked = pt.issued_rc;
  pt.confirmed = pt.issued;
  pt.pending_replies = 0;
  pt.order_fence = false;

  // Serializer lock repair: purge the dead rank from the wait queue first
  // (so a release cannot grant to it), then release on its behalf if it
  // died holding our lock.
  std::erase_if(lock_.waiters, [&](const auto& w) { return w.first == node; });
  if (lock_.held_by == node) service_lock_release(node);

  // The dead node may also have been someone's backup.
  // Rescued puts parked on its acks, and rescued gets queued for re-drive
  // at it, can never complete: both copies of their window are gone.
  if (auto wit = repl_waiters_.find(node); wit != repl_waiters_.end()) {
    for (const std::uint64_t id : wit->second) {
      auto st = find_req(id);
      if (st && !st->done) lose_replica(*st, node);
    }
    repl_waiters_.erase(wit);
  }
  for (auto it = repl_reissue_.begin(); it != repl_reissue_.end();) {
    auto st = find_req(*it);
    if (st && !st->done && st->repl_backup == node) lose_replica(*st, node);
    it = !st || st->done ? repl_reissue_.erase(it) : std::next(it);
  }
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
  if (auto oit = repl_out_.find(node); oit != repl_out_.end()) {
    for (const ReplPending& pnd : oit->second.pending) {
      if (pnd.primary == node || pnd.primary == rank_->id()) continue;
      if (target_failed_[static_cast<std::size_t>(pnd.primary)] != 0) {
        continue;
      }
      const AmHdr h = pnd.hdr;
      if (h.kind == AmHdr::Kind::repl_mirror_rmw) {
        region_fwd(pnd.primary, h.mem_id, h.offset, 8);
        continue;
      }
      if (h.kind != AmHdr::Kind::repl_mirror) continue;
      if (h.op == RmaOptype::accumulate) {
        region_fwd(pnd.primary, h.mem_id, h.offset, h.length);
        continue;
      }
      const int nb = chain_next_alive(h.mem_id, pnd.primary);
      if (nb < 0) continue;
      mirror_raw(nb, h, pnd.payload);
    }
  }
  repl_out_.erase(node);
  repl_in_.erase(node);
  // Probe answers from the dead rank no longer vouch for anything.
  for (auto it = probe_ok_.begin(); it != probe_ok_.end();) {
    it = it->second == node ? probe_ok_.erase(it) : std::next(it);
  }

  // Re-sync: mirrors covering windows whose PRIMARY is the dead node and
  // that their backup has not yet acked are re-sent (the backup dedups by
  // seq), bounding the "acked by the primary but not yet mirrored" window.
  // Sorted backup order — unordered_map order is not deterministic.
  std::vector<int> backups;
  backups.reserve(repl_out_.size());
  for (const auto& [b, led] : repl_out_) backups.push_back(b);
  std::sort(backups.begin(), backups.end());
  for (const int b : backups) {
    if (target_failed_[static_cast<std::size_t>(b)] != 0) continue;
    std::uint64_t ops = 0;
    std::uint64_t bytes = 0;
    ReplLedger& led = repl_out_[b];
    std::uint64_t hi = led.flushed;
    for (const ReplPending& pnd : led.pending) {
      if (pnd.primary == node) hi = std::max(hi, pnd.seq);
    }
    for (const ReplPending& pnd : led.pending) {
      // In lazy mode this is the deferred first transmission of the
      // write log; in eager mode it is a re-send the backup dedups by seq.
      // Deferred entries for OTHER windows interleaved below the re-sync
      // high-water mark go out too: advancing flushed past an
      // untransmitted seq would strand a hole in the in-order stream.
      const bool resync = pnd.primary == node;
      const bool deferred_below = pnd.seq > led.flushed && pnd.seq <= hi;
      if (!resync && !deferred_below) continue;
      send_am(b, pnd.hdr, pnd.payload);
      ops += 1;
      bytes += pnd.payload.size();
    }
    led.flushed = std::max(led.flushed, hi);
    stats_.resync_ops += ops;
    stats_.resync_bytes += bytes;
    if (ops > 0) {
      note(*rank_, trace::Category::rma, "failover.resync", [&] {
        return "backup=" + std::to_string(b) + " ops=" + std::to_string(ops) +
               " bytes=" + std::to_string(bytes);
      });
    }
  }

  // Restore redundancy: if this rank is now the first live chain member of
  // any registered window, burst a snapshot to the next eligible rank.
  update_replication_roles(node);

  // Wake any process blocked in progress_until so it re-evaluates its
  // predicate against the reconciled state.
  eq_.condition().notify_all();
}

// --------------------------------------------------------------------- RMW

std::uint64_t RmaEngine::fetch_add(const TargetMem& mem, std::uint64_t disp,
                                   std::uint64_t operand, int target_rank) {
  return rmw(portals::RmwOp::fetch_add, mem, disp, operand, 0, target_rank);
}

std::uint64_t RmaEngine::swap_val(const TargetMem& mem, std::uint64_t disp,
                                  std::uint64_t value, int target_rank) {
  return rmw(portals::RmwOp::swap, mem, disp, value, 0, target_rank);
}

std::uint64_t RmaEngine::compare_swap(const TargetMem& mem,
                                      std::uint64_t disp,
                                      std::uint64_t compare,
                                      std::uint64_t desired,
                                      int target_rank) {
  return rmw(portals::RmwOp::compare_swap, mem, disp, compare, desired,
             target_rank);
}

std::uint64_t RmaEngine::rmw(portals::RmwOp op, const TargetMem& mem,
                             std::uint64_t disp, std::uint64_t a,
                             std::uint64_t b, int target_rank) {
  stats_.rmws += 1;
  M3RMA_REQUIRE(mem.valid(), "RMW on an invalid TargetMem");
  M3RMA_REQUIRE(comm_->to_world(target_rank) == mem.owner,
                "target_rank does not own this TargetMem");
  M3RMA_REQUIRE(disp + 8 <= mem.length, "RMW exceeds the target memory");
  bool can_serve = true;
  OpStatus fail_status = OpStatus::ok;
  const TargetMem eff = effective_mem(mem, &can_serve, &fail_status);
  if (!can_serve) {
    stats_.failed_fast += 1;
    throw RankFailedError("RMW to failed rank " + std::to_string(mem.owner) +
                          (fail_status == OpStatus::replica_lost
                               ? " (replica lost)"
                               : ""));
  }
  const int t = eff.owner;
  // True while this is the primary attempt of a replicated window with a
  // live backup: successes are mirrored there, and a mid-sequence death
  // retries against it (the re-entry recomputes eff along the succession
  // chain, which strictly advances past dead ranks, so recursion
  // terminates).
  auto backup_live = [&] {
    return eff.backup >= 0 &&
           target_failed_[static_cast<std::size_t>(eff.backup)] == 0;
  };
  // Replicate a committed RMW. With the issue-time backup alive, replay it
  // semantically on this origin's own mirror stream (program order with
  // the origin's other mirrors; survives the primary's death). If that
  // backup died while the op was in flight, a replay has nowhere safe to
  // go — the fresh backup's snapshot may or may not already carry the
  // effect — so ask the primary (alive: it just replied) to re-publish the
  // post-RMW word to its current backup instead.
  auto replicate_rmw = [&] {
    if (backup_live()) {
      mirror_rmw(op, eff, disp, a, b);
    } else if (eff.backup >= 0 &&
               target_failed_[static_cast<std::size_t>(eff.owner)] == 0) {
      region_fwd(eff.owner, eff.id, disp, 8);
    }
  };

  // RMW mechanism: NIC-executed, lock-emulated, or serializer AM (§V).
  const char* mech =
      ptl_->supports_atomics()
          ? "nic"
          : (cfg_.serializer == SerializerKind::coarse_lock ? "lock" : "am");
  trace::SpanHandle rmw_span = 0;
  trace::Time rmw_t0 = 0;
  if (auto* tr = trace::want(rank_->world().engine().tracer(),
                             trace::Category::rma)) {
    rmw_span = tr->span_begin(
        rank_track(tr, *rank_), trace::Category::rma, "rma.rmw",
        std::string("mech=") + mech + " target=" + std::to_string(t));
    rmw_t0 = tr->now();
  }
  auto close_rmw = [&] {
    if (rmw_span == 0) return;
    trace::Recorder* tr = rank_->world().engine().tracer();
    if (tr == nullptr) return;
    tr->span_end(rmw_span);
    tr->record_value(trace::Category::rma,
                     std::string("rma.rmw[") + mech + "]",
                     tr->now() - rmw_t0);
  };
  // Failure tail of every mechanism: free the operand buffer (0: none),
  // close the span, then retry at the backup or throw.
  auto fail = [&](std::uint64_t buf, const char* who,
                  const char* what) -> std::uint64_t {
    if (buf != 0) rank_->memory().dealloc(buf);
    close_rmw();
    if (backup_live()) return rmw(op, mem, disp, a, b, target_rank);
    throw RankFailedError(std::string("RMW ") + who + " rank " +
                          std::to_string(t) + " " + what);
  };

  if (!ptl_->supports_atomics() &&
      cfg_.serializer == SerializerKind::coarse_lock) {
    // Lock; read; modify; write; unlock. On target death anywhere in the
    // sequence there is no lock manager left: skip the release and retry at
    // the backup, or throw. The inner get/put go through do_xfer with the
    // ORIGINAL mem, so the writeback is mirrored (and re-targeted) by the
    // regular data paths — no explicit mirror_rmw here.
    if (!lock_acquire(t)) return fail(0, "lock target", "failed");
    const std::uint64_t buf = rank_->memory().alloc(8);
    const auto u = dt::Datatype::uint64();
    Request gr =
        get(buf, 1, u, mem, disp, 1, u, target_rank, Attrs(RmaAttr::blocking));
    if (gr.failed()) return fail(buf, "target", "failed before replying");
    std::uint64_t old = 0;
    std::memcpy(&old, rank_->memory().raw(buf), 8);
    std::uint64_t next = old;
    switch (op) {
      case portals::RmwOp::fetch_add:
        next = old + a;
        break;
      case portals::RmwOp::swap:
        next = a;
        break;
      case portals::RmwOp::compare_swap:
        next = old == a ? b : old;
        break;
    }
    std::memcpy(rank_->memory().raw(buf), &next, 8);
    Request pr = put(buf, 1, u, mem, disp, 1, u, target_rank,
                     Attrs(RmaAttr::blocking) | RmaAttr::remote_completion);
    if (pr.failed()) {
      return fail(buf, "target", "failed before the writeback landed");
    }
    flush_target(t);
    rank_->memory().dealloc(buf);
    lock_release(t);
    close_rmw();
    return old;
  }

  // One round trip: a NIC-executed fetch-atomic, or an rmw_op AM for the
  // target's serializer.
  auto st = new_req(t, 1);
  const std::uint64_t tag = trace::op_tag(rank_->id(), st->id);
  if (auto* tl = trace::timeline(rank_->world().engine().tracer())) {
    tl->op_begin(tag, "rma.rmw", mech, cfg_.api_label,
                 rank_->world().engine().now());
    st->op_tracked = true;
  }
  std::uint64_t buf = 0;  // NIC operand (16 B) + result (8 B)
  if (ptl_->supports_atomics()) {
    buf = rank_->memory().alloc(24);
    std::byte tmp[16];
    u64_to_endian_bytes(a, eff.endian, tmp);
    u64_to_endian_bytes(b, eff.endian, tmp + 8);
    const std::uint64_t oplen =
        op == portals::RmwOp::compare_swap ? 16u : 8u;
    rank_->memory().nic_write(buf, std::span(tmp, oplen));
    ptl_->fetch_atomic(rank_->ctx(), op, portals::NumType::u64, md_all_, buf,
                       buf + 16, t, kPtData, eff.id, disp, st->id);
  } else {
    charge_inject(tag);
    AmHdr h;
    h.kind = AmHdr::Kind::rmw_op;
    h.rmw = op;
    h.mem_id = eff.id;
    h.offset = disp;
    h.req_id = st->id;
    h.value_a = a;
    h.value_b = b;
    send_am(t, h, {}, tag);
  }
  per(t).pending_replies += 1;
  progress_until([st] { return st->done; });
  if (st->status != OpStatus::ok) {
    return fail(buf, "target", "failed before replying");
  }
  std::uint64_t old = st->rmw_value;
  if (buf != 0) {
    old = u64_from_endian_bytes(rank_->memory().raw(buf + 16), eff.endian);
    rank_->memory().dealloc(buf);
  }
  replicate_rmw();
  close_rmw();
  return old;
}

// --------------------------------------------------------------------- RMI

void RmaEngine::register_rmi(int id, RmiHandler fn) {
  auto [it, inserted] = rmi_handlers_.emplace(id, std::move(fn));
  (void)it;
  M3RMA_REQUIRE(inserted, "RMI handler id already registered");
}

Request RmaEngine::signal(int target_rank, int id,
                          std::span<const std::byte> args) {
  stats_.rmis += 1;
  const int t = comm_->to_world(target_rank);
  if (target_failed_[static_cast<std::size_t>(t)] != 0) {
    stats_.failed_fast += 1;
    auto dead = new_req(t);
    settle(*dead, OpStatus::target_failed);
    return Request(this, std::move(dead));
  }
  auto st = new_req(t, 1);
  charge_inject();
  AmHdr h;
  h.kind = AmHdr::Kind::rmi_op;
  h.req_id = st->id;
  h.value_a = static_cast<std::uint64_t>(static_cast<std::uint32_t>(id));
  h.length = args.size();
  send_am(t, h, std::vector<std::byte>(args.begin(), args.end()));
  per(t).pending_replies += 1;
  return Request(this, st);
}

std::vector<std::byte> RmaEngine::invoke(int target_rank, int id,
                                         std::span<const std::byte> args) {
  Request req = signal(target_rank, id, args);
  auto st = req.st_;
  progress_until([st] { return st->done; });
  if (st->status == OpStatus::target_failed) {
    throw RankFailedError("RMI target rank " +
                          std::to_string(st->world_target) +
                          " failed before replying");
  }
  return std::move(st->rmi_reply);
}

// ---------------------------------------------------------------- progress

void RmaEngine::progress() {
  while (auto ev = eq_.poll()) handle_eq_event(*ev);
  while (!pending_am_.empty()) {  // progress serializer only
    AmMsg m = std::move(pending_am_.front());
    pending_am_.pop_front();
    serve(rank_->ctx(), std::move(m));
  }
  if (!repl_reissue_.empty()) drain_reissues();
}

void RmaEngine::progress_poll(sim::Time duration, sim::Time interval) {
  const sim::Time until = rank_->ctx().now() + duration;
  while (rank_->ctx().now() < until) {
    progress();
    rank_->ctx().delay(interval);
  }
  progress();
}

template <class Pred>
void RmaEngine::progress_until(Pred&& pred) {
  while (true) {
    progress();
    if (pred()) return;
    rank_->ctx().await(eq_.condition());
  }
}

std::shared_ptr<Request::State> RmaEngine::new_req(int world_target,
                                                   std::uint32_t replies) {
  auto st = std::make_shared<Request::State>();
  st->id = next_req_++;
  st->world_target = world_target;
  st->pending = replies;
  st->counts_send = replies == 0;
  reqs_.emplace(st->id, st);
  return st;
}

void RmaEngine::settle(Request::State& st, OpStatus status) {
  st.status = status;
  st.pending = 0;
  st.done = true;
  finish_trace(st);
  reqs_.erase(st.id);
}

void RmaEngine::finish_rescue(Request::State& st) {
  stats_.rescued_ops += 1;
  note(*rank_, trace::Category::rma, "failover.rescue",
       [&] {
         return "req=" + std::to_string(st.id) +
                " backup=" + std::to_string(st.repl_backup);
       },
       "rma.rescued_ops");
  rearm_notify(st);
  settle(st);
}

void RmaEngine::lose_replica(Request::State& st, int backup) {
  stats_.replica_lost_ops += 1;
  stats_.drained_ops += 1;
  note(*rank_, trace::Category::rma, "failover.replica_lost", [&] {
    return "req=" + std::to_string(st.id) + " backup=" + std::to_string(backup);
  });
  settle(st, OpStatus::replica_lost);
}

std::shared_ptr<Request::State> RmaEngine::find_req(std::uint64_t id) {
  auto it = reqs_.find(id);
  return it == reqs_.end() ? nullptr : it->second;
}

void RmaEngine::finish_segment(const std::shared_ptr<Request::State>& st) {
  // A rescued request completes only through the failover machinery; stale
  // events from the dead primary (e.g. SENDs already queued at its death)
  // must not touch it.
  if (st->repl_rescued) return;
  M3RMA_ENSURE(st->pending > 0, "completion event for a finished request");
  st->pending -= 1;
  if (st->pending > 0) return;
  if (st->is_get && st->needs_unpack) {
    auto& mem = rank_->memory();
    if (st->needs_swap) {
      st->target_dt.byteswap_packed(mem.raw(st->dest_addr),
                                    st->target_count);
    }
    st->origin_dt.unpack(mem.raw(st->dest_addr), st->origin_count,
                         mem.raw(st->origin_addr));
    mem.dealloc(st->dest_addr);
  }
  settle(*st);
}

void RmaEngine::finish_trace(Request::State& st) {
  trace::Recorder* tr = rank_->world().engine().tracer();
  if (st.op_tracked) {
    st.op_tracked = false;
    if (auto* tl = trace::timeline(tr)) {
      const std::uint64_t tag = trace::op_tag(rank_->id(), st.id);
      const sim::Time now = rank_->world().engine().now();
      if (st.failover_from != 0) {
        // Failover stall: failure detection to rescued completion. Highest
        // priority, so it subsumes whatever re-sync traffic ran underneath.
        tl->add(tag, trace::Segment::failover, st.failover_from, now);
      }
      tl->op_end(tag, now);
    }
  }
  if (st.trace_span == 0 || tr == nullptr) return;
  tr->span_end(st.trace_span);
  st.trace_span = 0;
  if (!st.trace_hist.empty()) {
    tr->record_value(trace::Category::rma, st.trace_hist,
                     tr->now() - st.trace_t0);
  }
}

void RmaEngine::count_ack(int world_rank) {
  PerTarget& pt = per(world_rank);
  pt.acked += 1;
  // When every op so far requested confirmation, acks advance the
  // known-complete floor directly.
  if (pt.issued_rc == pt.issued) {
    pt.confirmed = std::max(pt.confirmed, std::min(pt.acked, pt.issued));
  }
}

void RmaEngine::handle_eq_event(const portals::Event& ev) {
  switch (ev.type) {
    case portals::EventType::send: {
      auto st = find_req(ev.user_ptr);
      if (st && st->counts_send) finish_segment(st);
      break;
    }
    case portals::EventType::ack: {
      count_ack(ev.initiator);
      auto st = find_req(ev.user_ptr);
      if (st && !st->counts_send && !st->is_get) finish_segment(st);
      break;
    }
    case portals::EventType::reply: {
      if (per(ev.initiator).pending_replies > 0) {
        per(ev.initiator).pending_replies -= 1;
      }
      auto st = find_req(ev.user_ptr);
      if (st) finish_segment(st);
      break;
    }
    default:
      break;  // target-side events: unused (no EQ attached)
  }
}

// -------------------------------------------------------- active messages

void RmaEngine::send_am(int world_target, const AmHdr& hdr,
                        std::vector<std::byte> payload, std::uint64_t op) {
  fabric::Packet p;
  p.protocol = kAmProtocolId;
  fabric::set_header(p, hdr);
  p.payload = std::move(payload);
  p.op = op;
  rank_->world().fabric().nic(rank_->id()).send(world_target, std::move(p));
}

// ------------------------------------------------------ window replication

TargetMem RmaEngine::effective_mem(const TargetMem& mem, bool* ok,
                                   OpStatus* status) {
  *ok = true;
  *status = OpStatus::ok;
  if (target_failed_[static_cast<std::size_t>(mem.owner)] == 0) {
    if (mem.backup < 0 ||
        target_failed_[static_cast<std::size_t>(mem.backup)] == 0) {
      return mem;  // healthy fast path: handle used exactly as shipped
    }
    // Owner alive, designated backup dead: the owner re-replicates along the
    // succession chain; mirror new writes straight at its fresh backup.
    TargetMem eff = mem;
    eff.backup = chain_next_alive(mem.id, mem.owner);
    return eff;
  }
  if (mem.backup >= 0) {
    // Owner dead: walk the succession chain for the acting primary. The
    // first two members are the handle's own owner/backup pair, whose copy
    // we trust by construction (registered at attach); any later member
    // holds a re-replicated copy and must be probed for completeness.
    for (;;) {
      if (lost_windows_.count(mem.id) != 0) break;
      const int p = chain_first_alive(mem.id);
      if (p < 0) break;
      if (p != mem.owner && p != mem.backup && !probe_replica(p, mem.id)) {
        if (target_failed_[static_cast<std::size_t>(p)] != 0) continue;
        break;  // answered: copy incomplete -> window lost
      }
      // Adopt the replica only after the mirror stream is flushed:
      // everything the dead primary acked must be applied there first.
      failover_sync(p);
      if (target_failed_[static_cast<std::size_t>(p)] != 0) continue;
      TargetMem eff = mem;
      eff.owner = p;
      eff.backup = chain_next_alive(mem.id, p);
      stats_.retargeted_ops += 1;
      if (auto* tr = trace::want(rank_->world().engine().tracer(),
                                 trace::Category::rma)) {
        tr->add_counter(trace::Category::rma, "rma.failover_retargets");
      }
      return eff;
    }
  }
  *ok = false;
  *status =
      mem.backup >= 0 ? OpStatus::replica_lost : OpStatus::target_failed;
  if (*status == OpStatus::replica_lost) stats_.replica_lost_ops += 1;
  return mem;
}

void RmaEngine::failover_sync(int backup) {
  {
    const auto it = repl_out_.find(backup);
    if (it == repl_out_.end() || it->second.acked >= it->second.flushed) {
      return;
    }
  }
  const auto bi = static_cast<std::size_t>(backup);
  progress_until([&] {
    const auto it = repl_out_.find(backup);
    return it == repl_out_.end() || it->second.acked >= it->second.flushed ||
           target_failed_[bi] != 0;
  });
}

void RmaEngine::mirror_block(const std::shared_ptr<Request::State>& st,
                             bool is_acc, portals::AccOp acc_op,
                             portals::NumType nt, const TargetMem& mem,
                             std::uint64_t offset, std::uint64_t src_addr,
                             std::uint64_t len) {
  if (target_failed_[static_cast<std::size_t>(mem.backup)] != 0) {
    // Stale handle: the backup died while this op's data packet was being
    // injected (the injection yield lets the failure event run, repair the
    // old ledger, and erase it). Logging here would recreate that ledger as
    // an orphan no repair or re-sync ever visits — the entry, and with it
    // the op, would be silently lost at the primary's death. The data
    // packet is already queued ahead of any AM on the same (origin,
    // primary) channel, so ask the still-live primary to re-publish the
    // post-op region to its current backup instead: the idempotent repair
    // reads state that includes this op's effect.
    if (target_failed_[static_cast<std::size_t>(mem.owner)] == 0) {
      region_fwd(mem.owner, mem.id, offset, len);
    }
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
  std::vector<std::byte> payload(len);
  rank_->memory().nic_read(src_addr, payload);
  log_mirror(mem, h, std::move(payload), st.get());
}

void RmaEngine::mirror_rmw(portals::RmwOp op, const TargetMem& mem,
                           std::uint64_t disp, std::uint64_t a,
                           std::uint64_t b) {
  // Sent AFTER the primary's reply: the mirror replays exactly the ops the
  // primary committed, in this origin's program order.
  AmHdr h;
  h.kind = AmHdr::Kind::repl_mirror_rmw;
  h.rmw = op;
  h.mem_id = mem.id;
  h.offset = disp;
  h.value_a = a;
  h.value_b = b;
  log_mirror(mem, h, {}, nullptr);
}

void RmaEngine::log_mirror(const TargetMem& mem, AmHdr h,
                           std::vector<std::byte> payload,
                           Request::State* st) {
  ReplLedger& led = repl_out_[mem.backup];
  h.req_id = ++led.sent;  // per-(origin, backup) mirror stream seq
  // The resync log keeps a copy until the backup's cumulative ack covers it.
  led.pending.push_back(ReplPending{h.req_id, mem.owner, h, payload});
  if (st != nullptr) {
    st->repl_backup = mem.backup;
    st->repl_mirror_seq = h.req_id;
  }
  stats_.mirrored_ops += 1;
  stats_.mirror_bytes += payload.size();
  if (rank_->world().config().replication.mode == runtime::ReplMode::lazy) {
    // Lazy recovery: the entry stays logged-but-untransmitted (flushed does
    // not advance), keeping mirror traffic entirely off the healthy-path
    // critical path; failover re-sync pushes the log instead.
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
      st != nullptr ? trace::op_tag(rank_->id(), st->id) : 0;
  charge_inject(tag);
  send_am(mem.backup, h, std::move(payload), tag);
  if (auto* tr = trace::want(rank_->world().engine().tracer(),
                             trace::Category::rma)) {
    tr->add_counter(trace::Category::rma, "rma.mirrors");
  }
}

void RmaEngine::region_fwd(int primary, std::uint64_t mem_id,
                           std::uint64_t offset, std::uint64_t length) {
  if (length == 0) return;
  AmHdr f;
  f.kind = AmHdr::Kind::repl_region_fwd;
  f.mem_id = mem_id;
  f.offset = offset;
  f.length = length;
  send_am(primary, f, {});
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
  if (rank_->world().config().replication.mode != runtime::ReplMode::lazy) {
    const int b = chain_next_alive(mem_id, primary);
    if (b >= 0) {
      held = b;
      fwd_hold_[b] += 1;
    }
  }
  fwd_inflight_[primary].push_back(held);
}

void RmaEngine::apply_mirror(const AmHdr& h,
                             std::span<const std::byte> payload) {
  auto it = attached_.find(h.mem_id);
  M3RMA_ENSURE(it != attached_.end(), "mirror for an unknown replica");
  const Attached& a = it->second;
  auto& mem = rank_->memory();
  if (h.kind == AmHdr::Kind::repl_mirror_rmw) {
    M3RMA_ENSURE(h.offset + 8 <= a.length, "mirror RMW exceeds the replica");
    std::byte operand[16];
    u64_to_endian_bytes(h.value_a, mem.config().endian, operand);
    u64_to_endian_bytes(h.value_b, mem.config().endian, operand + 8);
    const std::size_t oplen =
        h.rmw == portals::RmwOp::compare_swap ? 16u : 8u;
    portals::apply_rmw(h.rmw, portals::NumType::u64,
                       mem.raw(a.base + h.offset), std::span(operand, oplen),
                       mem.config().endian);
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
  mirrors_applied_total_ += 1;
}

// ------------------------------------------- multi-crash re-replication

Endian RmaEngine::node_endian(int world_rank) const {
  const auto& wc = rank_->world().config();
  const auto it = wc.node_overrides.find(world_rank);
  return it != wc.node_overrides.end() ? it->second.endian : wc.node.endian;
}

std::vector<int> RmaEngine::chain_members(std::uint64_t mem_id) const {
  const int n = rank_->world().size();
  const int owner0 = static_cast<int>(mem_id >> 32);
  int off = rank_->world().config().replication.backup_offset % n;
  if (off < 0) off += n;
  std::vector<int> chain;
  chain.push_back(owner0);
  if (off == 0) return chain;
  for (int r = (owner0 + off) % n; r != owner0; r = (r + off) % n) {
    chain.push_back(r);
  }
  return chain;
}

bool RmaEngine::chain_eligible(int world_rank, std::uint64_t mem_id) const {
  if (target_failed_[static_cast<std::size_t>(world_rank)] != 0) return false;
  return node_endian(world_rank) ==
         node_endian(static_cast<int>(mem_id >> 32));
}

int RmaEngine::chain_first_alive(std::uint64_t mem_id) const {
  for (const int r : chain_members(mem_id)) {
    if (chain_eligible(r, mem_id)) return r;
  }
  return -1;
}

int RmaEngine::chain_next_alive(std::uint64_t mem_id, int after) const {
  const auto chain = chain_members(mem_id);
  bool past = false;
  for (const int r : chain) {
    if (past && chain_eligible(r, mem_id)) return r;
    if (r == after) past = true;
  }
  return -1;
}

void RmaEngine::flush_deferred(int backup) {
  const auto it = repl_out_.find(backup);
  if (it == repl_out_.end()) return;
  ReplLedger& led = it->second;
  for (const ReplPending& pnd : led.pending) {
    if (pnd.seq <= led.flushed) continue;
    send_am(backup, pnd.hdr, pnd.payload);
  }
  led.flushed = led.sent;
}

void RmaEngine::release_hold(int backup) {
  if (backup < 0) return;
  const auto hold = fwd_hold_.find(backup);
  if (hold == fwd_hold_.end()) return;
  if (--hold->second > 0) return;
  fwd_hold_.erase(hold);
  if (target_failed_[static_cast<std::size_t>(backup)] == 0) {
    flush_deferred(backup);
  }
}

void RmaEngine::host_replica(std::uint64_t mem_id, std::uint64_t length,
                             int materializing_from) {
  const std::uint64_t buf =
      rank_->memory().alloc(std::max<std::uint64_t>(length, 1));
  const portals::MeHandle me =
      ptl_->me_append(kPtData, mem_id, 0, buf, length, nullptr);
  attached_.emplace(mem_id, Attached{buf, length, me});
  replica_bufs_.emplace(mem_id, buf);
  repl_windows_.emplace(mem_id,
                        ReplWindow{length, -1, materializing_from, false});
  // Replica copies listen too: a post-failover retargeted notified op (or a
  // re-armed rescue) must find a queue here, never land unheard.
  register_notify_queue(mem_id);
}

void RmaEngine::mirror_raw(int backup, const AmHdr& hdr,
                           std::vector<std::byte> payload) {
  // This append flushes the whole stream. A lazily deferred or repair-held
  // entry below the new flush point would leave a seq hole the backup can
  // never fill (it accepts strictly in order), wedging every later ack — so
  // transmit the deferred tail first, keeping the stream contiguous.
  flush_deferred(backup);
  ReplLedger& led = repl_out_[backup];
  AmHdr h = hdr;
  h.req_id = ++led.sent;
  led.flushed = led.sent;
  // primary = self: the authoritative copy of this data is local, so a later
  // death of `backup` triggers a fresh burst, never a blind re-send.
  led.pending.push_back(ReplPending{h.req_id, rank_->id(), h, payload});
  send_am(backup, h, std::move(payload));
}

bool RmaEngine::probe_replica(int target, std::uint64_t mem_id) {
  if (lost_windows_.count(mem_id) != 0) return false;
  const auto hit = probe_ok_.find(mem_id);
  if (hit != probe_ok_.end() && hit->second == target) return true;
  for (;;) {
    auto st = new_req(target, 1);
    charge_inject();
    AmHdr h;
    h.kind = AmHdr::Kind::repl_probe;
    h.mem_id = mem_id;
    h.req_id = st->id;
    send_am(target, h, {});
    stats_.probes_sent += 1;
    progress_until([st] { return st->done; });
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

void RmaEngine::route_mirror(int src, const AmHdr& h,
                             std::span<const std::byte> payload) {
  const auto park = [&](std::map<std::uint64_t, std::deque<GatedMirror>>& gate) {
    gate[h.mem_id].push_back(
        GatedMirror{src, h, {payload.begin(), payload.end()}});
  };
  auto w = repl_windows_.find(h.mem_id);
  if (w == repl_windows_.end()) {
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
    mirror_raw(w->second.cur_backup, h,
               {payload.begin(), payload.end()});
    stats_.forwarded_mirrors += 1;
  }
}

void RmaEngine::update_replication_roles(int dead_node) {
  if (shutting_down_ || repl_windows_.empty()) return;
  (void)dead_node;
  for (auto& [mem_id, w] : repl_windows_) {  // std::map: ascending window id
    if (w.lost) continue;
    if (w.materializing_from >= 0 &&
        target_failed_[static_cast<std::size_t>(w.materializing_from)] !=
            0) {
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
      if (w.cur_backup >= 0 &&
          target_failed_[static_cast<std::size_t>(w.cur_backup)] != 0) {
        w.cur_backup = -1;
      }
      continue;
    }
    if (chain_first_alive(mem_id) != rank_->id()) continue;
    const int nb = chain_next_alive(mem_id, rank_->id());
    if (nb == w.cur_backup) continue;
    w.cur_backup = nb;
    if (nb < 0) continue;  // chain exhausted: run unreplicated
    const auto it = attached_.find(mem_id);
    M3RMA_ENSURE(it != attached_.end(),
                 "re-replication of an unattached window");
    const Attached& a = it->second;
    AmHdr adopt;
    adopt.kind = AmHdr::Kind::repl_adopt;
    adopt.mem_id = mem_id;
    adopt.length = w.length;
    send_am(nb, adopt, {});
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
      rank_->memory().nic_read(a.base + off, chunk);
      mirror_raw(nb, h, std::move(chunk));
      stats_.rerepl_bytes += len;
    }
    AmHdr done;
    done.kind = AmHdr::Kind::repl_sync_done;
    done.mem_id = mem_id;
    mirror_raw(nb, done, {});
    stats_.rereplications += 1;
    note(*rank_, trace::Category::rma, "failover.rereplicate",
         [&] {
           return "mem=" + std::to_string(mem_id) +
                  " backup=" + std::to_string(nb);
         },
         "rma.rereplications");
  }
}

void RmaEngine::drain_reissues() {
  if (draining_reissues_) return;
  draining_reissues_ = true;
  struct Reset {
    bool* flag;
    ~Reset() { *flag = false; }
  } guard{&draining_reissues_};
  while (!repl_reissue_.empty()) {
    const std::uint64_t id = repl_reissue_.front();
    auto st = find_req(id);
    if (!st || st->done) {
      repl_reissue_.pop_front();
      continue;
    }
    int b = st->repl_backup;
    if (target_failed_[static_cast<std::size_t>(b)] != 0) {
      // The rescue backup died before the re-drive. Walk the succession
      // chain for a later complete copy before giving up (blocking: may
      // probe — the re-entrancy guard makes that safe from progress()).
      bool ok = false;
      OpStatus status = OpStatus::target_failed;
      const TargetMem walked = effective_mem(st->repl_mem, &ok, &status);
      if (!ok) {
        settle(*st, status);
        repl_reissue_.pop_front();
        continue;
      }
      b = walked.owner;
      st->repl_backup = b;
    }
    // A replica read is only trustworthy once every mirror the dead primary
    // may have acked has been applied (and acked) there.
    const auto lit = repl_out_.find(b);
    if (lit != repl_out_.end() && lit->second.acked < lit->second.flushed) {
      break;
    }
    repl_reissue_.pop_front();
    st->repl_rescued = false;
    st->pending = 0;
    TargetMem eff = st->repl_mem;
    eff.owner = b;
    eff.backup = chain_next_alive(st->repl_mem.id, b);
    st->world_target = b;
    stats_.reissued_gets += 1;
    stats_.retargeted_ops += 1;
    note(*rank_, trace::Category::rma, "failover.reissue",
         [&] {
           return "req=" + std::to_string(id) +
                  " backup=" + std::to_string(b);
         },
         "rma.reissued_gets");
    issue_blocks(st, RmaOptype::get, portals::AccOp::replace, false,
                 st->origin_addr, st->origin_count, st->origin_dt, eff,
                 st->repl_disp, st->target_count, st->target_dt,
                 Attrs::none());
  }
}

void RmaEngine::on_am(fabric::Packet&& p) {
  const auto h = fabric::get_header<AmHdr>(p);
  // The reply to a notified software op echoes the target-side fire time:
  // attribute the notification leg [fire, reply arrival] to the op.
  const auto notify_leg = [&](const Request::State& st, sim::Time fired) {
    if (!st.notify || fired == 0) return;
    if (auto* tl = trace::timeline(rank_->world().engine().tracer());
        tl != nullptr && tl->tracks(p.op)) {
      tl->add(p.op, trace::Segment::notify, fired,
              rank_->world().engine().now());
    }
  };
  switch (h.kind) {
    case AmHdr::Kind::data_op:
    case AmHdr::Kind::rmw_op:
    case AmHdr::Kind::rmi_op: {
      AmMsg m;
      m.src = p.src;
      m.payload = std::move(p.payload);
      m.hdr = h;
      m.op = p.op;
      m.arrived = rank_->world().engine().now();
      if (cfg_.serializer == SerializerKind::comm_thread) {
        am_chan_->push(std::move(m));
      } else {
        pending_am_.push_back(std::move(m));
      }
      break;
    }
    case AmHdr::Kind::op_ack: {
      count_ack(p.src);
      if (auto st = find_req(h.req_id)) {
        notify_leg(*st, h.value_a);
        finish_segment(st);
      }
      break;
    }
    case AmHdr::Kind::get_reply:
    case AmHdr::Kind::rmw_reply:
    case AmHdr::Kind::rmi_reply:
      if (per(p.src).pending_replies > 0) per(p.src).pending_replies -= 1;
      [[fallthrough]];
    case AmHdr::Kind::repl_ready:       // value_a 1 = registered, 0 = refused
    case AmHdr::Kind::repl_probe_ack: {  // value_a 1 = copy complete and live
      auto st = find_req(h.req_id);
      if (!st) break;
      if (h.kind == AmHdr::Kind::get_reply) {
        if (!p.payload.empty()) {
          rank_->memory().nic_write(st->dest_addr + h.offset, p.payload);
        }
        notify_leg(*st, h.value_b);
      } else if (h.kind == AmHdr::Kind::rmi_reply) {
        st->rmi_reply = std::move(p.payload);
      } else {
        st->rmw_value = h.value_a;
      }
      finish_segment(st);
      break;
    }
    case AmHdr::Kind::count_query: {
      AmHdr r;
      r.kind = AmHdr::Kind::count_reply;
      r.req_id = h.req_id;
      r.value_a = ptl_->received_data_ops(kPtData, p.src) +
                  am_applied_from_[p.src];
      send_am(p.src, r, {}, p.op);
      break;
    }
    case AmHdr::Kind::count_reply: {
      auto st = find_req(h.req_id);
      if (!st) break;
      if (h.value_a >= st->flush_threshold) {
        PerTarget& pt = per(p.src);
        pt.confirmed = std::max(pt.confirmed, st->flush_threshold);
        finish_segment(st);
      } else {
        // Not all landed yet: retry after a backoff. A bounded retry count
        // turns lost operations (e.g. a put racing a detach) into a
        // diagnosable failure instead of an endless poll loop.
        if (++st->flush_retries > kMaxFlushRetries) {
          throw Panic(
              "RMA completion flush did not converge: operations to rank " +
              std::to_string(p.src) +
              " appear to be lost (dropped at the target?)");
        }
        const std::uint64_t id = h.req_id;
        const int t = p.src;
        const std::uint64_t tag = trace::op_tag(rank_->id(), id);
        rank_->world().engine().schedule_in(
            kFlushRetryNs, [this, alive = alive_, id, t, tag] {
              if (!*alive || !find_req(id)) return;
              AmHdr q;
              q.kind = AmHdr::Kind::count_query;
              q.req_id = id;
              send_am(t, q, {}, tag);
            });
      }
      break;
    }
    case AmHdr::Kind::lock_req:
      service_lock_request(p.src, h.req_id);
      break;
    case AmHdr::Kind::lock_grant:
      if (auto st = find_req(h.req_id)) finish_segment(st);
      break;
    case AmHdr::Kind::lock_release:
      service_lock_release(p.src);
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
      if (owner_endian != rank_->memory().config().endian || shutting_down_) {
        r.value_a = 0;  // refused: mirrors would be byte-order garbage here
      } else {
        host_replica(h.mem_id, h.length, -1);
        r.value_a = 1;
      }
      send_am(p.src, r, {});
      break;
    }
    case AmHdr::Kind::repl_adopt: {
      // Chosen as the fresh backup of a window after a failover: expose a
      // shadow region under the SAME mem id (like repl_create) and
      // materialize from the acting primary's snapshot stream. No refusal
      // path — the chain skips endian-mismatched ranks, and both sides
      // compute it identically.
      if (shutting_down_ || attached_.count(h.mem_id) != 0) break;
      host_replica(h.mem_id, h.length, p.src);
      // Mirrors that raced ahead of this adoption: re-route now that the
      // registry entry says which stream materializes the copy.
      if (auto g = pre_adopt_gate_.find(h.mem_id);
          g != pre_adopt_gate_.end()) {
        auto parked = std::move(g->second);
        pre_adopt_gate_.erase(g);
        for (const auto& gm : parked) route_mirror(gm.src, gm.hdr, gm.payload);
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
      const auto w = repl_windows_.find(h.mem_id);
      const bool hosted = !shutting_down_ && attached_.count(h.mem_id) != 0 &&
                          w != repl_windows_.end() && !w->second.lost;
      AmHdr r;
      r.kind = AmHdr::Kind::repl_probe_ack;
      r.req_id = h.req_id;
      r.value_a = !hosted ? 0 : (w->second.materializing_from >= 0 ? 2 : 1);
      send_am(p.src, r, {});
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
      const auto a = attached_.find(h.mem_id);
      const auto w = repl_windows_.find(h.mem_id);
      const bool publish =
          !shutting_down_ && h.length != 0 && a != attached_.end() &&
          w != repl_windows_.end() && w->second.cur_backup >= 0 &&
          target_failed_[static_cast<std::size_t>(w->second.cur_backup)] ==
              0 &&
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
        rank_->memory().nic_read(a->second.base + h.offset, region);
        mirror_raw(w->second.cur_backup, mh, std::move(region));
      }
      // Confirm, published or dropped: the origin holds fresh mirrors
      // toward our backup until this arrives, and a drop means there is no
      // put to order behind anyway.
      AmHdr d;
      d.kind = AmHdr::Kind::repl_region_fwd_done;
      d.mem_id = h.mem_id;
      send_am(p.src, d, {});
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
    case AmHdr::Kind::bye: {
      bye_seen_[static_cast<std::size_t>(p.src)] = 1;
      break;
    }
    case AmHdr::Kind::notify_fire: {
      // Failover re-arm: the origin of a rescued notified op tells the
      // surviving copy to enqueue the notification its dead primary can no
      // longer deliver.
      fire_notify_local(
          h.mem_id,
          notify::Notification{p.src, static_cast<std::uint32_t>(h.value_a),
                               h.length, h.offset});
      break;
    }
    case AmHdr::Kind::repl_mirror:
    case AmHdr::Kind::repl_mirror_rmw:
    case AmHdr::Kind::repl_sync_done: {
      // Apply in per-origin stream order, directly on the replica (never
      // through the serializer, and never counted in am_applied_from_ —
      // mirrors must not perturb the primary-path flush accounting).
      // repl_sync_done rides the same ledger stream: it must be accepted in
      // sequence so the materialization cut-over is ordered against the
      // snapshot chunks preceding it.
      // Acks are cut at ACCEPT time, not apply time: a mirror parked behind
      // a materializing window still advances the cumulative ack, so the
      // acting primary's flush never deadlocks on its own snapshot stream.
      ReplIn& in = repl_in_[p.src];
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
        in.held.emplace(h.req_id, ReplHeld{h, std::move(p.payload)});
      }
      // else: duplicate (failover re-sync) — already applied; just re-ack.
      AmHdr r;
      r.kind = AmHdr::Kind::repl_mirror_ack;
      r.req_id = in.applied;  // cumulative
      send_am(p.src, r, {}, p.op);
      break;
    }
    case AmHdr::Kind::repl_mirror_ack: {
      const auto lit = repl_out_.find(p.src);
      if (lit == repl_out_.end()) break;
      ReplLedger& led = lit->second;
      if (h.req_id > led.acked) {
        led.acked = h.req_id;
        while (!led.pending.empty() &&
               led.pending.front().seq <= led.acked) {
          led.pending.pop_front();
        }
        // Finish rescued ops whose highest mirror seq is now covered, in
        // the order they were parked (request-id order).
        if (auto wit = repl_waiters_.find(p.src);
            wit != repl_waiters_.end()) {
          auto& ids = wit->second;
          for (std::size_t i = 0; i < ids.size();) {
            auto st = find_req(ids[i]);
            if (!st || st->done) {
              ids.erase(ids.begin() + static_cast<std::ptrdiff_t>(i));
              continue;
            }
            if (st->repl_mirror_seq <= led.acked) {
              finish_rescue(*st);
              ids.erase(ids.begin() + static_cast<std::ptrdiff_t>(i));
            } else {
              ++i;
            }
          }
          if (ids.empty()) repl_waiters_.erase(wit);
        }
      }
      break;
    }
  }
  eq_.condition().notify_all();
}

bool RmaEngine::serve(sim::Context& ctx, AmMsg&& m) {
  // Copied before the apply delay: a killed rank's engine is destroyed
  // during it, and then the token is all that is left to read.
  const std::shared_ptr<bool> alive = alive_;
  trace::Recorder* rec = ctx.engine().tracer();
  auto* tr = trace::want(rec, trace::Category::serializer);
  // The track is the serving process: "commthread<id>" or "rank<id>".
  const trace::SpanHandle h =
      tr == nullptr ? 0
                    : tr->span_begin(tr->track(ctx.name()),
                                     trace::Category::serializer, "serialize",
                                     "from=" + std::to_string(m.src));
  auto* tl = trace::timeline(rec);
  const std::uint64_t op = m.op;
  const sim::Time pickup = ctx.now();
  if (tl != nullptr && tl->tracks(op)) {
    tl->add(op, trace::Segment::serialize_wait, m.arrived, pickup);
  }
  ctx.delay(kApplyNs);
  if (!*alive) return false;
  execute_am(std::move(m));
  if (tl != nullptr && tl->tracks(op)) {
    tl->add(op, trace::Segment::apply, pickup, ctx.now());
  }
  if (h != 0) rec->span_end(h);
  return true;
}

void RmaEngine::execute_am(AmMsg&& m) {
  const AmHdr& h = m.hdr;

  if (h.kind == AmHdr::Kind::rmi_op) {
    const int id = static_cast<int>(static_cast<std::uint32_t>(h.value_a));
    auto hit = rmi_handlers_.find(id);
    M3RMA_ENSURE(hit != rmi_handlers_.end(),
                 "RMI for an unregistered handler id");
    std::vector<std::byte> result = hit->second(m.src, m.payload);
    am_applied_total_ += 1;
    AmHdr r;
    r.kind = AmHdr::Kind::rmi_reply;
    r.req_id = h.req_id;
    send_am(m.src, r, std::move(result), m.op);
    return;
  }

  auto it = attached_.find(h.mem_id);
  M3RMA_ENSURE(it != attached_.end(),
               "software op for a detached TargetMem (mem=" +
                   std::to_string(h.mem_id) + " kind=" +
                   std::to_string(static_cast<int>(h.kind)) + " op=" +
                   std::to_string(static_cast<int>(h.op)) + " from=" +
                   std::to_string(m.src) + " at=" +
                   std::to_string(rank_->id()) + ")");
  const Attached& a = it->second;
  const std::uint64_t need =
      h.kind == AmHdr::Kind::rmw_op ? 8 : h.length;
  M3RMA_ENSURE(h.offset + need <= a.length,
               "software op exceeds the attached region");
  auto& mem = rank_->memory();

  if (h.kind == AmHdr::Kind::rmw_op) {
    std::byte operand[16];
    u64_to_endian_bytes(h.value_a, mem.config().endian, operand);
    u64_to_endian_bytes(h.value_b, mem.config().endian, operand + 8);
    const std::size_t oplen =
        h.rmw == portals::RmwOp::compare_swap ? 16u : 8u;
    auto old = portals::apply_rmw(h.rmw, portals::NumType::u64,
                                  mem.raw(a.base + h.offset),
                                  std::span(operand, oplen),
                                  mem.config().endian);
    am_applied_total_ += 1;
    AmHdr r;
    r.kind = AmHdr::Kind::rmw_reply;
    r.req_id = h.req_id;
    r.value_a = u64_from_endian_bytes(old.data(), mem.config().endian);
    send_am(m.src, r, {}, m.op);
    return;
  }

  // Data op: apply it, then answer with an op_ack (put/accumulate) or the
  // data (get). Puts and accumulates count toward the origin's landed-op
  // count that software flushes query.
  const bool is_get = h.op == RmaOptype::get;
  std::vector<std::byte> data;
  switch (h.op) {
    case RmaOptype::put:
      mem.nic_write(a.base + h.offset, m.payload);
      break;
    case RmaOptype::accumulate:
      portals::apply_acc(h.acc, h.nt, mem.raw(a.base + h.offset),
                         m.payload.data(), h.length, mem.config().endian);
      break;
    case RmaOptype::get:
      data.resize(h.length);
      mem.nic_read(a.base + h.offset, data);
      break;
  }
  if (!is_get) am_applied_from_[m.src] += 1;
  am_applied_total_ += 1;
  AmHdr r;
  r.kind = is_get ? AmHdr::Kind::get_reply : AmHdr::Kind::op_ack;
  r.req_id = h.req_id;
  if (is_get) r.offset = h.value_a;  // packed destination offset at the origin
  if ((h.value_b >> 32) == 1) {
    // Notified software op: enqueue the notification now that the data is
    // applied (or, for a get, read: "the origin read this region"), and
    // echo the fire time so the origin can attribute the notify leg.
    fire_notify_local(
        h.mem_id,
        notify::Notification{m.src, static_cast<std::uint32_t>(h.value_b),
                             h.length, h.offset});
    (is_get ? r.value_b : r.value_a) = rank_->world().engine().now();
  }
  send_am(m.src, r, std::move(data), m.op);
}

// --------------------------------------------------------------- lock ops

bool RmaEngine::lock_acquire(int world_target) {
  if (target_failed_[static_cast<std::size_t>(world_target)] != 0) {
    return false;  // no lock manager to ask
  }
  auto* tr = trace::want(rank_->world().engine().tracer(),
                         trace::Category::serializer);
  trace::SpanHandle acq = 0;
  if (tr != nullptr) {
    acq = tr->span_begin(rank_track(tr, *rank_), trace::Category::serializer,
                         "lock.acquire",
                         "target=" + std::to_string(world_target));
  }
  auto st = new_req(world_target, 1);
  // Attribution: the acquire round trip is lock_wait on the parent op (if
  // one is being issued — engine-internal acquires stay untracked).
  const std::uint64_t tag = trace::op_tag(rank_->id(), st->id);
  auto* tl = trace::timeline(rank_->world().engine().tracer());
  const bool attr =
      tl != nullptr && attr_parent_ != 0 && tl->tracks(attr_parent_);
  const sim::Time t_req = rank_->world().engine().now();
  if (attr) tl->alias(tag, attr_parent_);
  charge_inject();
  AmHdr h;
  h.kind = AmHdr::Kind::lock_req;
  h.req_id = st->id;
  send_am(world_target, h, {}, tag);
  progress_until([st] { return st->done; });
  if (st->status == OpStatus::target_failed) {
    // The manager died while we queued; the pending request was drained.
    if (acq != 0) rank_->world().engine().tracer()->span_end(acq);
    return false;
  }
  if (attr) {
    tl->add(attr_parent_, trace::Segment::lock_wait, t_req,
            rank_->world().engine().now());
  }
  if (acq != 0) {
    trace::Recorder* rec = rank_->world().engine().tracer();
    rec->span_end(acq);
    lock_hold_spans_[world_target] =
        rec->span_begin(rank_track(rec, *rank_), trace::Category::serializer,
                        "lock.hold", "target=" + std::to_string(world_target));
  }
  return true;
}

void RmaEngine::lock_release(int world_target) {
  auto it = lock_hold_spans_.find(world_target);
  if (it != lock_hold_spans_.end()) {
    if (trace::Recorder* rec = rank_->world().engine().tracer()) {
      rec->span_end(it->second);
    }
    lock_hold_spans_.erase(it);
  }
  AmHdr h;
  h.kind = AmHdr::Kind::lock_release;
  send_am(world_target, h, {});
}

void RmaEngine::service_lock_request(int requester, std::uint64_t req_id) {
  if (lock_.held_by < 0) {
    grant_lock(requester, req_id);
  } else {
    lock_.waiters.emplace_back(requester, req_id);
  }
}

void RmaEngine::service_lock_release(int releaser) {
  M3RMA_ENSURE(lock_.held_by == releaser,
               "lock release from a rank that does not hold it");
  lock_.held_by = -1;
  if (!lock_.waiters.empty()) {
    const auto [next, req_id] = lock_.waiters.front();
    lock_.waiters.pop_front();
    grant_lock(next, req_id);
  }
}

void RmaEngine::grant_lock(int to, std::uint64_t req_id) {
  lock_.held_by = to;
  lock_grants_ += 1;
  note(*rank_, trace::Category::serializer, "lock.grant",
       [&] { return "to=" + std::to_string(to); }, "serializer.lock_grants");
  AmHdr g;
  g.kind = AmHdr::Kind::lock_grant;
  g.req_id = req_id;
  const std::uint64_t tag = trace::op_tag(to, req_id);
  rank_->world().engine().schedule_in(
      kLockServiceNs, [this, alive = alive_, to, g, tag] {
        if (*alive) send_am(to, g, {}, tag);
      });
}

}  // namespace m3rma::core
