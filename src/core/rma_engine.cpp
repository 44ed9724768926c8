#include "core/rma_engine.hpp"

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>

#include "core/engine_internal.hpp"
#include "core/replication.hpp"
#include "trace/attribution.hpp"
#include "trace/recorder.hpp"

namespace m3rma::core {

// ---------------------------------------------------------- request state

bool Request::done() const { return st_ == nullptr || st_->done; }

OpStatus Request::status() const {
  return st_ == nullptr ? OpStatus::ok : st_->status;
}

std::uint64_t Request::rmw_value() const {
  return st_ == nullptr ? 0 : st_->rmw_value;
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

std::uint64_t apply_rmw_word(memsim::MemoryDomain& mem, std::uint64_t addr,
                             const AmHdr& h) {
  std::byte operand[16];
  u64_to_endian_bytes(h.value_a, mem.config().endian, operand);
  u64_to_endian_bytes(h.value_b, mem.config().endian, operand + 8);
  const std::size_t oplen = h.rmw == portals::RmwOp::compare_swap ? 16u : 8u;
  const auto old = portals::apply_rmw(h.rmw, portals::NumType::u64,
                                      mem.raw(addr), std::span(operand, oplen),
                                      mem.config().endian);
  return u64_from_endian_bytes(old.data(), mem.config().endian);
}

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
  if (rank.world().config().replication.enabled) {
    repl_ = std::make_unique<Replication>(*this);
  }
  md_all_ = ptl_->md_bind(0, rank.memory().config().size, &eq_);
  auto& nic = rank.world().fabric().nic(rank.id());
  M3RMA_REQUIRE(!nic.protocol_registered(kAmProtocolId),
                "one live RmaEngine per rank at a time");
  nic.register_protocol(kAmProtocolId,
                        [this](fabric::Packet&& p) { on_am(std::move(p)); });
  // The node's one notify sink: a notified op that lands on a window copy
  // this rank hosts goes to that copy's queue.
  ptl_->set_notify_sink([this](std::uint64_t mem_id, int initiator,
                               std::uint32_t tag, std::uint64_t length,
                               std::uint64_t offset) {
    fire_notify_local(mem_id,
                      notify::Notification{initiator, tag, length, offset});
  });
  death_listener_ = rank.world().fabric().add_death_listener(
      [this](int node) { on_target_failed(node); });

  am_chan_ = std::make_shared<sim::Channel<AmMsg>>(rank.world().engine());
  if (cfg_.serializer == SerializerKind::comm_thread) {
    // The dedicated communication thread: the cheap serializer of §V-A.
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
  if (death_listener_ != -1) {
    rank_->world().fabric().remove_death_listener(death_listener_);
    death_listener_ = -1;
  }
  *alive_ = false;
  am_chan_->push(AmMsg{-2, {}, {}});
  auto& nic = rank_->world().fabric().nic(rank_->id());
  if (nic.protocol_registered(kAmProtocolId)) {
    nic.unregister_protocol(kAmProtocolId);
  }
  for (auto& [id, a] : attached_) ptl_->me_unlink(a.me);
  attached_.clear();
  ptl_->set_notify_sink(nullptr);
  notify_queues_.clear();
  repl_.reset();  // frees the replica regions hosted for other ranks
  ptl_->md_release(md_all_);
}

void RmaEngine::quiesce() {
  complete(kAllRanks);
  if (repl_) {
    repl_->quiesce();
  } else {
    comm_->barrier();
  }
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
  expose(id, addr, length);

  const auto& mc = rank_->memory().config();
  TargetMem t;
  t.owner = rank_->id();
  t.id = id;
  t.base = addr;
  t.length = length;
  t.endian = mc.endian;
  t.addr_bits = static_cast<std::uint8_t>(mc.addr_bits);
  t.noncoherent = mc.coherence == memsim::Coherence::noncoherent_writethrough;

  if (repl_) t.backup = repl_->attach(id, length);
  return t;
}

void RmaEngine::expose(std::uint64_t mem_id, std::uint64_t base,
                       std::uint64_t length) {
  const portals::MeHandle me = ptl_->me_append(kPtData, mem_id, base, length);
  attached_.emplace(mem_id, Attached{base, length, me});
  // Notification queue for this window copy, created before any origin can
  // learn the handle: a notified op can never land unheard. Creating it is
  // simulation-invisible (no time, no traffic) so unused windows stay
  // byte-identical.
  notify_queues_.try_emplace(mem_id, rank_->world().engine());
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
  if (repl_) repl_->detach(mem.id);
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
  return xfer(RmaOptype::put, portals::AccOp::replace, origin_addr,
              origin_count, origin_dt, mem, target_disp, target_count,
              target_dt, target_rank, attrs);
}

Request RmaEngine::get(std::uint64_t origin_addr, std::uint64_t origin_count,
                       const dt::Datatype& origin_dt, const TargetMem& mem,
                       std::uint64_t target_disp, std::uint64_t target_count,
                       const dt::Datatype& target_dt, int target_rank,
                       Attrs attrs) {
  return xfer(RmaOptype::get, portals::AccOp::replace, origin_addr,
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
  return xfer(RmaOptype::accumulate, op, origin_addr, origin_count, origin_dt,
              mem, target_disp, target_count, target_dt, target_rank, attrs);
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
  return it->second;
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
  it->second.push(n);
  stats_.notifies_fired += 1;
}

// --------------------------------------------------------------- core issue

Request RmaEngine::xfer(RmaOptype op, portals::AccOp acc_op,
                        std::uint64_t origin_addr,
                        std::uint64_t origin_count,
                        const dt::Datatype& origin_dt, const TargetMem& mem,
                        std::uint64_t target_disp,
                        std::uint64_t target_count,
                        const dt::Datatype& target_dt, int target_rank,
                        Attrs attrs) {
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

  attrs = attrs | cfg_.default_attrs;
  TargetMem eff;
  if (const OpStatus fail = resolve(mem, &eff); fail != OpStatus::ok) {
    return fail_fast(mem.owner, fail);
  }

  const bool locked = attrs.has(RmaAttr::atomicity) &&
                      cfg_.serializer == SerializerKind::coarse_lock;
  auto st = new_req(locked ? -1 : eff.owner);
  // An unlocked op's failover is decided by issue_blocks once it is fully
  // on the wire; the order stall below already counts as its injection.
  st->injecting = !locked;
  if (notify_tag_) {
    st->notify = true;
    st->notify_tag = *notify_tag_;
    st->notify_bytes = target_dt.size() * target_count;
    st->notify_disp = target_disp;
  }

  const char* opname = op == RmaOptype::put         ? "rma.put"
                       : op == RmaOptype::get       ? "rma.get"
                                                    : "rma.accumulate";
  if (auto* tr = rank_->world().engine().tracer()) {
    st->trace_span = tr->span_begin(
        rank_track(tr, *rank_), trace::Category::rma, opname,
        "attrs=" + attrs.describe() +
            " bytes=" + std::to_string(target_dt.size() * target_count) +
            " target=" + std::to_string(eff.owner));
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

  if (locked && op == RmaOptype::accumulate && !ptl_->supports_atomics()) {
    // Get-modify-put under the lock: the classic emulation when neither NIC
    // atomics nor an extra execution context exist. The image is kept in
    // this node's byte order; the direct get/put convert on the wire.
    const portals::NumType nt =
        portals::num_type_of(target_dt.uniform_leaf());
    const std::uint64_t bytes = target_dt.size() * target_count;
    auto& m = rank_->memory();
    const std::uint64_t image = m.alloc(std::max<std::uint64_t>(bytes, 1));
    settle(*st, locked_sequence(
                    st, RmaOptype::put, portals::AccOp::replace, image, bytes,
                    dt::Datatype::byte(), mem, eff, target_disp, target_count,
                    target_dt, [&] {
                      const std::uint64_t operand = pack_origin(
                          origin_addr, origin_count, origin_dt, target_dt,
                          target_count, m.config().endian);
                      portals::apply_acc(acc_op, nt, m.raw(image),
                                         m.raw(operand), bytes,
                                         m.config().endian);
                      m.dealloc(operand);
                    }));
    m.dealloc(image);
  } else if (locked) {
    settle(*st, locked_sequence(st, op, acc_op, origin_addr, origin_count,
                                origin_dt, mem, eff, target_disp,
                                target_count, target_dt, nullptr));
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
  st->injecting = true;
  const bool is_get = op == RmaOptype::get;
  const bool is_acc = op == RmaOptype::accumulate;
  const bool same_endian = mem.endian == rank_->memory().config().endian;
  const bool fast = origin_dt.is_contiguous() && target_dt.is_contiguous() &&
                    same_endian;
  const portals::NumType nt =
      is_acc ? portals::num_type_of(target_dt.uniform_leaf())
             : portals::NumType::i8;
  const std::uint64_t packed_len = target_dt.size() * target_count;
  // Read where used: packing yields, and the backup may die meanwhile.
  const auto backup_live = [&] {
    return repl_ && mem.backup >= 0 && !dead(mem.backup);
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
  if (is_get) {
    st->is_get = true;
    st->origin_addr = origin_addr;
    st->origin_count = origin_count;
    st->origin_dt = origin_dt;
    st->target_dt = target_dt;
    st->target_count = target_count;
    if (backup_live()) repl_->track_get(*st, mem, target_disp);
    if (fast) {
      st->dest_addr = origin_addr;
    } else {
      st->dest_addr =
          rank_->memory().alloc(std::max<std::uint64_t>(packed_len, 1));
      st->needs_unpack = true;
      st->needs_swap = !same_endian;
      // Prepay the local gather/scatter cost (completion runs in event
      // context where time cannot be charged).
      charge_copy(packed_len);
    }
  } else if (!fast) {
    staging = pack_origin(origin_addr, origin_count, origin_dt, target_dt,
                          target_count, mem.endian);
  }
  const bool mirror = !is_get && backup_live();
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
    // Counted after the inject delay: a target that died during it owes
    // nothing, and the request is failed over below.
    if (PerTarget* pt = live_ledger(t)) {
      if (is_get) {
        pt->pending_replies += 1;
      } else {
        pt->issued += 1;
        if (via_am || want_ack) pt->issued_rc += 1;
      }
    }
    st->pending += 1;
    if (mirror) {
      repl_->mirror_block(*st, is_acc, acc_op, nt, mem, offset,
                          src_base + packed_off, len);
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

  // Every block and mirror is out: decide failover now if the target died
  // meanwhile (the failure detector skipped this request). The op is
  // rescued or drained, never issued again.
  st->injecting = false;
  if (st->done) return;
  if (dead(t)) {
    fail_over(*st, t);
  } else if (st->pending == 0) {
    settle(*st);  // zero-byte transfer
  }
}

OpStatus RmaEngine::locked_sequence(
    const std::shared_ptr<Request::State>& st, RmaOptype op,
    portals::AccOp acc_op, std::uint64_t origin_addr,
    std::uint64_t origin_count, const dt::Datatype& origin_dt,
    const TargetMem& mem, TargetMem eff, std::uint64_t target_disp,
    std::uint64_t target_count, const dt::Datatype& target_dt,
    const std::function<void()>& combine) {
  // Attribution: the lock acquires and the children alias into the parent
  // op, so their work lands on it.
  const std::uint64_t ptag = trace::op_tag(rank_->id(), st->id);
  auto* tl = trace::timeline(rank_->world().engine().tracer());
  const bool attr = tl != nullptr && tl->tracks(ptag);
  ScopedSet<std::uint64_t> parent_scope(attr_parent_,
                                        attr ? ptag : attr_parent_);
  const bool read = op == RmaOptype::get || combine;
  const bool write = op != RmaOptype::get;
  // One data-moving child, issued directly at `at`. A notified op has one
  // child, which inherits the tag (and with it the wire fire and any
  // failover re-arm).
  auto child = [&](RmaOptype cop, portals::AccOp cacc, const TargetMem& at) {
    auto c = new_req(at.owner);
    if (attr) tl->alias(trace::op_tag(rank_->id(), c->id), ptag);
    c->notify = st->notify;
    c->notify_tag = st->notify_tag;
    c->notify_bytes = st->notify_bytes;
    c->notify_disp = st->notify_disp;
    issue_blocks(c, cop, cacc, false, origin_addr, origin_count, origin_dt,
                 at, target_disp, target_count, target_dt,
                 Attrs(RmaAttr::remote_completion));
    return c;
  };
  const auto finish = [this](const std::shared_ptr<Request::State>& c) {
    progress_until([c] { return c->done; });
    return c->status;
  };
  for (;;) {
    const int t = eff.owner;
    if (lock_acquire(t)) {
      bool got = true;
      if (read) {
        // An RMW has not passed xfer's order stall.
        if (per(t).order_fence) stall_for_order(t);
        // Read without a backup: a read the target's death cut short is
        // not re-driven there, the whole sequence runs again instead.
        TargetMem at = eff;
        at.backup = -1;
        got = finish(child(RmaOptype::get, portals::AccOp::replace, at)) ==
              OpStatus::ok;
      }
      if (got && !write) {
        lock_release(t);
        return OpStatus::ok;
      }
      if (got && combine) combine();
      if (got && !dead(t)) {
        // FIFO delivery lets the release ride right behind a plain write:
        // the next grant can only be issued after it has been applied, so
        // atomicity holds without stalling a full ACK round trip.
        const bool early =
            !read && rank_->world().config().caps.ordered_delivery;
        auto w = child(combine ? RmaOptype::put : op,
                       combine ? portals::AccOp::replace : acc_op, eff);
        if (early) lock_release(t);
        const OpStatus s = finish(w);
        if (!early) {
          flush_target(t);
          lock_release(t);
        }
        return s;
      }
    }
    // The lock target died before the write was issued, so nothing was
    // applied: run the whole sequence again at the acting primary.
    if (const OpStatus s = resolve(mem, &eff); s != OpStatus::ok) return s;
  }
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
  // Phase 1: wait for outstanding get/RMW replies and all expected
  // confirmations (hardware ACKs / software op_acks).
  progress_until([&] {
    for (int t : world_targets) {
      if (dead(t)) continue;
      const PerTarget& pt = per(t);
      if (pt.pending_replies != 0 || pt.acked < pt.issued_rc) return false;
      // t may be a backup whose mirror stream carries rescued ops:
      // completion must wait for the stream to flush (which also finishes
      // every parked waiter and unblocks queued get re-drives).
      if (repl_ && repl_->busy(t)) return false;
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
  std::vector<std::shared_ptr<Request::State>> queries;
  std::vector<int> query_targets;
  for (int t : world_targets) {
    if (dead(t) || target_quiet(t)) continue;
    auto st = new_req(t, 1);
    st->flush_threshold = per(t).issued;
    charge_inject();
    AmHdr q;
    q.kind = AmHdr::Kind::count_query;
    q.req_id = st->id;
    send_am(t, q, {});
    queries.push_back(std::move(st));
    query_targets.push_back(t);
  }
  progress_until([&] {
    for (const auto& st : queries) {
      if (!st->done) return false;
    }
    return true;
  });
  for (std::size_t i = 0; i < queries.size(); ++i) {
    // A query whose target died mid-flush was drained, not answered; that
    // target's ops are error-completed, not confirmed.
    if (queries[i]->status == OpStatus::ok) {
      per(query_targets[i]).confirmed = per(query_targets[i]).issued;
    }
  }
}

std::vector<int> RmaEngine::complete(int target_rank) {
  stats_.completes += 1;
  trace::SpanHandle h = 0;
  if (auto* tr = rank_->world().engine().tracer()) {
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
    if (dead(world_targets[i])) failed.push_back(comm_targets[i]);
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
  return dead(comm_->to_world(target_rank));
}

sim::Time RmaEngine::target_failed_at(int target_rank) const {
  const int w = comm_->to_world(target_rank);
  return target_failed_at_[static_cast<std::size_t>(w)];
}

// ---------------------------------------------------------- failure detector

void RmaEngine::on_target_failed(int node) {
  if (node == rank_->id()) return;  // our own death; the process is unwinding
  if (dead(node)) return;
  const auto n = static_cast<std::size_t>(node);
  target_failed_[n] = 1;
  target_failed_at_[n] = rank_->world().engine().now();
  stats_.target_failures += 1;
  note(*rank_, trace::Category::rma, "fault.detect",
       [&] { return "target=" + std::to_string(node); });

  // Drain every pending op addressed to the dead target: rescue it or
  // complete it now with an error status instead of leaving it waiting for
  // replies that can never arrive. A request still being injected is left
  // to issue_blocks, which applies the same rule once it is fully out.
  // Sorted by id — unordered_map order is not deterministic.
  std::vector<std::shared_ptr<Request::State>> victims;
  for (auto& [id, st] : reqs_) {
    if (st->world_target == node && !st->done && !st->injecting) {
      victims.push_back(st);
    }
  }
  std::sort(victims.begin(), victims.end(),
            [](const auto& a, const auto& b) { return a->id < b->id; });
  for (auto& st : victims) fail_over(*st, node);

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

  if (repl_) repl_->on_target_failed(node);

  // Wake any process blocked in progress_until so it re-evaluates its
  // predicate against the reconciled state.
  eq_.condition().notify_all();
}

void RmaEngine::fail_over(Request::State& st, int node) {
  if (st.is_get && st.needs_unpack) {
    // The staging buffer holds garbage: a drained get skips the unpack, a
    // re-driven one gets a fresh buffer.
    rank_->memory().dealloc(st.dest_addr);
    st.needs_unpack = false;
  }
  if (repl_ && repl_->rescue(st, node)) return;
  const OpStatus status = st.repl_backup >= 0 ? OpStatus::replica_lost
                                              : OpStatus::target_failed;
  if (status == OpStatus::replica_lost) stats_.replica_lost_ops += 1;
  stats_.drained_ops += 1;
  note(*rank_, trace::Category::rma, "fault.drain",
       [&] {
         return "req=" + std::to_string(st.id) +
                " target=" + std::to_string(node);
       });
  settle(st, status);
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
  Request req = start_rmw(op, mem, disp, a, b, target_rank);
  req.wait();
  if (req.failed()) {
    throw RankFailedError("RMW target rank " +
                          std::to_string(req.st_->world_target) + " failed" +
                          (req.status() == OpStatus::replica_lost
                               ? " (replica lost)"
                               : ""));
  }
  return req.rmw_value();
}

Request RmaEngine::start_rmw(portals::RmwOp op, const TargetMem& mem,
                             std::uint64_t disp, std::uint64_t a,
                             std::uint64_t b, int target_rank) {
  stats_.rmws += 1;
  M3RMA_REQUIRE(mem.valid(), "RMW on an invalid TargetMem");
  M3RMA_REQUIRE(comm_->to_world(target_rank) == mem.owner,
                "target_rank does not own this TargetMem");
  M3RMA_REQUIRE(disp + 8 <= mem.length, "RMW exceeds the target memory");
  TargetMem eff;
  if (const OpStatus fail = resolve(mem, &eff); fail != OpStatus::ok) {
    return fail_fast(mem.owner, fail);
  }
  const int t = eff.owner;
  const bool locked = !ptl_->supports_atomics() &&
                      cfg_.serializer == SerializerKind::coarse_lock;
  // A replicated window's RMW is mirrored once the primary has replied, and
  // retried at the backup if the primary dies first.
  const bool replicated = repl_ && eff.backup >= 0;

  // RMW mechanism: NIC-executed, lock-emulated, or serializer AM (§V).
  const char* mech =
      ptl_->supports_atomics() ? "nic" : (locked ? "lock" : "am");
  trace::SpanHandle rmw_span = 0;
  if (auto* tr = rank_->world().engine().tracer()) {
    rmw_span = tr->span_begin(
        rank_track(tr, *rank_), trace::Category::rma, "rma.rmw",
        std::string("mech=") + mech + " target=" + std::to_string(t));
  }
  // One tracked op: a locked get-modify-put whose children alias into it,
  // a NIC-executed fetch-atomic, or an rmw_op AM for the target's
  // serializer.
  auto st = locked ? new_req(-1) : new_req(t, 1);
  // The span closes when the request settles, except a replicated NIC or
  // AM RMW's, which also covers the mirror.
  if (locked || !replicated) st->trace_span = rmw_span;
  const std::uint64_t tag = trace::op_tag(rank_->id(), st->id);
  if (auto* tl = trace::timeline(rank_->world().engine().tracer())) {
    tl->op_begin(tag, "rma.rmw", mech, cfg_.api_label,
                 rank_->world().engine().now());
    st->op_tracked = true;
  }
  if (locked) {
    // The writeback is a put of the window, mirrored like any other: no
    // replicate_rmw here.
    const std::uint64_t image = rank_->memory().alloc(8);
    const auto u = dt::Datatype::uint64();
    AmHdr h;
    h.rmw = op;
    h.value_a = a;
    h.value_b = b;
    settle(*st, locked_sequence(st, RmaOptype::put, portals::AccOp::replace,
                                image, 1, u, mem, eff, disp, 1, u, [&] {
                                  st->rmw_value = apply_rmw_word(
                                      rank_->memory(), image, h);
                                }));
    rank_->memory().dealloc(image);
    return Request(this, std::move(st));
  }

  // Count the reply before the inject delay: a target that dies during it
  // drains the request and zeroes the count, and must not see it come back.
  if (PerTarget* pt = live_ledger(t)) pt->pending_replies += 1;
  if (ptl_->supports_atomics()) {
    st->rmw_buf = rank_->memory().alloc(24);  // operand (16 B) + result
    st->rmw_endian = eff.endian;
    std::byte tmp[16];
    u64_to_endian_bytes(a, eff.endian, tmp);
    u64_to_endian_bytes(b, eff.endian, tmp + 8);
    const std::uint64_t oplen =
        op == portals::RmwOp::compare_swap ? 16u : 8u;
    rank_->memory().nic_write(st->rmw_buf, std::span(tmp, oplen));
    ptl_->fetch_atomic(rank_->ctx(), op, portals::NumType::u64, md_all_,
                       st->rmw_buf, st->rmw_buf + 16, t, kPtData, eff.id,
                       disp, st->id);
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
  if (!replicated) return Request(this, std::move(st));

  progress_until([st] { return st->done; });
  const bool ok = st->status == OpStatus::ok;
  if (ok) repl_->replicate_rmw(op, eff, disp, a, b);
  if (trace::Recorder* tr = rank_->world().engine().tracer();
      tr != nullptr && rmw_span != 0) {
    tr->span_end(rmw_span);
  }
  // Retry at the live backup (the re-entry resolves along the succession
  // chain, which strictly advances past dead ranks).
  if (!ok && !dead(eff.backup)) {
    return start_rmw(op, mem, disp, a, b, target_rank);
  }
  return Request(this, std::move(st));
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
  if (dead(t)) return fail_fast(t, OpStatus::target_failed);
  auto st = new_req(t, 1);
  charge_inject();
  AmHdr h;
  h.kind = AmHdr::Kind::rmi_op;
  h.req_id = st->id;
  h.value_a = static_cast<std::uint64_t>(static_cast<std::uint32_t>(id));
  h.length = args.size();
  send_am(t, h, std::vector<std::byte>(args.begin(), args.end()));
  if (PerTarget* pt = live_ledger(t)) pt->pending_replies += 1;
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
  while (auto ev = eq_.try_recv()) handle_eq_event(*ev);
  if (cfg_.serializer != SerializerKind::comm_thread) {
    while (auto m = am_chan_->try_recv()) serve(rank_->ctx(), std::move(*m));
  }
  if (repl_) repl_->progress();
}

std::size_t RmaEngine::wait_any(std::span<const Request> reqs) {
  M3RMA_REQUIRE(!reqs.empty(), "wait_any needs at least one request");
  const auto first_done = [reqs] {
    std::size_t i = 0;
    while (i < reqs.size() && !reqs[i].done()) ++i;
    return i;
  };
  std::size_t i = first_done();
  if (i == reqs.size()) {
    progress_until([&] { return (i = first_done()) < reqs.size(); });
  }
  return i;
}

void RmaEngine::progress_poll(sim::Time duration, sim::Time interval) {
  const sim::Time until = rank_->ctx().now() + duration;
  while (rank_->ctx().now() < until) {
    progress();
    rank_->ctx().delay(interval);
  }
  progress();
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

Request RmaEngine::fail_fast(int world_target, OpStatus status) {
  stats_.failed_fast += 1;
  auto failed = new_req(world_target);
  settle(*failed, status);
  return Request(this, std::move(failed));
}

void RmaEngine::settle(Request::State& st, OpStatus status) {
  st.status = status;
  st.pending = 0;
  st.done = true;
  if (st.rmw_buf != 0) {
    auto& mem = rank_->memory();
    if (status == OpStatus::ok) {
      st.rmw_value = u64_from_endian_bytes(mem.raw(st.rmw_buf + 16),
                                           st.rmw_endian);
    }
    mem.dealloc(st.rmw_buf);
    st.rmw_buf = 0;
  }
  finish_trace(st);
  reqs_.erase(st.id);
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

OpStatus RmaEngine::resolve(const TargetMem& mem, TargetMem* eff) {
  if (repl_) return repl_->resolve(mem, eff);
  *eff = mem;
  return dead(mem.owner) ? OpStatus::target_failed : OpStatus::ok;
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
      am_chan_->push(std::move(m));
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
    case AmHdr::Kind::rmi_reply: {
      if (per(p.src).pending_replies > 0) per(p.src).pending_replies -= 1;
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
    default:  // replication and teardown kinds
      M3RMA_ENSURE(repl_ != nullptr, "replication message, replication off");
      repl_->on_am(h, p);
      break;
  }
  eq_.condition().notify_all();
}

bool RmaEngine::serve(sim::Context& ctx, AmMsg&& m) {
  // Copied before the apply delay: a killed rank's engine is destroyed
  // during it, and then the token is all that is left to read.
  const std::shared_ptr<bool> alive = alive_;
  trace::Recorder* tr = ctx.engine().tracer();
  // The track is the serving process: "commthread<id>" or "rank<id>".
  const trace::SpanHandle h =
      tr == nullptr ? 0
                    : tr->span_begin(tr->track(ctx.name()),
                                     trace::Category::serializer, "serialize",
                                     "from=" + std::to_string(m.src));
  auto* tl = trace::timeline(tr);
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
  if (h != 0) tr->span_end(h);
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
    const std::uint64_t old = apply_rmw_word(mem, a.base + h.offset, h);
    am_applied_total_ += 1;
    AmHdr r;
    r.kind = AmHdr::Kind::rmw_reply;
    r.req_id = h.req_id;
    r.value_a = old;
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
  if (dead(world_target)) return false;  // no lock manager to ask
  auto* tr = rank_->world().engine().tracer();
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
  if (dead(world_target)) return;  // no lock manager left to release
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
       [&] { return "to=" + std::to_string(to); });
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
