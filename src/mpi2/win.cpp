#include "mpi2/win.hpp"

#include <algorithm>
#include <cstring>

#include "common/diagnostics.hpp"
#include "trace/attribution.hpp"
#include "trace/recorder.hpp"

namespace m3rma::mpi2 {

struct Win::CtrlHdr {
  enum class Kind : std::uint8_t {
    post,             // target exposes its window to an origin (PSCW)
    complete_notice,  // origin finished its access epoch (PSCW)
    lock_req,
    lock_grant,
    unlock,
  };
  Kind kind = Kind::post;
  LockType lock_type = LockType::shared;
};

namespace {
struct WireInfo {
  std::uint64_t match = 0;
  std::uint64_t len = 0;
  std::uint8_t endian = 0;
};
}  // namespace

/// Deferred-unpack state for gets in flight (completion happens at sync).
struct Win::GetState {
  std::uint32_t pending = 0;
  std::uint64_t dest = 0;
  bool needs_unpack = false;
  bool needs_swap = false;
  std::uint64_t origin_addr = 0;
  std::uint64_t origin_count = 0;
  dt::Datatype origin_dt;
  dt::Datatype target_dt;
  std::uint64_t target_count = 0;
};

Win::Win(runtime::Rank& rank, runtime::Comm& comm, std::uint64_t addr,
         std::uint64_t len)
    : rank_(&rank),
      comm_(&comm),
      ptl_(&rank.portals()),
      eq_(rank.world().engine()) {
  M3RMA_REQUIRE(len == 0 || rank.memory().contains(addr, len),
                "window region outside this rank's memory");

  // Collective creation: agree on a context id (leader + bcast).
  std::vector<std::byte> blob(sizeof(std::uint32_t));
  if (comm.rank() == 0) {
    const std::uint32_t id = rank.world().alloc_context_id();
    std::memcpy(blob.data(), &id, sizeof(id));
  }
  comm.bcast(blob, 0);
  std::uint32_t ctx_id = 0;
  std::memcpy(&ctx_id, blob.data(), sizeof(ctx_id));
  proto_ = kWinProtocolBase + static_cast<int>(ctx_id);

  my_match_ = (static_cast<std::uint64_t>(ctx_id) << 32) |
              static_cast<std::uint32_t>(rank.id());
  my_len_ = len;
  if (len > 0) {
    me_ = ptl_->me_append(kPtWin, my_match_, addr, len);
  }
  md_ = ptl_->md_bind(0, rank.memory().config().size, &eq_);
  targets_.resize(static_cast<std::size_t>(rank.world().size()));
  op_base_ = static_cast<std::uint64_t>(ctx_id + 1) << 28;
  unacked_ops_.resize(static_cast<std::size_t>(rank.world().size()));

  WireInfo mine{my_match_, len,
                static_cast<std::uint8_t>(rank.memory().config().endian)};
  const auto infos = comm.allgather_value(mine);
  remotes_.reserve(infos.size());
  for (const auto& i : infos) {
    remotes_.push_back(
        RemoteWin{i.match, i.len, static_cast<Endian>(i.endian)});
  }

  rank.world().fabric().nic(rank.id()).register_protocol(
      proto_, [this](fabric::Packet&& p) { on_ctrl(std::move(p)); });
  comm.barrier();
}

Win::~Win() {
  try {
    std::vector<int> all;
    for (int r = 0; r < comm_->size(); ++r) all.push_back(comm_->to_world(r));
    flush(all);
    comm_->barrier();
  } catch (...) {
    // Teardown during unwinding: skip the collective handshake.
  }
  rank_->world().fabric().nic(rank_->id()).unregister_protocol(proto_);
  if (me_ != 0) ptl_->me_unlink(me_);
  ptl_->md_release(md_);
}

void Win::end_op(std::uint64_t id) {
  if (auto* tl = trace::timeline(rank_->world().engine().tracer())) {
    const std::uint64_t tag = trace::op_tag(rank_->id(), id);
    if (tl->tracks(tag)) tl->op_end(tag, rank_->ctx().now());
  }
}

Win::PerTarget& Win::per(int world_rank) {
  return targets_[static_cast<std::size_t>(world_rank)];
}

void Win::validate_transfer(std::uint64_t origin_addr,
                            std::uint64_t origin_count,
                            const dt::Datatype& origin_dt, int target,
                            std::uint64_t target_disp,
                            std::uint64_t target_count,
                            const dt::Datatype& target_dt) const {
  M3RMA_REQUIRE(target >= 0 && target < comm_->size(),
                "target rank out of range");
  M3RMA_REQUIRE(origin_dt.matches(origin_count, target_dt, target_count),
                "origin/target datatype signatures do not match");
  const RemoteWin& rw = remotes_[static_cast<std::size_t>(target)];
  M3RMA_REQUIRE(target_disp + target_dt.extent() * target_count <= rw.length,
                "transfer exceeds the target window");
  M3RMA_REQUIRE(
      rank_->memory().contains(
          origin_addr,
          std::max<std::uint64_t>(origin_dt.extent() * origin_count, 1)),
      "origin buffer outside this rank's memory");
}

// ---------------------------------------------------------------- transfers

void Win::issue_put_like(bool is_acc, portals::AccOp op,
                         std::uint64_t origin_addr,
                         std::uint64_t origin_count,
                         const dt::Datatype& origin_dt, int target,
                         std::uint64_t target_disp,
                         std::uint64_t target_count,
                         const dt::Datatype& target_dt) {
  validate_transfer(origin_addr, origin_count, origin_dt, target,
                    target_disp, target_count, target_dt);
  if (is_acc) {
    M3RMA_REQUIRE(ptl_->supports_atomics(),
                  "mpi2 baseline accumulate needs NIC atomics");
    M3RMA_REQUIRE(target_dt.has_uniform_leaf(),
                  "accumulate requires a uniform-leaf datatype");
  }
  const RemoteWin& rw = remotes_[static_cast<std::size_t>(target)];
  const int t = comm_->to_world(target);
  const bool same_endian = rw.endian == rank_->memory().config().endian;
  const bool fast = origin_dt.is_contiguous() && target_dt.is_contiguous() &&
                    same_endian;
  const bool acks = ptl_->supports_ack_events();
  auto& mem = rank_->memory();

  std::uint64_t src_base = origin_addr;
  std::uint64_t staging = 0;
  if (!fast) {
    const std::uint64_t bytes = origin_dt.size() * origin_count;
    staging = mem.alloc(std::max<std::uint64_t>(bytes, 1));
    origin_dt.pack(mem.raw(origin_addr), origin_count, mem.raw(staging));
    if (!same_endian) {
      target_dt.byteswap_packed(mem.raw(staging), target_count);
    }
    src_base = staging;
  }

  const portals::NumType nt =
      is_acc ? portals::num_type_of(target_dt.uniform_leaf())
             : portals::NumType::i8;

  sim::Context& ctx = rank_->ctx();
  const std::uint64_t opid = op_base_ + ++next_op_seq_;
  auto* tl = trace::timeline(rank_->world().engine().tracer());
  if (tl != nullptr) {
    // Completion is deferred to the next synchronization call (MPI-2
    // semantics), but the op itself ends when its last ack (or, ack-less,
    // the flush that covers it) observes remote completion.
    tl->op_begin(trace::op_tag(rank_->id(), opid),
                 is_acc ? "win.accumulate" : "win.put", "deferred-sync",
                 "mpi2", ctx.now());
  }
  std::uint32_t blocks = 0;
  auto issue_block = [&](std::uint64_t mem_off, std::uint64_t packed_off,
                         std::uint64_t len) {
    if (len == 0) return;
    if (is_acc) {
      ptl_->atomic(ctx, op, nt, md_, src_base + packed_off, len, t, kPtWin,
                   rw.match, target_disp + mem_off, opid, acks);
    } else {
      ptl_->put(ctx, md_, src_base + packed_off, len, t, kPtWin, rw.match,
                target_disp + mem_off, opid, acks);
    }
    per(t).issued += 1;
    ops_issued_ += 1;
    blocks += 1;
  };
  if (fast) {
    issue_block(0, 0, target_dt.size() * target_count);
  } else {
    target_dt.for_each_block(target_count, [&](const dt::Block& b) {
      issue_block(b.mem_offset, b.packed_offset, b.nbytes());
    });
  }
  if (staging != 0) mem.dealloc(staging);
  if (tl != nullptr) {
    if (blocks == 0) {
      end_op(opid);  // nothing went on the wire: zero-length transfer
    } else if (acks) {
      ack_pending_[opid] = blocks;
    } else {
      unacked_ops_[static_cast<std::size_t>(t)].push_back(opid);
    }
  }
}

void Win::put(std::uint64_t origin_addr, std::uint64_t origin_count,
              const dt::Datatype& origin_dt, int target,
              std::uint64_t target_disp, std::uint64_t target_count,
              const dt::Datatype& target_dt) {
  issue_put_like(false, portals::AccOp::replace, origin_addr, origin_count,
                 origin_dt, target, target_disp, target_count, target_dt);
}

void Win::accumulate(portals::AccOp op, std::uint64_t origin_addr,
                     std::uint64_t origin_count,
                     const dt::Datatype& origin_dt, int target,
                     std::uint64_t target_disp, std::uint64_t target_count,
                     const dt::Datatype& target_dt) {
  issue_put_like(true, op, origin_addr, origin_count, origin_dt, target,
                 target_disp, target_count, target_dt);
}

void Win::get(std::uint64_t origin_addr, std::uint64_t origin_count,
              const dt::Datatype& origin_dt, int target,
              std::uint64_t target_disp, std::uint64_t target_count,
              const dt::Datatype& target_dt) {
  validate_transfer(origin_addr, origin_count, origin_dt, target,
                    target_disp, target_count, target_dt);
  const RemoteWin& rw = remotes_[static_cast<std::size_t>(target)];
  const int t = comm_->to_world(target);
  const bool same_endian = rw.endian == rank_->memory().config().endian;
  const bool fast = origin_dt.is_contiguous() && target_dt.is_contiguous() &&
                    same_endian;
  auto& mem = rank_->memory();

  auto st = std::make_shared<GetState>();
  const std::uint64_t id = op_base_ + ++next_op_seq_;
  auto* tl = trace::timeline(rank_->world().engine().tracer());
  if (tl != nullptr) {
    tl->op_begin(trace::op_tag(rank_->id(), id), "win.get", "deferred-sync",
                 "mpi2", rank_->ctx().now());
  }
  const std::uint64_t packed_len = target_dt.size() * target_count;
  if (fast) {
    st->dest = origin_addr;
  } else {
    st->dest = mem.alloc(std::max<std::uint64_t>(packed_len, 1));
    st->needs_unpack = true;
    st->needs_swap = !same_endian;
    st->origin_addr = origin_addr;
    st->origin_count = origin_count;
    st->origin_dt = origin_dt;
    st->target_dt = target_dt;
    st->target_count = target_count;
  }
  get_states_[id] = st;

  sim::Context& ctx = rank_->ctx();
  auto issue_block = [&](std::uint64_t mem_off, std::uint64_t packed_off,
                         std::uint64_t len) {
    if (len == 0) return;
    ptl_->get(ctx, md_, st->dest + packed_off, len, t, kPtWin, rw.match,
              target_disp + mem_off, id);
    per(t).pending_replies += 1;
    st->pending += 1;
    ops_issued_ += 1;
  };
  if (fast) {
    issue_block(0, 0, packed_len);
  } else {
    target_dt.for_each_block(target_count, [&](const dt::Block& b) {
      issue_block(b.mem_offset, b.packed_offset, b.nbytes());
    });
  }
  if (st->pending == 0) {
    get_states_.erase(id);
    if (tl != nullptr) end_op(id);  // zero-length transfer
  }
}

void Win::put_bytes(std::uint64_t origin_addr, int target,
                    std::uint64_t target_disp, std::uint64_t len) {
  const auto b = dt::Datatype::byte();
  put(origin_addr, len, b, target, target_disp, len, b);
}

void Win::get_bytes(std::uint64_t origin_addr, int target,
                    std::uint64_t target_disp, std::uint64_t len) {
  const auto b = dt::Datatype::byte();
  get(origin_addr, len, b, target, target_disp, len, b);
}

// ------------------------------------------------------------------ progress

void Win::drain() {
  while (auto ev = eq_.try_recv()) {
    switch (ev->type) {
      case portals::EventType::ack: {
        per(ev->initiator).acked += 1;
        auto it = ack_pending_.find(ev->user_ptr);
        if (it != ack_pending_.end() && --it->second == 0) {
          ack_pending_.erase(it);
          end_op(ev->user_ptr);
        }
        break;
      }
      case portals::EventType::reply: {
        if (per(ev->initiator).pending_replies > 0) {
          per(ev->initiator).pending_replies -= 1;
        }
        auto it = get_states_.find(ev->user_ptr);
        if (it != get_states_.end()) {
          auto st = it->second;
          if (--st->pending == 0) {
            end_op(ev->user_ptr);
            if (st->needs_unpack) {
              auto& mem = rank_->memory();
              if (st->needs_swap) {
                st->target_dt.byteswap_packed(mem.raw(st->dest),
                                              st->target_count);
              }
              st->origin_dt.unpack(mem.raw(st->dest), st->origin_count,
                                   mem.raw(st->origin_addr));
              mem.dealloc(st->dest);
            }
            get_states_.erase(it);
          }
        }
        break;
      }
      default:
        break;  // SEND events carry no completion obligation here
    }
  }
}

template <class Pred>
void Win::wait_for(Pred&& pred) {
  while (true) {
    drain();
    if (pred()) return;
    rank_->ctx().await(eq_.condition());
  }
}

void Win::flush_one(int world_target) {
  flush({world_target});
}

void Win::flush(const std::vector<int>& world_targets) {
  if (ptl_->supports_ack_events()) {
    wait_for([&] {
      for (int t : world_targets) {
        const PerTarget& pt = per(t);
        if (pt.acked < pt.issued || pt.pending_replies != 0) return false;
      }
      return true;
    });
    return;
  }
  // Ack-less: on an ordered network a zero-byte get probes delivery of all
  // earlier traffic on the same pair (FIFO both ways).
  M3RMA_REQUIRE(rank_->world().config().caps.ordered_delivery,
                "mpi2 baseline needs completion events or ordered delivery");
  for (int t : world_targets) {
    PerTarget& pt = per(t);
    if (pt.acked >= pt.issued && pt.pending_replies == 0) continue;
    // Find the target's comm rank for its match bits.
    int crank = -1;
    for (int r = 0; r < comm_->size(); ++r) {
      if (comm_->to_world(r) == t) crank = r;
    }
    M3RMA_ENSURE(crank >= 0, "flush target outside the window's comm");
    const RemoteWin& rw = remotes_[static_cast<std::size_t>(crank)];
    if (rw.length == 0 && pt.issued == 0 && pt.pending_replies == 0) {
      continue;
    }
    ptl_->get(rank_->ctx(), md_, 0, 0, t, kPtWin, rw.match, 0, 0);
    pt.pending_replies += 1;
  }
  wait_for([&] {
    for (int t : world_targets) {
      if (per(t).pending_replies != 0) return false;
    }
    return true;
  });
  for (int t : world_targets) {
    per(t).acked = per(t).issued;
    // Ack-less networks have no per-op completion signal; the probe above
    // proved delivery of everything earlier on this pair, so every open
    // put/accumulate to t ends here.
    auto& open = unacked_ops_[static_cast<std::size_t>(t)];
    for (const std::uint64_t id : open) end_op(id);
    open.clear();
  }
}

// --------------------------------------------------------------- fence sync

void Win::fence() {
  std::vector<int> all;
  for (int r = 0; r < comm_->size(); ++r) all.push_back(comm_->to_world(r));
  flush(all);
  comm_->barrier();
}

// ----------------------------------------------------------------- PSCW sync

void Win::post(std::span<const int> origin_group) {
  exposure_expected_ = origin_group.size();
  completes_seen_ = 0;
  CtrlHdr h;
  h.kind = CtrlHdr::Kind::post;
  for (int origin : origin_group) {
    send_ctrl(comm_->to_world(origin), h);
  }
}

void Win::start(std::span<const int> target_group) {
  start_group_.assign(target_group.begin(), target_group.end());
  const std::uint64_t needed = start_group_.size();
  wait_for([&] { return posts_seen_ >= needed; });
  posts_seen_ -= needed;
}

void Win::complete() {
  std::vector<int> wts;
  for (int r : start_group_) wts.push_back(comm_->to_world(r));
  flush(wts);
  CtrlHdr h;
  h.kind = CtrlHdr::Kind::complete_notice;
  for (int t : wts) send_ctrl(t, h);
  start_group_.clear();
}

void Win::wait() {
  wait_for([&] { return completes_seen_ >= exposure_expected_; });
  completes_seen_ -= exposure_expected_;
  exposure_expected_ = 0;
}

// ---------------------------------------------------------------- lock sync

void Win::lock(LockType type, int target) {
  const int t = comm_->to_world(target);
  grant_pending_[t] = true;
  CtrlHdr h;
  h.kind = CtrlHdr::Kind::lock_req;
  h.lock_type = type;
  send_ctrl(t, h);
  wait_for([&] { return !grant_pending_[t]; });
}

void Win::unlock(int target) {
  const int t = comm_->to_world(target);
  flush_one(t);
  CtrlHdr h;
  h.kind = CtrlHdr::Kind::unlock;
  send_ctrl(t, h);
}

void Win::try_grant_locks() {
  while (!lock_queue_.empty()) {
    const LockWaiter& w = lock_queue_.front();
    if (w.type == LockType::exclusive) {
      if (excl_holder_ >= 0 || shared_holders_ > 0) return;
      excl_holder_ = w.origin;
    } else {
      if (excl_holder_ >= 0) return;
      shared_holders_ += 1;
    }
    CtrlHdr g;
    g.kind = CtrlHdr::Kind::lock_grant;
    send_ctrl(w.origin, g);
    lock_queue_.pop_front();
  }
}

// ------------------------------------------------------------ control plane

void Win::send_ctrl(int world_target, const CtrlHdr& h) {
  fabric::Packet p;
  p.protocol = proto_;
  fabric::set_header(p, h);
  rank_->world().fabric().nic(rank_->id()).send(world_target, std::move(p));
}

void Win::on_ctrl(fabric::Packet&& p) {
  const auto h = fabric::get_header<CtrlHdr>(p);
  switch (h.kind) {
    case CtrlHdr::Kind::post:
      posts_seen_ += 1;
      break;
    case CtrlHdr::Kind::complete_notice:
      completes_seen_ += 1;
      break;
    case CtrlHdr::Kind::lock_req:
      lock_queue_.push_back(LockWaiter{p.src, h.lock_type});
      try_grant_locks();
      break;
    case CtrlHdr::Kind::lock_grant:
      grant_pending_[p.src] = false;
      break;
    case CtrlHdr::Kind::unlock:
      if (excl_holder_ == p.src) {
        excl_holder_ = -1;
      } else {
        M3RMA_ENSURE(shared_holders_ > 0,
                     "unlock without a matching lock");
        shared_holders_ -= 1;
      }
      try_grant_locks();
      break;
  }
  eq_.condition().notify_all();
}

}  // namespace m3rma::mpi2
