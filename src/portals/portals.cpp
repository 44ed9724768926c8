#include "portals/portals.hpp"

#include <cstring>
#include <utility>

#include "trace/attribution.hpp"
#include "trace/recorder.hpp"

namespace m3rma::portals {

namespace {

/// Key of matched_counts_: (pt_index, src).
std::uint64_t count_key(int pt_index, int src) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(pt_index))
          << 32) |
         static_cast<std::uint32_t>(src);
}

}  // namespace

struct Portals::WireHdr {
  enum class Op : std::uint8_t {
    put,
    get_req,
    reply,
    atomic,
    fetch_atomic,
    ack,
  };

  Op op = Op::put;
  AccOp acc_op = AccOp::replace;
  RmwOp rmw_op = RmwOp::fetch_add;
  NumType num_type = NumType::i64;
  std::uint8_t want_ack = 0;
  // Notified access rides in what used to be padding so the header (and
  // therefore every packet's wire_size and timing) stays byte-identical
  // for non-notified traffic. On acks/replies for notified ops, remote_off
  // is recycled to echo the target-side fire time back to the initiator.
  std::uint8_t notify = 0;
  std::int32_t pt_index = 0;
  std::uint64_t match = 0;
  std::uint64_t remote_off = 0;
  std::uint64_t length = 0;
  std::uint64_t user_ptr = 0;
  std::uint32_t md = 0;
  std::uint32_t ntag = 0;
  std::uint64_t local_off = 0;
};

Portals::Portals(fabric::Nic& nic, memsim::MemoryDomain& mem)
    : nic_(&nic), mem_(&mem) {
  static_assert(sizeof(WireHdr) == 64,
                "notify fields must live in existing padding: growing the "
                "header changes every packet's wire size and timing");
  nic_->register_protocol(kProtocolId,
                          [this](fabric::Packet&& p) { deliver(std::move(p)); });
}

bool Portals::supports_atomics() const {
  return nic_->fabric().caps().native_atomics;
}

bool Portals::supports_ack_events() const {
  return nic_->fabric().caps().remote_completion_events;
}

// ------------------------------------------------------------ registration

MdHandle Portals::md_bind(std::uint64_t base, std::uint64_t length,
                          EventQueue* eq) {
  M3RMA_REQUIRE(length == 0 || mem_->contains(base, length),
                "md_bind range outside the memory domain");
  const MdHandle h = next_md_++;
  mds_.emplace(h, Md{base, length, eq});
  return h;
}

void Portals::md_release(MdHandle md) {
  M3RMA_REQUIRE(mds_.erase(md) == 1, "md_release of unknown handle");
}

MeHandle Portals::me_append(int pt_index, std::uint64_t match,
                            std::uint64_t base, std::uint64_t length) {
  M3RMA_REQUIRE(length == 0 || mem_->contains(base, length),
                "me_append range outside the memory domain");
  const MeHandle h = next_me_++;
  mes_.emplace(h, Me{pt_index, match, base, length});
  me_order_.push_back(h);
  return h;
}

void Portals::me_unlink(MeHandle me) {
  M3RMA_REQUIRE(mes_.erase(me) == 1, "me_unlink of unknown handle");
  std::erase(me_order_, me);
}

Portals::Md Portals::md_copy(MdHandle md) const {
  auto it = mds_.find(md);
  M3RMA_REQUIRE(it != mds_.end(), "operation on unknown MD handle");
  return it->second;
}

void Portals::fire_notify(std::uint64_t match, int initiator,
                          std::uint32_t ntag, std::uint64_t length,
                          std::uint64_t offset) {
  if (!notify_sink_) {
    ++dropped_;
    return;
  }
  trace_eq("notify", initiator, length);
  notify_sink_(match, initiator, ntag, length, offset);
}

std::uint64_t Portals::received_data_ops(int pt_index, int src) const {
  auto it = matched_counts_.find(count_key(pt_index, src));
  return it == matched_counts_.end() ? 0 : it->second;
}

Portals::Me* Portals::match_me(int pt_index, std::uint64_t bits,
                               std::uint64_t offset, std::uint64_t length) {
  for (MeHandle h : me_order_) {
    auto it = mes_.find(h);
    if (it == mes_.end()) continue;
    Me& me = it->second;
    if (me.pt_index != pt_index) continue;
    if (bits != me.match) continue;
    if (offset + length > me.length) return nullptr;  // matched but truncated
    return &me;
  }
  return nullptr;
}

void Portals::trace_eq(const char* type, int initiator,
                       std::uint64_t length) {
  auto* tr = nic_->fabric().engine().tracer();
  if (tr == nullptr) return;
  tr->instant(tr->track("rank" + std::to_string(node())),
              trace::Category::portals, std::string("eq:") + type,
              "from=" + std::to_string(initiator) +
                  " len=" + std::to_string(length));
}

void Portals::charge_inject(sim::Context& ctx, std::uint64_t op) {
  const sim::Time t0 = ctx.now();
  ctx.delay(nic_->fabric().costs().inject_overhead_ns);
  if (auto* tl = trace::timeline(nic_->fabric().engine().tracer());
      tl != nullptr && tl->tracks(op)) {
    tl->add(op, trace::Segment::inject, t0, ctx.now());
  }
}

void Portals::post_send_event(const Event& ev, MdHandle md,
                              std::uint64_t bytes) {
  // Local (SEND) completion models the DMA out of the source buffer: it
  // arrives local_completion_ns plus serialization time after injection.
  const auto& costs = nic_->fabric().costs();
  const auto serial = static_cast<sim::Time>(
      static_cast<double>(bytes) / costs.bytes_per_ns);
  // Resolve the MD when the event fires: its owner may have released it
  // (and freed the EQ) in the meantime. Unlike a stale ack or reply, a SEND
  // event has no remote producer waiting on it, so it is not counted as
  // dropped.
  nic_->fabric().engine().schedule_in(
      costs.local_completion_ns + serial, [this, md, ev] {
        auto it = mds_.find(md);
        if (it == mds_.end() || it->second.eq == nullptr) return;
        trace_eq("send", ev.initiator, ev.length);
        it->second.eq->push(ev);
      });
}

void Portals::send_to(int target, const WireHdr& hdr,
                      std::vector<std::byte> payload, std::uint64_t op) {
  fabric::Packet p;
  p.protocol = kProtocolId;
  fabric::set_header(p, hdr);
  p.payload = std::move(payload);
  p.op = op;
  nic_->send(target, std::move(p));
}

// ----------------------------------------------------------- initiator ops

void Portals::put(sim::Context& ctx, MdHandle md, std::uint64_t local_off,
                  std::uint64_t length, int target, int pt_index,
                  std::uint64_t match, std::uint64_t remote_off,
                  std::uint64_t user_ptr, bool want_ack, bool notify,
                  std::uint32_t ntag) {
  WireHdr hdr;
  hdr.op = WireHdr::Op::put;
  send_data(ctx, hdr, md, local_off, length, target, pt_index, match,
            remote_off, user_ptr, want_ack, notify, ntag);
}

void Portals::atomic(sim::Context& ctx, AccOp op, NumType nt, MdHandle md,
                     std::uint64_t local_off, std::uint64_t length,
                     int target, int pt_index, std::uint64_t match,
                     std::uint64_t remote_off, std::uint64_t user_ptr,
                     bool want_ack, bool notify, std::uint32_t ntag) {
  M3RMA_REQUIRE(supports_atomics(),
                "network has no native atomics; use a serializer");
  M3RMA_REQUIRE(length % num_size(nt) == 0,
                "atomic length not a multiple of the element size");
  WireHdr hdr;
  hdr.op = WireHdr::Op::atomic;
  hdr.acc_op = op;
  hdr.num_type = nt;
  send_data(ctx, hdr, md, local_off, length, target, pt_index, match,
            remote_off, user_ptr, want_ack, notify, ntag);
}

void Portals::send_data(sim::Context& ctx, WireHdr& hdr, MdHandle md,
                        std::uint64_t local_off, std::uint64_t length,
                        int target, int pt_index, std::uint64_t match,
                        std::uint64_t remote_off, std::uint64_t user_ptr,
                        bool want_ack, bool notify, std::uint32_t ntag) {
  const Md m = md_copy(md);
  M3RMA_REQUIRE(local_off + length <= m.length,
                hdr.op == WireHdr::Op::put ? "put exceeds MD bounds"
                                           : "atomic exceeds MD bounds");
  // Attribution: user_ptr is the issuing layer's request id, so (node,
  // user_ptr) is the op's globally unique tag; untracked ids drop out at
  // the timeline.
  const std::uint64_t tag = trace::op_tag(node(), user_ptr);
  charge_inject(ctx, tag);
  std::vector<std::byte> data(length);
  if (length > 0) mem_->nic_read(m.base + local_off, data);

  hdr.want_ack = want_ack ? 1 : 0;
  hdr.notify = notify ? 1 : 0;
  hdr.ntag = ntag;
  hdr.pt_index = pt_index;
  hdr.match = match;
  hdr.remote_off = remote_off;
  hdr.length = length;
  hdr.user_ptr = user_ptr;
  hdr.md = md;
  send_to(target, hdr, std::move(data), tag);

  if (m.eq != nullptr) {
    post_send_event(Event{EventType::send, node(), length, user_ptr}, md,
                    length);
  }
}

void Portals::get(sim::Context& ctx, MdHandle md, std::uint64_t local_off,
                  std::uint64_t length, int target, int pt_index,
                  std::uint64_t match, std::uint64_t remote_off,
                  std::uint64_t user_ptr, bool notify, std::uint32_t ntag) {
  const Md m = md_copy(md);
  M3RMA_REQUIRE(local_off + length <= m.length, "get exceeds MD bounds");
  const std::uint64_t tag = trace::op_tag(node(), user_ptr);
  charge_inject(ctx, tag);

  WireHdr hdr;
  hdr.op = WireHdr::Op::get_req;
  hdr.notify = notify ? 1 : 0;
  hdr.ntag = ntag;
  hdr.pt_index = pt_index;
  hdr.match = match;
  hdr.remote_off = remote_off;
  hdr.length = length;
  hdr.user_ptr = user_ptr;
  hdr.md = md;
  hdr.local_off = local_off;
  send_to(target, hdr, {}, tag);
}

void Portals::fetch_atomic(sim::Context& ctx, RmwOp op, NumType nt,
                           MdHandle md, std::uint64_t local_off,
                           std::uint64_t fetch_off, int target, int pt_index,
                           std::uint64_t match, std::uint64_t remote_off,
                           std::uint64_t user_ptr) {
  M3RMA_REQUIRE(supports_atomics(),
                "network has no native atomics; use a serializer");
  const Md m = md_copy(md);
  const std::uint64_t payload_len =
      op == RmwOp::compare_swap ? 2 * num_size(nt) : num_size(nt);
  M3RMA_REQUIRE(local_off + payload_len <= m.length,
                "fetch_atomic operand exceeds MD bounds");
  M3RMA_REQUIRE(fetch_off + num_size(nt) <= m.length,
                "fetch_atomic result slot exceeds MD bounds");
  const std::uint64_t tag = trace::op_tag(node(), user_ptr);
  charge_inject(ctx, tag);
  std::vector<std::byte> data(payload_len);
  mem_->nic_read(m.base + local_off, data);

  WireHdr hdr;
  hdr.op = WireHdr::Op::fetch_atomic;
  hdr.rmw_op = op;
  hdr.num_type = nt;
  hdr.pt_index = pt_index;
  hdr.match = match;
  hdr.remote_off = remote_off;
  hdr.length = payload_len;
  hdr.user_ptr = user_ptr;
  hdr.md = md;
  hdr.local_off = fetch_off;
  send_to(target, hdr, std::move(data), tag);
}

// ------------------------------------------------------------- target side

void Portals::deliver(fabric::Packet&& p) {
  const auto hdr = fabric::get_header<WireHdr>(p);
  // The ack or reply answering this request, `length` bytes long. For a
  // notified op it echoes the tag and, in remote_off, the fire time.
  const auto answer = [&](WireHdr::Op op, std::uint64_t length) {
    WireHdr a;
    a.op = op;
    a.md = hdr.md;
    a.local_off = hdr.local_off;
    a.user_ptr = hdr.user_ptr;
    a.match = hdr.match;
    a.length = length;
    if (hdr.notify != 0) {
      a.notify = 1;
      a.ntag = hdr.ntag;
      a.remote_off = nic_->fabric().engine().now();  // fire time
    }
    return a;
  };
  switch (hdr.op) {
    case WireHdr::Op::put:
    case WireHdr::Op::atomic: {
      const bool is_put = hdr.op == WireHdr::Op::put;
      Me* me = match_me(hdr.pt_index, hdr.match, hdr.remote_off, hdr.length);
      if (me == nullptr) {
        ++dropped_;
        return;
      }
      if (hdr.length > 0) {
        if (is_put) {
          mem_->nic_write(me->base + hdr.remote_off, p.payload);
        } else {
          apply_acc(hdr.acc_op, hdr.num_type,
                    mem_->raw(me->base + hdr.remote_off), p.payload.data(),
                    hdr.length, mem_->config().endian);
        }
      }
      matched_counts_[count_key(hdr.pt_index, p.src)] += 1;
      if (hdr.notify != 0) {
        fire_notify(hdr.match, p.src, hdr.ntag, hdr.length, hdr.remote_off);
      }
      if (hdr.want_ack && supports_ack_events()) {
        // The return leg keeps the op tag.
        send_to(p.src, answer(WireHdr::Op::ack, hdr.length), {}, p.op);
      }
      break;
    }
    case WireHdr::Op::get_req: {
      Me* me = match_me(hdr.pt_index, hdr.match, hdr.remote_off, hdr.length);
      if (me == nullptr) {
        ++dropped_;
        return;
      }
      std::vector<std::byte> data(hdr.length);
      if (hdr.length > 0) mem_->nic_read(me->base + hdr.remote_off, data);
      if (hdr.notify != 0) {
        // A notified get tells the target "the origin read this region".
        fire_notify(hdr.match, p.src, hdr.ntag, hdr.length, hdr.remote_off);
      }
      send_to(p.src, answer(WireHdr::Op::reply, hdr.length), std::move(data),
              p.op);
      break;
    }
    case WireHdr::Op::fetch_atomic: {
      const std::uint64_t elem = num_size(hdr.num_type);
      Me* me = match_me(hdr.pt_index, hdr.match, hdr.remote_off, elem);
      if (me == nullptr) {
        ++dropped_;
        return;
      }
      auto old = apply_rmw(hdr.rmw_op, hdr.num_type,
                           mem_->raw(me->base + hdr.remote_off), p.payload,
                           mem_->config().endian);
      send_to(p.src, answer(WireHdr::Op::reply, elem), std::move(old), p.op);
      break;
    }
    case WireHdr::Op::reply:
    case WireHdr::Op::ack: {
      const bool is_reply = hdr.op == WireHdr::Op::reply;
      auto it = mds_.find(hdr.md);
      if (it == mds_.end()) {
        // MD released while the reply or ack was in flight.
        ++dropped_;
        return;
      }
      if (is_reply && hdr.length > 0) {
        mem_->nic_write(it->second.base + hdr.local_off, p.payload);
      }
      if (hdr.notify != 0) {
        // remote_off echoes the target-side fire time: attribute the
        // notification leg [fire, arrival] to the op's tag.
        if (auto* tl = trace::timeline(nic_->fabric().engine().tracer());
            tl != nullptr && tl->tracks(p.op)) {
          tl->add(p.op, trace::Segment::notify, hdr.remote_off,
                  nic_->fabric().engine().now());
        }
      }
      if (it->second.eq != nullptr) {
        const Event ev{is_reply ? EventType::reply : EventType::ack, p.src,
                       hdr.length, hdr.user_ptr};
        trace_eq(is_reply ? "reply" : "ack", ev.initiator, ev.length);
        it->second.eq->push(ev);
      }
      break;
    }
  }
}

}  // namespace m3rma::portals
