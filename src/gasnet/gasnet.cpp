#include "gasnet/gasnet.hpp"

#include <cstring>

#include "common/diagnostics.hpp"
#include "trace/attribution.hpp"
#include "trace/recorder.hpp"

namespace m3rma::gasnet {

struct Gasnet::AmHdr {
  enum class Kind : std::uint8_t { request_short, request_medium,
                                   request_long, reply };
  Kind kind = Kind::request_short;
  std::int32_t handler = 0;
  std::uint64_t a0 = 0;
  std::uint64_t a1 = 0;
  std::uint64_t dst_off = 0;  // long AMs: placement within the segment
};

Gasnet::Gasnet(runtime::Rank& rank, runtime::Comm& comm)
    : rank_(&rank),
      comm_(&comm),
      ptl_(&rank.portals()),
      eq_(rank.world().engine()) {
  md_ = ptl_->md_bind(0, rank.memory().config().size, &eq_);
  auto& nic = rank.world().fabric().nic(rank.id());
  M3RMA_REQUIRE(!nic.protocol_registered(kAmProtocol),
                "one live Gasnet instance per rank at a time");
  nic.register_protocol(kAmProtocol,
                        [this](fabric::Packet&& p) { on_am(std::move(p)); });
  comm.barrier();
}

Gasnet::~Gasnet() {
  try {
    sync_all();
    comm_->barrier();
  } catch (...) {
  }
  rank_->world().fabric().nic(rank_->id()).unregister_protocol(kAmProtocol);
  if (me_ != 0) ptl_->me_unlink(me_);
  ptl_->md_release(md_);
}

int Gasnet::register_handler(HandlerFn fn) {
  handlers_.push_back(std::move(fn));
  return static_cast<int>(handlers_.size() - 1);
}

void Gasnet::attach_segment(std::uint64_t addr, std::uint64_t len) {
  M3RMA_REQUIRE(segments_.empty(), "attach_segment may be called once");
  M3RMA_REQUIRE(len > 0 && rank_->memory().contains(addr, len),
                "segment outside this rank's memory");
  my_match_ = 0x6a5eull << 32 | static_cast<std::uint32_t>(rank_->id());
  me_ = ptl_->me_append(kPtSegment, my_match_, addr, len);
  struct Wire {
    std::uint64_t match, base, len;
  };
  const auto infos =
      comm_->allgather_value(Wire{my_match_, addr, len});
  for (const auto& i : infos) segments_.push_back(Segment{i.match, i.base, i.len});
}

// --------------------------------------------------------------- core AMs

void Gasnet::send_am(int dst_world, const AmHdr& h,
                     std::vector<std::byte> payload) {
  fabric::Packet p;
  p.protocol = kAmProtocol;
  fabric::set_header(p, h);
  p.payload = std::move(payload);
  rank_->world().fabric().nic(rank_->id()).send(dst_world, std::move(p));
}

void Gasnet::am_short(int dst, int handler, std::uint64_t a0,
                      std::uint64_t a1) {
  rank_->ctx().delay(rank_->world().config().costs.inject_overhead_ns);
  AmHdr h;
  h.kind = AmHdr::Kind::request_short;
  h.handler = handler;
  h.a0 = a0;
  h.a1 = a1;
  send_am(comm_->to_world(dst), h, {});
}

void Gasnet::am_medium(int dst, int handler,
                       std::span<const std::byte> payload, std::uint64_t a0,
                       std::uint64_t a1) {
  M3RMA_REQUIRE(payload.size() <= kMaxMedium,
                "medium AM exceeds gasnet_AMMaxMedium");
  rank_->ctx().delay(rank_->world().config().costs.inject_overhead_ns);
  AmHdr h;
  h.kind = AmHdr::Kind::request_medium;
  h.handler = handler;
  h.a0 = a0;
  h.a1 = a1;
  send_am(comm_->to_world(dst), h,
          std::vector<std::byte>(payload.begin(), payload.end()));
}

void Gasnet::am_long(int dst, int handler,
                     std::span<const std::byte> payload,
                     std::uint64_t dst_off, std::uint64_t a0,
                     std::uint64_t a1) {
  M3RMA_REQUIRE(!segments_.empty(), "long AM needs an attached segment");
  const Segment& seg = segments_[static_cast<std::size_t>(dst)];
  M3RMA_REQUIRE(dst_off + payload.size() <= seg.len,
                "long AM payload exceeds the destination segment");
  rank_->ctx().delay(rank_->world().config().costs.inject_overhead_ns);
  AmHdr h;
  h.kind = AmHdr::Kind::request_long;
  h.handler = handler;
  h.a0 = a0;
  h.a1 = a1;
  h.dst_off = dst_off;
  send_am(comm_->to_world(dst), h,
          std::vector<std::byte>(payload.begin(), payload.end()));
}

void Gasnet::reply_short(Token& tok, int handler, std::uint64_t a0,
                         std::uint64_t a1) {
  M3RMA_REQUIRE(!tok.replied_, "at most one reply per AM");
  tok.replied_ = true;
  AmHdr h;
  h.kind = AmHdr::Kind::reply;
  h.handler = handler;
  h.a0 = a0;
  h.a1 = a1;
  send_am(tok.src_, h, {});
}

void Gasnet::reply_medium(Token& tok, int handler,
                          std::span<const std::byte> payload,
                          std::uint64_t a0, std::uint64_t a1) {
  M3RMA_REQUIRE(!tok.replied_, "at most one reply per AM");
  M3RMA_REQUIRE(payload.size() <= kMaxMedium,
                "medium reply exceeds gasnet_AMMaxMedium");
  tok.replied_ = true;
  AmHdr h;
  h.kind = AmHdr::Kind::reply;
  h.handler = handler;
  h.a0 = a0;
  h.a1 = a1;
  send_am(tok.src_, h,
          std::vector<std::byte>(payload.begin(), payload.end()));
}

void Gasnet::on_am(fabric::Packet&& p) {
  const auto h = fabric::get_header<AmHdr>(p);
  M3RMA_ENSURE(h.handler >= 0 &&
                   static_cast<std::size_t>(h.handler) < handlers_.size(),
               "AM for an unregistered handler");
  ams_received_ += 1;
  Token tok(p.src, this);
  if (h.kind == AmHdr::Kind::request_long) {
    // Deposit the payload into my segment, then run the handler over it.
    const Segment& seg = segments_[static_cast<std::size_t>(comm_->rank())];
    rank_->memory().nic_write(seg.base + h.dst_off, p.payload);
    handlers_[static_cast<std::size_t>(h.handler)](
        tok,
        std::span<const std::byte>(rank_->memory().raw(seg.base + h.dst_off),
                                   p.payload.size()),
        h.a0, h.a1);
  } else {
    handlers_[static_cast<std::size_t>(h.handler)](tok, p.payload, h.a0,
                                                   h.a1);
  }
  eq_.condition().notify_all();
}

// ------------------------------------------------------------ extended API

Handle Gasnet::put_nb(int rank, std::uint64_t dst_off,
                      std::uint64_t src_addr, std::uint64_t bytes) {
  M3RMA_REQUIRE(!segments_.empty(), "extended API needs a segment");
  M3RMA_REQUIRE(ptl_->supports_ack_events() ||
                    rank_->world().config().caps.ordered_delivery,
                "gasnet baseline needs completion events or ordering");
  const Segment& seg = segments_[static_cast<std::size_t>(rank)];
  M3RMA_REQUIRE(dst_off + bytes <= seg.len, "put exceeds the segment");
  const std::uint64_t id = next_op_++;
  auto& op = ops_[id];
  op.pending = 1;
  outstanding_ += 1;
  if (auto* tl = trace::timeline(rank_->world().engine().tracer())) {
    tl->op_begin(trace::op_tag(rank_->id(), id), "gasnet.put", "nb",
                 "gasnet", rank_->ctx().now());
  }
  ptl_->put(rank_->ctx(), md_, src_addr, bytes, comm_->to_world(rank),
            kPtSegment, seg.match, dst_off, id,
            ptl_->supports_ack_events());
  if (!ptl_->supports_ack_events()) {
    // Probe with a zero-byte get: FIFO delivery makes its reply imply the
    // put has landed.
    ptl_->get(rank_->ctx(), md_, 0, 0, comm_->to_world(rank), kPtSegment,
              seg.match, 0, id);
  }
  return Handle(id);
}

Handle Gasnet::get_nb(std::uint64_t dst_addr, int rank,
                      std::uint64_t src_off, std::uint64_t bytes) {
  M3RMA_REQUIRE(!segments_.empty(), "extended API needs a segment");
  const Segment& seg = segments_[static_cast<std::size_t>(rank)];
  M3RMA_REQUIRE(src_off + bytes <= seg.len, "get exceeds the segment");
  const std::uint64_t id = next_op_++;
  auto& op = ops_[id];
  op.pending = 1;
  outstanding_ += 1;
  if (auto* tl = trace::timeline(rank_->world().engine().tracer())) {
    tl->op_begin(trace::op_tag(rank_->id(), id), "gasnet.get", "nb",
                 "gasnet", rank_->ctx().now());
  }
  ptl_->get(rank_->ctx(), md_, dst_addr, bytes, comm_->to_world(rank),
            kPtSegment, seg.match, src_off, id);
  return Handle(id);
}

void Gasnet::put(int rank, std::uint64_t dst_off, std::uint64_t src_addr,
                 std::uint64_t bytes) {
  Handle h = put_nb(rank, dst_off, src_addr, bytes);
  sync_nb(h);
}

void Gasnet::get(std::uint64_t dst_addr, int rank, std::uint64_t src_off,
                 std::uint64_t bytes) {
  Handle h = get_nb(dst_addr, rank, src_off, bytes);
  sync_nb(h);
}

void Gasnet::sync_nb(Handle& h) {
  if (!h.valid_) return;
  const std::uint64_t id = h.id_;
  wait_for([this, id] { return !ops_.contains(id); });
  h.valid_ = false;
}

void Gasnet::sync_all() {
  wait_for([this] { return outstanding_ == 0; });
}

void Gasnet::drain() {
  while (auto ev = eq_.try_recv()) {
    if (ev->type != portals::EventType::ack &&
        ev->type != portals::EventType::reply) {
      continue;  // SEND events carry no completion obligation here
    }
    auto it = ops_.find(ev->user_ptr);
    if (it == ops_.end()) continue;
    if (--it->second.pending == 0) {
      ops_.erase(it);
      M3RMA_ENSURE(outstanding_ > 0, "op accounting underflow");
      outstanding_ -= 1;
      if (auto* tl = trace::timeline(rank_->world().engine().tracer())) {
        const std::uint64_t tag = trace::op_tag(rank_->id(), ev->user_ptr);
        if (tl->tracks(tag)) tl->op_end(tag, rank_->ctx().now());
      }
    }
  }
}

template <class Pred>
void Gasnet::wait_for(Pred&& pred) {
  while (true) {
    drain();
    if (pred()) return;
    rank_->ctx().await(eq_.condition());
  }
}

}  // namespace m3rma::gasnet
