#include "runtime/p2p.hpp"

#include <algorithm>

#include "common/diagnostics.hpp"
#include "trace/recorder.hpp"

namespace m3rma::runtime {

P2p::P2p(sim::Engine& eng, fabric::Nic& nic) : nic_(&nic), cond_(eng) {
  nic_->register_protocol(kP2pProtocolId, [this](fabric::Packet&& p) {
    deliver(std::move(p));
  });
  // Wake blocked receivers when any node dies: a recv whose source just
  // failed must stop waiting and raise RankFailedError instead of hanging.
  death_listener_ =
      nic_->fabric().add_death_listener([this](int) { cond_.notify_all(); });
}

P2p::~P2p() {
  if (death_listener_ != -1) {
    nic_->fabric().remove_death_listener(death_listener_);
  }
}

bool P2p::node_alive(int node) const { return nic_->fabric().alive(node); }

void P2p::await_posted(sim::Context& ctx, Posted& posted,
                       const std::function<bool()>& give_up) {
  posted_.push_back(&posted);
  try {
    ctx.await_until(cond_, [&] { return posted.done || give_up(); });
  } catch (...) {
    // KillSignal (this rank died mid-recv): unlink the stack-allocated
    // posted record before unwinding past it.
    if (!posted.done) std::erase(posted_, &posted);
    throw;
  }
  if (!posted.done) std::erase(posted_, &posted);
}

void P2p::send(sim::Context& ctx, int dst, std::int64_t tag,
               std::span<const std::byte> data) {
  M3RMA_REQUIRE(tag >= 0, "message tags must be non-negative");
  if (auto* tr = ctx.engine().tracer()) {
    tr->instant(tr->track(ctx.name()), trace::Category::p2p, "p2p.send",
                "dst=" + std::to_string(dst) + " tag=" + std::to_string(tag) +
                    " bytes=" + std::to_string(data.size()));
  }
  ctx.delay(nic_->fabric().costs().inject_overhead_ns);
  fabric::Packet p;
  p.protocol = kP2pProtocolId;
  fabric::set_header(p, WireHdr{tag});
  p.payload.assign(data.begin(), data.end());
  nic_->send(dst, std::move(p));
}

Message P2p::recv(sim::Context& ctx, int src, std::int64_t tag) {
  if (auto m = try_recv(src, tag)) return std::move(*m);
  if (src != kAnySource && !node_alive(src)) {
    throw RankFailedError("p2p recv from failed rank " + std::to_string(src));
  }
  trace::SpanHandle h = 0;
  if (auto* tr = ctx.engine().tracer()) {
    h = tr->span_begin(tr->track(ctx.name()), trace::Category::p2p,
                       "p2p.recv",
                       "src=" + std::to_string(src) +
                           " tag=" + std::to_string(tag));
  }
  Posted posted{src, tag, false, {}};
  try {
    await_posted(ctx, posted,
                 [&] { return src != kAnySource && !node_alive(src); });
  } catch (...) {
    if (h != 0) ctx.engine().tracer()->span_end(h);
    throw;
  }
  if (h != 0) ctx.engine().tracer()->span_end(h);
  if (!posted.done) {
    throw RankFailedError("p2p recv from failed rank " + std::to_string(src));
  }
  return std::move(posted.msg);
}

std::optional<Message> P2p::recv_any_live(sim::Context& ctx, std::int64_t tag,
                                          const std::vector<int>& srcs) {
  for (int s : srcs) {
    if (auto m = try_recv(s, tag)) return m;
  }
  auto any_alive = [&] {
    return std::any_of(srcs.begin(), srcs.end(),
                       [&](int s) { return node_alive(s); });
  };
  if (!any_alive()) return std::nullopt;
  trace::SpanHandle h = 0;
  if (auto* tr = ctx.engine().tracer()) {
    h = tr->span_begin(tr->track(ctx.name()), trace::Category::p2p,
                       "p2p.recv",
                       "src=-1 tag=" + std::to_string(tag));
  }
  // Tags are unique per collective instance, so an any-source match can only
  // pick up a message from one of `srcs`.
  Posted posted{kAnySource, tag, false, {}};
  try {
    await_posted(ctx, posted, [&] { return !any_alive(); });
  } catch (...) {
    if (h != 0) ctx.engine().tracer()->span_end(h);
    throw;
  }
  if (h != 0) ctx.engine().tracer()->span_end(h);
  if (!posted.done) return std::nullopt;
  return std::move(posted.msg);
}

std::optional<Message> P2p::try_recv(int src, std::int64_t tag) {
  for (auto it = unexpected_.begin(); it != unexpected_.end(); ++it) {
    if ((src == kAnySource || src == it->src) &&
        (tag == kAnyTag || tag == it->tag)) {
      Message m = std::move(*it);
      unexpected_.erase(it);
      return m;
    }
  }
  return std::nullopt;
}

void P2p::deliver(fabric::Packet&& p) {
  const auto hdr = fabric::get_header<WireHdr>(p);
  Message m{p.src, hdr.tag, std::move(p.payload)};
  // Hand to the first compatible posted receive, else queue as unexpected.
  for (auto it = posted_.begin(); it != posted_.end(); ++it) {
    if (!(*it)->done && matches(**it, m.src, m.tag)) {
      (*it)->msg = std::move(m);
      (*it)->done = true;
      posted_.erase(it);
      cond_.notify_all();
      return;
    }
  }
  unexpected_.push_back(std::move(m));
}

}  // namespace m3rma::runtime
