// RmaEngine internals shared by rma_engine.cpp and replication.cpp: the
// wire header of the engine's active-message channel, the request state,
// the progress loop and a few small helpers. Not part of the public
// interface.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/rma_engine.hpp"
#include "trace/recorder.hpp"

namespace m3rma::core {

/// Header of every active message on the engine's AM channel (the wire
/// format: sent as raw bytes by fabric::set_header). The engine handles the
/// kinds up to rmi_reply and forwards the rest to core::Replication.
struct AmHdr {
  enum class Kind : std::uint8_t {
    data_op,      // put/get/accumulate routed through software (serializer)
    op_ack,       // software remote-completion ack for a data_op put/acc
    get_reply,    // data for a software get
    rmw_op,       // software read-modify-write
    rmw_reply,    // previous value for a software RMW
    count_query,  // "how many of my data ops have landed?"
    count_reply,
    lock_req,     // coarse-grain process-level lock protocol
    lock_grant,
    lock_release,
    rmi_op,       // remote method invocation (§V optype expansion)
    rmi_reply,
    repl_create,      // owner -> backup: register a replica region
    repl_ready,       // backup -> owner: replica registered (or refused)
    repl_mirror,      // origin -> backup: mirrored put/accumulate block
    repl_mirror_rmw,  // origin -> backup: mirrored RMW (semantic replay)
    repl_mirror_ack,  // backup -> origin: cumulative applied mirror seq
    repl_adopt,       // acting primary -> fresh backup: adopt a replica
                      // (snapshot burst follows on the same mirror stream)
    repl_sync_done,   // acting primary -> fresh backup: snapshot complete
    repl_probe,       // origin -> candidate: is your copy complete + live?
    repl_probe_ack,   // candidate -> origin: value_a 1 = ready, 0 = lost,
                      // 2 = copy still materializing (retry, not a verdict)
    repl_region_fwd,  // origin -> serving copy: re-publish [offset,
                      // offset+length) from your authoritative memory to
                      // your current backup. Repairs committed RMWs and
                      // accumulates whose mirror lost its destination: a
                      // client-side semantic replay double-applies when
                      // the fresh backup's snapshot has the effect
    repl_region_fwd_done,  // serving copy -> origin: the requested region
                           // is on the wire to the backup (or was
                           // dropped); releases mirrors the origin held
                           // for ordering
    repl_detach,      // owner -> every member: the window is detached;
                      // once the owner dies, ops on it fail (replica_lost)
                      // instead of failing over to a copy
    bye,              // teardown handshake: sender has entered quiesce
    notify_fire,      // origin -> surviving copy: re-arm the notification
                      // of a rescued notified op (mem_id = window, offset
                      // = disp, length = bytes, value_a = tag)
  };

  Kind kind = Kind::data_op;
  RmaOptype op = RmaOptype::put;
  portals::AccOp acc = portals::AccOp::replace;
  portals::RmwOp rmw = portals::RmwOp::fetch_add;
  portals::NumType nt = portals::NumType::i64;
  std::uint64_t mem_id = 0;
  std::uint64_t offset = 0;  // byte offset within the attached region;
                             // get_reply: destination offset at the origin
  std::uint64_t length = 0;
  std::uint64_t req_id = 0;
  std::uint64_t value_a = 0;  // rmw operand / reply offset / count value
  std::uint64_t value_b = 0;  // rmw second operand (compare_swap desired)
};
// Every AM's wire size, and with it every virtual result, includes it.
static_assert(sizeof(AmHdr) == 56, "AmHdr wire size changed");

/// One queued AM for the target's serializer.
struct RmaEngine::AmMsg {
  int src = -1;
  std::vector<std::byte> payload;
  AmHdr hdr;
  // Latency attribution: the packet's op tag and its delivery time, so the
  // serializer can report queueing (serialize_wait) vs execution (apply).
  std::uint64_t op = 0;
  sim::Time arrived = 0;
};

struct Request::State {
  std::uint64_t id = 0;
  int world_target = -1;
  bool done = false;
  OpStatus status = OpStatus::ok;
  std::uint32_t pending = 0;  // segment completions still expected
  bool counts_send = true;    // decrement on SEND (local) vs ACK (remote)
  // In xfer's order stall or issue_blocks: the failure detector skips it,
  // issue_blocks decides its failover once every block and mirror is out.
  bool injecting = false;
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
  // software flush
  std::uint64_t flush_threshold = 0;
  std::uint32_t flush_retries = 0;
  // rmw result. A NIC RMW owns its 24 B operand/result buffer (0 = none)
  // until it settles; the result arrives in the target's byte order.
  std::uint64_t rmw_value = 0;
  std::uint64_t rmw_buf = 0;
  Endian rmw_endian = Endian::little;
  // rmi reply payload
  std::vector<std::byte> rmi_reply;
  // tracing: open rma span (0 = untraced)
  std::uint64_t trace_span = 0;
  // latency attribution: op_begin was called for this request's tag (child
  // and internal requests stay false — they alias into a parent op), and the
  // failure-detection time when the op was rescued through failover (0 = no
  // failover; the [failover_from, completion] window is the failover stall).
  bool op_tracked = false;
  sim::Time failover_from = 0;
  // replication/failover: live backup adopted at issue (-1 = none), highest
  // mirror seq covering this op, and the window (stamped with the backup;
  // a re-arm fires on its id) and displacement needed to re-drive a get at
  // the backup. A rescued request no longer completes through
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

template <class Pred>
void RmaEngine::progress_until(Pred&& pred) {
  while (true) {
    progress();
    if (pred()) return;
    rank_->ctx().await(eq_.condition());
  }
}

/// `r`'s trace track ("rank<id>").
inline int rank_track(trace::Recorder* tr, const runtime::Rank& r) {
  return tr->track("rank" + std::to_string(r.id()));
}

/// Instant event on `r`'s trace track. `args()` builds the argument string
/// only when a tracer is attached.
template <class Args>
void note(runtime::Rank& r, trace::Category cat, const char* name,
          Args&& args) {
  trace::Recorder* tr = r.world().engine().tracer();
  if (tr == nullptr) return;
  tr->instant(rank_track(tr, r), cat, name, args());
}

/// Apply the 64-bit RMW `h` carries (h.rmw on operands value_a, value_b)
/// to the word at `addr` of `mem`, in `mem`'s byte order. Returns the
/// previous value.
std::uint64_t apply_rmw_word(memsim::MemoryDomain& mem, std::uint64_t addr,
                             const AmHdr& h);

}  // namespace m3rma::core
