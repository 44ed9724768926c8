// Portals-like RMA transport (cf. Brightwell et al., "Portals 3.0").
//
// This is the layer the paper's prototype was written against on the Cray
// XT5: one-sided put/get/atomic with
//   * match entries (ME) exposing target memory on portal table indexes,
//   * memory descriptors (MD) describing initiator buffers,
//   * event queues (EQ) through which both local completion (SEND) and
//     remote completion (ACK, via the network's completion events) are
//     observed — "the Portals library on the Cray XT allows the user to
//     check for remote completion of a message via an Event Queue
//     mechanism" (§V-A).
//
// Whether ACK events exist at all depends on
// fabric::Capabilities::remote_completion_events; native atomic execution
// depends on Capabilities::native_atomics (upper layers must check
// supports_atomics() and fall back to a serializer otherwise, as on the
// Catamount/Portals systems described in §III-B1).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "fabric/fabric.hpp"
#include "memsim/memory_domain.hpp"
#include "portals/atomics.hpp"
#include "simtime/channel.hpp"
#include "simtime/engine.hpp"

namespace m3rma::portals {

/// Fabric protocol id claimed by the portals transport.
inline constexpr int kProtocolId = 10;

enum class EventType : std::uint8_t {
  send,          ///< initiator: message injected, local buffer reusable
  ack,           ///< initiator: remote delivery confirmed
  put,           ///< target: a put landed in an ME
  get,           ///< target: a get read from an ME
  reply,         ///< initiator: get/fetch-atomic data arrived
  atomic,        ///< target: an atomic was applied to an ME
  dropped,       ///< target: message arrived with no matching ME
  notify,        ///< target: a notified op landed; `tag` holds the user tag
};

struct Event {
  EventType type = EventType::send;
  int initiator = -1;            ///< node that issued the operation
  std::uint64_t match_bits = 0;
  std::uint64_t remote_offset = 0;
  std::uint64_t length = 0;
  std::uint64_t user_ptr = 0;    ///< initiator-supplied cookie
  std::uint32_t tag = 0;         ///< user notification tag (notify events)
};

/// FIFO of events, waitable by simulated processes.
class EventQueue {
 public:
  explicit EventQueue(sim::Engine& e) : cond_(e) {}

  void post(const Event& ev) {
    q_.push_back(ev);
    cond_.notify_all();
  }
  std::optional<Event> poll() {
    if (q_.empty()) return std::nullopt;
    Event ev = q_.front();
    q_.pop_front();
    return ev;
  }
  /// Block until an event is available, then dequeue it.
  Event wait(sim::Context& ctx) {
    ctx.await_until(cond_, [this] { return !q_.empty(); });
    Event ev = q_.front();
    q_.pop_front();
    return ev;
  }
  std::size_t pending() const { return q_.size(); }
  /// Notified whenever an event is posted. Upper layers may use it as a
  /// general progress condition (and notify it for their own events).
  sim::Condition& condition() { return cond_; }

 private:
  std::deque<Event> q_;
  sim::Condition cond_;
};

using MdHandle = std::uint32_t;
using MeHandle = std::uint32_t;

/// Per-node portals interface. Construct one per node over its NIC and
/// memory domain; all methods must be called from that node's simulated
/// processes (or, for registration, before the simulation starts).
class Portals {
 public:
  Portals(fabric::Nic& nic, memsim::MemoryDomain& mem);

  /// Initiator-side buffer registration.
  MdHandle md_bind(std::uint64_t base, std::uint64_t length, EventQueue* eq);
  void md_release(MdHandle md);

  /// Target-side exposure: messages to `pt_index` whose match bits satisfy
  /// (bits ^ match) & ~ignore == 0 land in [base, base+length).
  MeHandle me_append(int pt_index, std::uint64_t match, std::uint64_t ignore,
                     std::uint64_t base, std::uint64_t length,
                     EventQueue* eq);
  void me_unlink(MeHandle me);

  /// One-sided write. Charges injection overhead to `ctx`, posts SEND to
  /// the MD's EQ at injection, and (if want_ack and the network supports
  /// completion events) posts ACK on remote delivery.
  /// With `notify` set the wire header carries a notification bit + user
  /// tag `ntag`: after the data is applied at the target, an
  /// EventType::notify event is posted to the EQ registered (via
  /// set_notify_eq) for the matched ME's match bits, and the ack (if any)
  /// echoes the tag plus the target-side fire time in its remote_off.
  void put(sim::Context& ctx, MdHandle md, std::uint64_t local_off,
           std::uint64_t length, int target, int pt_index,
           std::uint64_t match, std::uint64_t remote_off,
           std::uint64_t user_ptr, bool want_ack, bool notify = false,
           std::uint32_t ntag = 0);

  /// One-sided read; REPLY is posted to the MD's EQ when data arrives.
  /// length 0 is a valid flush probe (full round trip, no data).
  /// A notified get fires the target-side notify event after the read.
  void get(sim::Context& ctx, MdHandle md, std::uint64_t local_off,
           std::uint64_t length, int target, int pt_index,
           std::uint64_t match, std::uint64_t remote_off,
           std::uint64_t user_ptr, bool notify = false,
           std::uint32_t ntag = 0);

  /// NIC-executed accumulate (requires supports_atomics()). Operand bytes
  /// are read from the MD like a put.
  void atomic(sim::Context& ctx, AccOp op, NumType nt, MdHandle md,
              std::uint64_t local_off, std::uint64_t length, int target,
              int pt_index, std::uint64_t match, std::uint64_t remote_off,
              std::uint64_t user_ptr, bool want_ack, bool notify = false,
              std::uint32_t ntag = 0);

  /// NIC-executed fetched RMW on one element (requires supports_atomics()).
  /// The payload ([operand] or [compare][desired]) is read from
  /// md/local_off; the previous value is written to md/fetch_off and
  /// announced by a REPLY event.
  void fetch_atomic(sim::Context& ctx, RmwOp op, NumType nt, MdHandle md,
                    std::uint64_t local_off, std::uint64_t fetch_off,
                    int target, int pt_index, std::uint64_t match,
                    std::uint64_t remote_off, std::uint64_t user_ptr);

  bool supports_atomics() const;
  bool supports_ack_events() const;

  /// Drop notifications: a message that arrives with no matching ME (or a
  /// reply/ack for an already-released MD) posts EventType::dropped here,
  /// mirroring Portals' PTL_EVENT_*_DROPPED. Optional; the
  /// dropped_messages() counter ticks regardless.
  void set_drop_eq(EventQueue* eq) { drop_eq_ = eq; }

  /// Register the sink that receives EventType::notify events for notified
  /// ops landing in MEs with these match bits (called in delivery context,
  /// right after the data is applied / read). A notified op arriving with
  /// no registered sink posts EventType::dropped instead (the producer
  /// asked for a wakeup nobody is listening for).
  using NotifySink = std::function<void(const Event&)>;
  void set_notify_sink(std::uint64_t match, NotifySink sink) {
    notify_sinks_[match] = std::move(sink);
  }
  void clear_notify_sink(std::uint64_t match) { notify_sinks_.erase(match); }

  int node() const { return nic_->node(); }
  fabric::Fabric& fabric() { return nic_->fabric(); }
  memsim::MemoryDomain& memory() { return *mem_; }

  std::uint64_t dropped_messages() const { return dropped_; }

  /// Count of data-carrying ops (put/atomic) from `src` matched into MEs of
  /// `pt_index`. Mirrors Portals counting events: readable locally at the
  /// target with no CPU involvement, which is what makes software
  /// completion-count queries possible on ack-less networks.
  std::uint64_t received_data_ops(int pt_index, int src) const;

 private:
  struct Md {
    std::uint64_t base = 0;
    std::uint64_t length = 0;
    EventQueue* eq = nullptr;
  };
  struct Me {
    int pt_index = 0;
    std::uint64_t match = 0;
    std::uint64_t ignore = 0;
    std::uint64_t base = 0;
    std::uint64_t length = 0;
    EventQueue* eq = nullptr;
  };

  struct WireHdr;

  void deliver(fabric::Packet&& p);
  void note_dropped(int initiator, std::uint64_t match,
                    std::uint64_t remote_off, std::uint64_t length,
                    std::uint64_t user_ptr);
  Me* match_me(int pt_index, std::uint64_t bits, std::uint64_t offset,
               std::uint64_t length);
  /// Hand the target-side notify event for a landed notified op to the
  /// registered sink (or post a dropped event when no sink is registered
  /// for the match bits).
  void fire_notify(int initiator, std::uint64_t match,
                   std::uint64_t remote_off, std::uint64_t length,
                   std::uint64_t user_ptr, std::uint32_t ntag);
  /// A copy of `md`'s fields, not a reference: the initiator routines read
  /// them after charge_inject, whose delay lets another process of this
  /// node release the MD and so erase its entry.
  Md md_copy(MdHandle md) const;
  /// Pay the NIC injection overhead; when `op` is a tracked attribution tag
  /// the interval is reported as the op's inject segment.
  void charge_inject(sim::Context& ctx, std::uint64_t op = 0);
  /// Post `ev` to `md`'s EQ once the DMA of `bytes` out of it completes;
  /// skipped if the MD is released before then.
  void post_send_event(const Event& ev, MdHandle md, std::uint64_t bytes);
  /// Tracing: record an EQ post of `type` on this node's rank track.
  void trace_eq(const char* type, const Event& ev);
  /// Initiator side of put and atomic, which differ only in the header's
  /// op (plus acc_op/num_type for an atomic): read `length` bytes at
  /// md/local_off, send them, and post SEND when the DMA completes.
  void send_data(sim::Context& ctx, WireHdr& hdr, MdHandle md,
                 std::uint64_t local_off, std::uint64_t length, int target,
                 int pt_index, std::uint64_t match, std::uint64_t remote_off,
                 std::uint64_t user_ptr, bool want_ack, bool notify,
                 std::uint32_t ntag);
  /// `op` is the attribution tag stamped on the packet (0 = untagged).
  void send_to(int target, const WireHdr& hdr, std::vector<std::byte> payload,
               std::uint64_t op = 0);

  fabric::Nic* nic_;
  memsim::MemoryDomain* mem_;
  std::unordered_map<MdHandle, Md> mds_;
  std::unordered_map<MeHandle, Me> mes_;
  std::vector<MeHandle> me_order_;  // match priority = append order
  MdHandle next_md_ = 1;
  MeHandle next_me_ = 1;
  EventQueue* drop_eq_ = nullptr;
  // match bits -> consumer notification sink (see set_notify_sink).
  std::unordered_map<std::uint64_t, NotifySink> notify_sinks_;
  std::uint64_t dropped_ = 0;
  // (pt_index, src) -> matched data ops.
  std::unordered_map<std::uint64_t, std::uint64_t> matched_counts_;
};

}  // namespace m3rma::portals
