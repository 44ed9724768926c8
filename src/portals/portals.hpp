// Portals-like RMA transport (cf. Brightwell et al., "Portals 3.0").
//
// This is the layer the paper's prototype was written against on the Cray
// XT5: one-sided put/get/atomic with
//   * match entries (ME) exposing target memory on portal table indexes,
//   * memory descriptors (MD) describing initiator buffers,
//   * initiator event queues (EQ) through which both local completion
//     (SEND) and remote completion (ACK, REPLY) are observed — "the Portals
//     library on the Cray XT allows the user to check for remote completion
//     of a message via an Event Queue mechanism" (§V-A).
//
// The target side posts no events: a target learns that data landed through
// notified access, one notify sink per node (set_notify_sink). A message
// that matches no ME, or an ack/reply whose MD is gone, is counted in
// dropped_messages().
//
// Whether ACK events exist at all depends on
// fabric::Capabilities::remote_completion_events; native atomic execution
// depends on Capabilities::native_atomics (upper layers must check
// supports_atomics() and fall back to a serializer otherwise, as on the
// Catamount/Portals systems described in §III-B1).
#pragma once

#include <cstdint>
#include <functional>
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
  send,   ///< message injected, local buffer reusable
  ack,    ///< remote delivery confirmed
  reply,  ///< get/fetch-atomic data arrived
};

/// An initiator event, posted to the EQ of the MD the op was issued on.
struct Event {
  EventType type = EventType::send;
  int initiator = -1;            ///< node that sent this event's message
  std::uint64_t length = 0;
  std::uint64_t user_ptr = 0;    ///< initiator-supplied cookie
};

/// FIFO of events, waitable by simulated processes. Its condition() is
/// notified on every post; upper layers also use it as a general progress
/// condition (and notify it for their own events).
using EventQueue = sim::Channel<Event>;

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

  /// Target-side exposure: messages to `pt_index` carrying exactly these
  /// match bits land in [base, base+length).
  MeHandle me_append(int pt_index, std::uint64_t match, std::uint64_t base,
                     std::uint64_t length);
  void me_unlink(MeHandle me);

  /// One-sided write. Charges injection overhead to `ctx`, posts SEND to
  /// the MD's EQ at injection, and (if want_ack and the network supports
  /// completion events) posts ACK on remote delivery.
  /// With `notify` set the wire header carries a notification bit + user
  /// tag `ntag`: after the data is applied at the target, the target's
  /// notify sink is called, and the ack (if any) echoes the tag plus the
  /// target-side fire time in its remote_off.
  void put(sim::Context& ctx, MdHandle md, std::uint64_t local_off,
           std::uint64_t length, int target, int pt_index,
           std::uint64_t match, std::uint64_t remote_off,
           std::uint64_t user_ptr, bool want_ack, bool notify = false,
           std::uint32_t ntag = 0);

  /// One-sided read; REPLY is posted to the MD's EQ when data arrives.
  /// length 0 is a valid flush probe (full round trip, no data).
  /// A notified get calls the target's notify sink after the read.
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

  /// The sink a notified op calls at its target, in delivery context right
  /// after the data is applied (or, for a get, read), with the ME's match
  /// bits, the initiator, the user tag, the length and the ME offset. One
  /// per node; an empty sink clears it. A notified op arriving with no
  /// sink set counts as dropped (the producer asked for a wakeup nobody is
  /// listening for).
  using NotifySink =
      std::function<void(std::uint64_t match, int initiator,
                         std::uint32_t tag, std::uint64_t length,
                         std::uint64_t offset)>;
  void set_notify_sink(NotifySink sink) { notify_sink_ = std::move(sink); }

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
    std::uint64_t base = 0;
    std::uint64_t length = 0;
  };

  struct WireHdr;

  void deliver(fabric::Packet&& p);
  Me* match_me(int pt_index, std::uint64_t bits, std::uint64_t offset,
               std::uint64_t length);
  /// Hand a landed notified op to the notify sink, or count it dropped
  /// when no sink is set.
  void fire_notify(std::uint64_t match, int initiator, std::uint32_t ntag,
                   std::uint64_t length, std::uint64_t offset);
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
  /// Tracing: record an event of `type` from `initiator` on this node's
  /// rank track.
  void trace_eq(const char* type, int initiator, std::uint64_t length);
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
  NotifySink notify_sink_;
  std::uint64_t dropped_ = 0;
  // (pt_index, src) -> matched data ops.
  std::unordered_map<std::uint64_t, std::uint64_t> matched_counts_;
};

}  // namespace m3rma::portals
