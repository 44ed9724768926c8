// Reliable-delivery sublayer between the raw fabric and protocol handlers.
//
// The paper's prototype ran over Portals on SeaStar, which presents a
// *reliable, in-order* network to the RMA layer; the NIC firmware does the
// ack/retransmit work. Our fabric instead exposes raw loss
// (CostModel::loss_rate), so this sublayer rebuilds what SeaStar provides:
//
//   * per-(src,dst,protocol) data streams with 1-based sequence numbers
//     carried in the packet framing (Packet::rel_seq, +20 wire bytes);
//   * cumulative acknowledgements, sent only when the sender needs one
//     (the delayed-ACK and quick-ACK rules of TCP, RFC 5681 §4.2):
//       1. each in-order delivery arms a delayed ack *before* the packet is
//          dispatched, so a reply the handler sends to the peer carries the
//          ack and absorbs it (piggybacking);
//       2. otherwise a standalone ack-only packet goes out when the
//          delayed ack falls due: half a retransmission timeout after the
//          arming packet was sent (its framing carries the send time), but
//          never sooner than one ack window (retransmit_timeout_ns / 5)
//          after its arrival. A packet that arrives fast thus waits longer
//          for reverse data to carry its ack, and its ack still leaves half
//          the RTO for the return trip; a slow one, under overload, is
//          acked one window after arrival;
//       3. the receiver acks at once, without the window, when it sees the
//          sender recovering: a duplicate of a delivered packet (the sender
//          timed out) or an in-order arrival that drains the reorder buffer
//          (a hole was filled). One such ack per ack window: the rest of a
//          go-back-all round arrives right behind its first copy and gets
//          one delayed ack between them, a backup for the immediate one;
//   * fast retransmit on ordered fabrics: the receiver acks at once, with
//     kRelFlagGap, when it buffers a new out-of-order packet — on a FIFO
//     network that gap proves a loss — and the sender re-injects its
//     oldest unacked packet, at most once per packet (reordering is normal
//     on an unordered fabric, so there the gap ack is never sent);
//   * retransmission on timeout with exponential backoff (go-back-all on
//     the unacked window; the receiver's reorder buffer absorbs the
//     duplicates) and a bounded retry budget — the backstop when the last
//     packet of a burst, a gap ack or a fast copy is lost;
//   * duplicate suppression and in-order delivery, so handlers observe
//     exactly-once, in-order streams even though the wire may drop,
//     duplicate, or (after a retransmission) reorder packets.
//
// Retransmission and delayed-ack timers are one-shot scheduled simulator
// events guarded by generation counters — never time-polling daemons, which
// would prevent Engine::run from terminating. When the retry budget is
// exhausted the endpoint builds a LinkFailure record (who, what stream, how
// many rounds, final backed-off RTO, last cumulative ack) and reports it to
// the Fabric's link-failure policy. A policy that accepts the report (the
// runtime installs one that declares the unreachable peer failed) leaves the
// stream quarantined — unacked packets drained, timers cancelled, future
// sends to the peer suppressed — and the simulation keeps running degraded.
// With no policy installed (raw-fabric users), the old behavior stands: a
// TransportError carrying the same record is thrown from the timer event and
// surfaces out of Engine::run, instead of the opaque DeadlockError a lost
// packet causes with reliability off.
//
// The sublayer is opt-in via CostModel::reliability. When disabled, Nic
// bypasses it entirely: no framing bytes, no timers, no rng draws — runs
// are byte-identical to a build without this file.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "fabric/packet.hpp"
#include "simtime/engine.hpp"

namespace m3rma::fabric {

class Nic;

/// Ceiling for the backed-off retransmission timeout, which doubles with
/// each consecutive unanswered retransmission round.
inline constexpr sim::Time kMaxRetransmitTimeoutNs = 2'000'000;

struct ReliabilityConfig {
  /// Master switch. Off = Nic sends/delivers exactly as if this sublayer
  /// did not exist (the Figure 2 benches depend on that).
  bool enabled = false;
  /// Initial retransmission timeout. Also sets when a delayed ack falls
  /// due (rule 2): half of it after the arming packet was sent, and at
  /// least a fifth of it (the ack window) after its arrival. A delayed ack
  /// therefore never causes a spurious timeout as long as the ack's trip
  /// back takes less than half the RTO and the data's one-way delay less
  /// than two fifths of it.
  sim::Time retransmit_timeout_ns = 50'000;
  /// Retransmission rounds allowed per recovery episode before the link is
  /// declared failed (LinkFailure report / TransportError). 0 = the first
  /// timeout is fatal.
  int retry_budget = 10;
};

struct ReliabilityStats {
  std::uint64_t data_packets = 0;    ///< first transmissions tracked
  std::uint64_t retransmits = 0;     ///< data packets re-injected (timeout
                                     ///< or fast)
  std::uint64_t fast_retransmits = 0;  ///< of which on a gap ack
  std::uint64_t acks_sent = 0;       ///< standalone ack-only packets
  std::uint64_t acks_piggybacked = 0;  ///< pending acks absorbed by data,
                                       ///< including replies a handler sends
                                       ///< inside the delivery (rule 1)
  std::uint64_t ack_arms = 0;        ///< delayed-ack windows opened; each is
                                     ///< resolved by exactly one standalone
                                     ///< or piggybacked ack (conservation)
  std::uint64_t gap_acks = 0;        ///< immediate out-of-order acks; not
                                     ///< in acks_sent, outside conservation
  std::uint64_t duplicates_suppressed = 0;  ///< re-deliveries dropped
  std::uint64_t out_of_order_buffered = 0;  ///< held for resequencing
  std::uint64_t links_failed = 0;     ///< peers quarantined at this endpoint
  std::uint64_t drained_packets = 0;  ///< unacked packets dropped by
                                      ///< quarantine
  std::uint64_t sends_suppressed = 0;  ///< sends to quarantined peers
};

/// Everything known about a retry-budget exhaustion, for failure reports and
/// the enriched TransportError message.
struct LinkFailure {
  int src = -1;        ///< reporting endpoint's node
  int peer = -1;       ///< unreachable peer
  int protocol = 0;    ///< stream's protocol id
  int attempts = 0;    ///< retransmission rounds before giving up
  sim::Time final_rto = 0;          ///< backed-off timeout at failure
  std::uint64_t last_ack = 0;       ///< highest cumulative ack from the peer
  std::uint64_t oldest_seq = 0;     ///< oldest unacknowledged rel_seq
  std::uint64_t oldest_bytes = 0;   ///< its payload size
  sim::Time oldest_first_sent = 0;  ///< when it was first injected
  std::size_t unacked = 0;          ///< packets still unacknowledged
  sim::Time detected_at = 0;        ///< virtual time of the report
  int retry_budget = 0;             ///< the budget that was exhausted

  /// Human-readable failure report (the TransportError message).
  std::string describe() const;
};

/// Per-NIC reliable transport endpoint. Owned by Nic (one per node) when
/// CostModel::reliability.enabled; all methods run in simulation context
/// (process or event), which the engine serializes.
class LinkReliability {
 public:
  explicit LinkReliability(Nic& nic);

  /// Track and inject an outgoing data packet (src/dst already set).
  void send_data(Packet&& p);
  /// Process an incoming packet: absorb acks, suppress duplicates,
  /// resequence, and dispatch in-order data to the Nic's protocol handler.
  void on_receive(Packet&& p);

  const ReliabilityStats& stats() const { return stats_; }
  /// Unacked data packets currently tracked toward (peer, protocol).
  std::uint64_t unacked(int peer, int protocol) const;

  /// Quarantine every stream toward `peer` (all protocols): drain unacked
  /// packets, cancel timers, and silently drop future sends to it. Called by
  /// Fabric::fail_node and by budget exhaustion once the failure policy
  /// accepts the report. Idempotent.
  void quarantine_peer(int peer);
  /// Power-off for this endpoint's own node: drain every tx stream and
  /// cancel every timer so a dead node's NIC generates no further events.
  void quarantine_all();
  bool peer_quarantined(int peer) const {
    return dead_ || failed_peers_.contains(peer);
  }

 private:
  struct PendingPkt {
    Packet pkt;            // retransmission copy
    sim::Time first_sent;  // for the degradation report
    bool fast_sent = false;  // already fast-retransmitted once
  };
  struct TxStream {
    std::uint64_t next_seq = 1;
    std::uint64_t acked = 0;       // cumulative, from the peer
    std::deque<PendingPkt> pending;  // unacked, ascending rel_seq
    sim::Time rto = 0;             // current (backed-off) timeout
    int retries = 0;               // rounds this recovery episode
    std::uint64_t timer_gen = 0;   // invalidates superseded timer events
    bool timer_armed = false;
  };
  struct RxStream {
    std::uint64_t delivered = 0;            // cumulative in-order point
    std::map<std::uint64_t, Packet> ooo;    // buffered out-of-order
    bool ack_pending = false;               // delayed ack armed
    std::uint64_t ack_gen = 0;
    std::uint64_t quick_ack = 0;      // value of the last immediate ack
    sim::Time quick_ack_until = 0;    // ... and the end of its window
  };

  static std::uint64_t stream_key(int peer, int protocol) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(peer))
            << 32) |
           static_cast<std::uint32_t>(protocol);
  }

  void arm_retransmit(std::uint64_t key, TxStream& tx);
  void on_retransmit_timer(std::uint64_t key, std::uint64_t gen);
  void process_ack(int peer, int protocol, std::uint64_t ackno);
  /// Gap ack: the peer is missing rel_seq ackno + 1; re-inject it once if it
  /// is still the oldest unacked packet of the stream.
  void fast_retransmit(int peer, int protocol, std::uint64_t ackno);
  /// Inject a copy of `pp` carrying the reverse stream's current ack, and
  /// count/trace it as a retransmission (`what` names the trace instant).
  void reinject(int peer, const PendingPkt& pp, std::uint64_t rev_ack,
                const char* what, const std::string& detail);
  /// Count and trace a suppressed re-delivery from `src`.
  void note_duplicate(int src, std::uint64_t seq);
  /// Shortest delay of an ack after the arrival it acks (rule 2), and the
  /// quick-ack window (rule 3).
  sim::Time ack_window() const { return cfg_.retransmit_timeout_ns / 5; }
  /// Open a delayed-ack window unless one is open. `sent_at` is the arming
  /// packet's injected_at, from which rule 2 sets when the ack falls due.
  void arm_delayed_ack(int peer, int protocol, RxStream& rx,
                       sim::Time sent_at);
  void on_ack_timer(int peer, int protocol, std::uint64_t gen);
  /// Standalone ack of rx.delivered right now (rule 3), resolving the
  /// pending delayed ack if one is armed; opens a quick-ack window.
  void ack_now(int peer, int protocol, RxStream& rx);
  /// Ack-only packet carrying cumulative ack `cum`; `gap` flags it
  /// kRelFlagGap (counted in gap_acks instead of acks_sent).
  void send_ack(int peer, int protocol, std::uint64_t cum, bool gap);
  /// Budget exhaustion: snapshot a LinkFailure, offer it to the fabric's
  /// failure policy; quarantine the peer if accepted, throw TransportError
  /// if not. May destroy the TxStream it was called about — callers return
  /// immediately.
  void on_budget_exhausted(int peer, int protocol, const TxStream& tx);
  void drain_tx(TxStream& tx);

  Nic* nic_;
  ReliabilityConfig cfg_;
  bool gap_acks_ = false;  // ordered fabric: a gap proves a loss
  ReliabilityStats stats_;
  std::unordered_map<std::uint64_t, TxStream> tx_;
  std::unordered_map<std::uint64_t, RxStream> rx_;
  std::unordered_set<int> failed_peers_;
  bool dead_ = false;  // this endpoint's own node was powered off
};

}  // namespace m3rma::fabric
