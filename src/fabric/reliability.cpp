#include "fabric/reliability.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "fabric/fabric.hpp"
#include "trace/attribution.hpp"
#include "trace/recorder.hpp"

namespace m3rma::fabric {

namespace {

std::string rel_track(int src, int dst) {
  return "rel:" + std::to_string(src) + "->" + std::to_string(dst);
}

}  // namespace

std::string LinkFailure::describe() const {
  std::ostringstream os;
  os << "reliable link " << src << " -> " << peer << " (protocol " << protocol
     << "): retry budget (" << retry_budget
     << ") exhausted; oldest unacknowledged packet seq " << oldest_seq << ", "
     << oldest_bytes << " payload bytes, first sent at t=" << oldest_first_sent
     << "ns, " << unacked << " packet(s) unacked; gave up after " << attempts
     << " retransmission round(s), final rto " << final_rto
     << "ns, last cumulative ack " << last_ack << ", detected at t="
     << detected_at << "ns";
  return os.str();
}

LinkReliability::LinkReliability(Nic& nic)
    : nic_(&nic),
      cfg_(nic.fabric().costs().reliability),
      gap_acks_(nic.fabric().caps().ordered_delivery) {
  M3RMA_REQUIRE(cfg_.retransmit_timeout_ns > 0,
                "retransmit timeout must be positive");
  M3RMA_REQUIRE(cfg_.retry_budget >= 0, "retry budget must be >= 0");
}

// ------------------------------------------------------------------ sender

void LinkReliability::send_data(Packet&& p) {
  if (peer_quarantined(p.dst)) {
    // The peer was declared failed: delivery can never be confirmed, so the
    // packet is drained here instead of feeding a retransmission loop.
    ++stats_.sends_suppressed;
    if (auto* tr = nic_->fabric().engine().tracer()) {
      tr->instant(tr->track(rel_track(nic_->node(), p.dst)),
                  trace::Category::reliability, "send_suppressed",
                  "proto=" + std::to_string(p.protocol));
    }
    return;
  }
  const std::uint64_t key = stream_key(p.dst, p.protocol);
  TxStream& tx = tx_[key];
  if (tx.rto == 0) tx.rto = cfg_.retransmit_timeout_ns;

  p.rel_seq = tx.next_seq++;
  p.rel_flags = kRelFlagData | kRelFlagAck;
  // Piggyback the cumulative ack of the reverse stream; if a standalone
  // ack was pending for it, this data packet replaces it.
  RxStream& rx = rx_[stream_key(p.dst, p.protocol)];
  p.rel_ack = rx.delivered;
  if (rx.ack_pending) {
    rx.ack_pending = false;
    ++rx.ack_gen;  // invalidate the armed delayed-ack event
    ++stats_.acks_piggybacked;
  }

  tx.pending.push_back(
      PendingPkt{p, nic_->fabric().engine().now()});  // retransmission copy
  ++stats_.data_packets;
  if (!tx.timer_armed) arm_retransmit(key, tx);
  nic_->raw_send(std::move(p));
}

void LinkReliability::arm_retransmit(std::uint64_t key, TxStream& tx) {
  tx.timer_armed = true;
  const std::uint64_t gen = tx.timer_gen;
  nic_->fabric().engine().schedule_in(
      tx.rto, [this, key, gen] { on_retransmit_timer(key, gen); });
}

void LinkReliability::on_retransmit_timer(std::uint64_t key,
                                          std::uint64_t gen) {
  auto it = tx_.find(key);
  if (it == tx_.end()) return;
  TxStream& tx = it->second;
  if (gen != tx.timer_gen) return;  // superseded by ack progress
  tx.timer_armed = false;
  if (tx.pending.empty()) return;

  const int peer = static_cast<int>(key >> 32);
  const int protocol = static_cast<int>(static_cast<std::uint32_t>(key));
  if (tx.retries >= cfg_.retry_budget) {
    on_budget_exhausted(peer, protocol, tx);
    return;  // tx may have been drained (quarantine) — do not touch it
  }

  // Go-back-all: with cumulative acks the sender cannot tell which packet
  // of the window was lost, so it re-injects every unacked one; the
  // receiver's dedup/reorder machinery absorbs the redundant copies.
  const std::uint64_t rev_ack = rx_[key].delivered;
  for (const PendingPkt& pp : tx.pending) {
    reinject(peer, pp, rev_ack, "retransmit",
             " round=" + std::to_string(tx.retries + 1));
  }
  tx.retries += 1;
  tx.rto = std::min(2 * tx.rto, kMaxRetransmitTimeoutNs);
  ++tx.timer_gen;
  arm_retransmit(key, tx);
}

void LinkReliability::fast_retransmit(int peer, int protocol,
                                      std::uint64_t ackno) {
  const std::uint64_t key = stream_key(peer, protocol);
  auto it = tx_.find(key);
  if (it == tx_.end() || it->second.pending.empty()) return;
  // Only the oldest packet can be the hole the gap ack names (a stale gap
  // ack names one already acked), and only once: a lost fast copy, or a
  // rare reorder after a crash re-route, falls back to the timer.
  PendingPkt& oldest = it->second.pending.front();
  if (oldest.fast_sent || oldest.pkt.rel_seq != ackno + 1) return;
  oldest.fast_sent = true;
  ++stats_.fast_retransmits;
  reinject(peer, oldest, rx_[key].delivered, "fast_retransmit", "");
}

void LinkReliability::reinject(int peer, const PendingPkt& pp,
                               std::uint64_t rev_ack, const char* what,
                               const std::string& detail) {
  Packet copy = pp.pkt;
  copy.rel_ack = rev_ack;  // refresh the piggybacked ack
  ++stats_.retransmits;
  if (auto* tl = trace::timeline(nic_->fabric().engine().tracer());
      tl != nullptr && tl->tracks(copy.op)) {
    // The whole stretch from the packet's first send to this re-injection
    // is recovery delay chargeable to the reliability sublayer. Repeat
    // rounds extend the same interval; the timeline merges the overlap.
    tl->add(copy.op, trace::Segment::retransmit, pp.first_sent,
            nic_->fabric().engine().now());
  }
  if (auto* tr = nic_->fabric().engine().tracer()) {
    tr->instant(tr->track(rel_track(nic_->node(), peer)),
                trace::Category::reliability, what,
                "seq=" + std::to_string(copy.rel_seq) + detail);
  }
  nic_->raw_send(std::move(copy));
}

void LinkReliability::on_budget_exhausted(int peer, int protocol,
                                          const TxStream& tx) {
  // Snapshot everything first: accepting the report quarantines the peer,
  // which destroys the very TxStream this timer fired about.
  const PendingPkt& oldest = tx.pending.front();
  LinkFailure lf;
  lf.src = nic_->node();
  lf.peer = peer;
  lf.protocol = protocol;
  lf.attempts = tx.retries;
  lf.final_rto = tx.rto;
  lf.last_ack = tx.acked;
  lf.oldest_seq = oldest.pkt.rel_seq;
  lf.oldest_bytes = oldest.pkt.payload.size();
  lf.oldest_first_sent = oldest.first_sent;
  lf.unacked = tx.pending.size();
  lf.detected_at = nic_->fabric().engine().now();
  lf.retry_budget = cfg_.retry_budget;
  if (auto* tr = nic_->fabric().engine().tracer()) {
    // Full retry history, so a trace viewer can reconstruct the endgame of
    // the stream without the (possibly suppressed) TransportError text:
    // how many rounds ran, how far backoff got, what the peer last acked,
    // and how stale the oldest stuck packet is.
    tr->instant(tr->track(rel_track(lf.src, peer)),
                trace::Category::reliability, "link_fail",
                "proto=" + std::to_string(protocol) +
                    " rounds=" + std::to_string(lf.attempts) + "/" +
                    std::to_string(lf.retry_budget) +
                    " final_rto=" + std::to_string(lf.final_rto) +
                    " last_ack=" + std::to_string(lf.last_ack) +
                    " oldest_seq=" + std::to_string(lf.oldest_seq) +
                    " oldest_age=" +
                    std::to_string(lf.detected_at - lf.oldest_first_sent) +
                    " unacked=" + std::to_string(lf.unacked));
  }
  if (!nic_->fabric().report_link_failure(lf)) {
    throw TransportError(lf.describe());
  }
  // The policy accepted the failure. It normally declares the peer dead
  // (which quarantines this endpoint); guarantee the stream cannot stall
  // silently even under a policy that merely acknowledges.
  if (!peer_quarantined(peer)) quarantine_peer(peer);
}

void LinkReliability::drain_tx(TxStream& tx) {
  stats_.drained_packets += tx.pending.size();
  tx.pending.clear();
  ++tx.timer_gen;  // invalidate any armed retransmit event
  tx.timer_armed = false;
  tx.retries = 0;
}

void LinkReliability::quarantine_peer(int peer) {
  if (failed_peers_.contains(peer)) return;
  failed_peers_.insert(peer);
  ++stats_.links_failed;
  for (auto& [key, tx] : tx_) {
    if (static_cast<int>(key >> 32) == peer) drain_tx(tx);
  }
  for (auto& [key, rx] : rx_) {
    if (static_cast<int>(key >> 32) != peer) continue;
    rx.ack_pending = false;  // never ack a dead peer
    ++rx.ack_gen;
  }
  if (auto* tr = nic_->fabric().engine().tracer()) {
    tr->instant(tr->track(rel_track(nic_->node(), peer)),
                trace::Category::reliability, "quarantine",
                "peer=" + std::to_string(peer));
  }
}

void LinkReliability::quarantine_all() {
  dead_ = true;
  for (auto& [key, tx] : tx_) drain_tx(tx);
  for (auto& [key, rx] : rx_) {
    rx.ack_pending = false;
    ++rx.ack_gen;
  }
}

void LinkReliability::process_ack(int peer, int protocol,
                                  std::uint64_t ackno) {
  const std::uint64_t key = stream_key(peer, protocol);
  auto it = tx_.find(key);
  if (it == tx_.end()) return;
  TxStream& tx = it->second;
  if (ackno <= tx.acked) return;  // duplicate/stale cumulative ack
  tx.acked = ackno;
  while (!tx.pending.empty() && tx.pending.front().pkt.rel_seq <= ackno) {
    tx.pending.pop_front();
  }
  // Progress ends the recovery episode: reset the backoff and re-arm a
  // fresh timer for whatever is still in flight.
  tx.retries = 0;
  tx.rto = cfg_.retransmit_timeout_ns;
  ++tx.timer_gen;
  tx.timer_armed = false;
  if (!tx.pending.empty()) arm_retransmit(key, tx);
}

// ---------------------------------------------------------------- receiver

void LinkReliability::on_receive(Packet&& p) {
  if ((p.rel_flags & kRelFlagAck) != 0) {
    process_ack(p.src, p.protocol, p.rel_ack);
    if ((p.rel_flags & kRelFlagGap) != 0) {
      fast_retransmit(p.src, p.protocol, p.rel_ack);
    }
  }
  if ((p.rel_flags & kRelFlagData) == 0) return;  // ack-only: consumed

  RxStream& rx = rx_[stream_key(p.src, p.protocol)];
  const int src = p.src;
  const int protocol = p.protocol;

  if (p.rel_seq <= rx.delivered) {
    // Re-delivery of something already handed up: the sender timed out
    // without our ack. Suppress the duplicate and ack at once (rule 3),
    // unless that ack already went out within the last window: then this
    // is a later copy of the same go-back-all round, and the round's
    // remaining copies share one delayed ack — a second chance, one window
    // later, should the immediate ack be lost.
    note_duplicate(src, p.rel_seq);
    if (rx.quick_ack != rx.delivered ||
        nic_->fabric().engine().now() >= rx.quick_ack_until) {
      ack_now(src, protocol, rx);
    } else {
      arm_delayed_ack(src, protocol, rx, p.injected_at);
    }
    return;
  }
  if (p.rel_seq > rx.delivered + 1) {
    const std::uint64_t seq = p.rel_seq;
    const sim::Time sent_at = p.injected_at;
    if (rx.ooo.emplace(seq, std::move(p)).second) {
      ++stats_.out_of_order_buffered;
      // On a FIFO fabric a packet overtaking its predecessor means the
      // predecessor was lost: tell the sender now rather than after its
      // timeout. The delayed ack below stays armed, so ack conservation
      // (ack_arms = acks_sent + acks_piggybacked) is untouched.
      if (gap_acks_ && !peer_quarantined(src)) {
        send_ack(src, protocol, rx.delivered, /*gap=*/true);
      }
    } else {
      // Already buffered. The cumulative ack cannot advance before the
      // hole is filled, so an immediate ack would tell the sender nothing.
      note_duplicate(src, seq);
    }
    arm_delayed_ack(src, protocol, rx, sent_at);
    return;
  }
  // In order. Arm the delayed ack before each dispatch, so a reply the
  // handler sends to `src` carries and absorbs it (rule 1). `rx` stays
  // valid across the handler: unordered_map never moves its elements, and
  // nothing erases from rx_.
  bool drained = false;
  for (;;) {
    rx.delivered += 1;
    arm_delayed_ack(src, protocol, rx, p.injected_at);
    nic_->dispatch(std::move(p));
    auto next = rx.ooo.find(rx.delivered + 1);
    if (next == rx.ooo.end()) break;
    p = std::move(next->second);
    rx.ooo.erase(next);
    drained = true;
  }
  // A filled hole means the sender is recovering: ack at once (rule 3).
  // If the last handler already replied, that reply carried the ack.
  if (drained && rx.ack_pending) ack_now(src, protocol, rx);
}

void LinkReliability::note_duplicate(int src, std::uint64_t seq) {
  ++stats_.duplicates_suppressed;
  if (auto* tr = nic_->fabric().engine().tracer()) {
    tr->instant(tr->track(rel_track(src, nic_->node())),
                trace::Category::reliability, "dup_suppress",
                "seq=" + std::to_string(seq));
  }
}

void LinkReliability::arm_delayed_ack(int peer, int protocol, RxStream& rx,
                                      sim::Time sent_at) {
  if (rx.ack_pending) return;
  rx.ack_pending = true;
  ++stats_.ack_arms;
  const std::uint64_t gen = ++rx.ack_gen;
  // Rule 2: hold the ack until half an RTO after the arming packet was sent,
  // which leaves the other half for the ack's own trip; a packet that was
  // slow to arrive still gets a full ack window after its arrival.
  sim::Engine& eng = nic_->fabric().engine();
  eng.schedule_at(
      std::max(eng.now() + ack_window(),
               sent_at + cfg_.retransmit_timeout_ns / 2),
      [this, peer, protocol, gen] { on_ack_timer(peer, protocol, gen); });
}

void LinkReliability::ack_now(int peer, int protocol, RxStream& rx) {
  // An immediate ack resolves the pending window, or opens and closes one,
  // so ack_arms = acks_sent + acks_piggybacked still holds.
  if (rx.ack_pending) {
    ++rx.ack_gen;  // invalidate the armed delayed-ack event
  } else {
    ++stats_.ack_arms;
  }
  rx.ack_pending = false;
  rx.quick_ack = rx.delivered;
  rx.quick_ack_until = nic_->fabric().engine().now() + ack_window();
  send_ack(peer, protocol, rx.delivered, /*gap=*/false);
}

void LinkReliability::on_ack_timer(int peer, int protocol,
                                   std::uint64_t gen) {
  RxStream& rx = rx_[stream_key(peer, protocol)];
  if (!rx.ack_pending || gen != rx.ack_gen) return;  // piggybacked meanwhile
  rx.ack_pending = false;
  send_ack(peer, protocol, rx.delivered, /*gap=*/false);
}

void LinkReliability::send_ack(int peer, int protocol, std::uint64_t cum,
                               bool gap) {
  Packet ack;
  ack.src = nic_->node();
  ack.dst = peer;
  ack.protocol = protocol;
  ack.rel_flags = gap ? (kRelFlagAck | kRelFlagGap) : kRelFlagAck;
  ack.rel_ack = cum;
  ++(gap ? stats_.gap_acks : stats_.acks_sent);
  if (auto* tr = nic_->fabric().engine().tracer()) {
    tr->instant(tr->track(rel_track(nic_->node(), peer)),
                trace::Category::reliability, gap ? "gap_ack" : "ack",
                "cum=" + std::to_string(cum));
  }
  nic_->raw_send(std::move(ack));
}

std::uint64_t LinkReliability::unacked(int peer, int protocol) const {
  auto it = tx_.find(stream_key(peer, protocol));
  return it == tx_.end() ? 0 : it->second.pending.size();
}

}  // namespace m3rma::fabric
