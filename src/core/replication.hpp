// Window replication for RmaEngine (runtime::ReplicationConfig), after the
// fail-stop model of Besta & Hoefler (arXiv 2010.09025). The engine builds
// one only when replication is on; its issue, completion and lock paths
// reach it through the hooks below and know nothing else of it.
//
// Origins mirror every put/accumulate/RMW on a replicated window to the
// backup rank over a per-(origin, backup) cumulatively-acked sequence
// stream, piggybacked on the AM channel. The backup applies mirrors
// in-order directly to its replica region (no serializer dispatch, no
// am_applied accounting). When the primary dies, in-flight puts complete
// once their highest mirror seq is acked, gets are re-driven at the
// backup, and unacked mirrors are re-sent (the "acked by primary but not
// yet mirrored" re-sync window).
//
// Multi-crash survivability: every copy of a replicated window (owner or
// backup) keeps a registry entry. The succession chain of window w is
//   chain(k) = (owner0 + k*backup_offset) mod ranks,  owner0 = w >> 32,
// skipping dead and endian-mismatched ranks; every engine computes it
// identically from the globally consistent failure-detector state. After a
// death the first live chain member (the acting primary) bursts a snapshot
// of its copy to the next live eligible member, restoring redundancy.
//
// Replication is a friend of the engine and calls back into it only
// through: send_am, charge_inject, new_req / find_req / settle,
// progress_until, issue_blocks (a re-driven get), expose (host a region),
// fire_notify_local and dead(), plus read access to the rank, the comm,
// the attached regions, the failure times and the counters.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/engine_internal.hpp"

namespace m3rma::core {

class Replication {
 public:
  explicit Replication(RmaEngine& eng);
  /// Frees the hosted replica regions in window-id order.
  ~Replication();
  Replication(const Replication&) = delete;
  Replication& operator=(const Replication&) = delete;

  // ----- hooks (engine -> replication) --------------------------------------

  /// attach(): register a replica of window `mem_id` at its backup
  /// (repl_create round trip). The backup's world rank, or -1.
  int attach(std::uint64_t mem_id, std::uint64_t length);
  /// detach() on the owner: forget a replicated window and tell every
  /// other live member (repl_detach), so that none fails an op on it over
  /// to a copy.
  void detach(std::uint64_t mem_id);
  /// `*eff`: `mem`, or after its owner's death the live copy along the
  /// succession chain. The error to report when no copy can serve.
  OpStatus resolve(const TargetMem& mem, TargetMem* eff);
  /// Stamp a get's rescue state: re-driven at `mem.backup` on owner death.
  void track_get(Request::State& st, const TargetMem& mem, std::uint64_t disp);
  /// Mirror one put/accumulate block to `mem.backup` (process context;
  /// charges inject overhead) and stamp the request's rescue state.
  void mirror_block(Request::State& st, bool is_acc, portals::AccOp acc_op,
                    portals::NumType nt, const TargetMem& mem,
                    std::uint64_t offset, std::uint64_t src_addr,
                    std::uint64_t len);
  /// Replicate an RMW the primary `eff.owner` has committed.
  void replicate_rmw(portals::RmwOp op, const TargetMem& eff,
                     std::uint64_t disp, std::uint64_t a, std::uint64_t b);
  /// RmaEngine::fail_over, once `st` is fully injected (decided after
  /// injection: rescued or drained, never reissued): take over `st` if its
  /// mirrors or its backup can still serve it. False: drain it.
  bool rescue(Request::State& st, int dead);
  /// End of the engine's on_target_failed: ledger repair, re-sync, roles.
  void on_target_failed(int dead);
  /// Every AM kind from repl_create on.
  void on_am(const AmHdr& h, fabric::Packet& p);
  /// Re-drive rescued gets at their backup once its stream is flushed.
  void progress();
  /// Engine teardown: drain the mirror streams, then the bye handshake.
  void quiesce();
  /// True while mirrors sent to `backup` are not yet all acked.
  bool busy(int backup) const;

 private:
  friend class RmaEngine;  // mirrors_applied(), replicas_hosted()

  /// One mirror message: an origin's resync log entry (`peer`: world rank
  /// whose death makes it worth re-sending, the window's primary), a
  /// backup's out-of-order held mirror or a mirror gated behind a
  /// materializing copy (`peer`: the stream's origin). hdr.req_id is the
  /// stream seq.
  struct Mirror {
    int peer = -1;
    AmHdr hdr;
    std::vector<std::byte> payload;
  };
  struct Ledger {  // origin-side stream state, one per backup rank
    std::uint64_t sent = 0;     // entries logged (lazy mode logs > transmits)
    std::uint64_t flushed = 0;  // entries actually transmitted; eager keeps
                                // flushed == sent, lazy defers until failover
    std::uint64_t acked = 0;
    std::deque<Mirror> pending;  // sent but not yet cumulatively acked
  };
  struct Inbound {  // backup-side stream state, one per origin rank
    std::uint64_t applied = 0;  // cumulative in-order seq applied
    std::map<std::uint64_t, Mirror> held;  // out of order (unordered nets)
  };
  struct Window {
    int cur_backup = -1;  // live backup this copy mirrors/forwards to (-1:
                          // none — plain backups never forward)
    int materializing_from = -1;  // adoptee: snapshot source, -1 once synced
    bool lost = false;  // snapshot source died mid-burst: copy incomplete
  };
  using Gate = std::map<std::uint64_t, std::deque<Mirror>>;

  /// Log one mirror on this origin's stream to `mem.backup` and transmit
  /// it (charging inject overhead) unless lazy mode or a region-repair hold
  /// defers it. `st`, if any, is the op the mirror covers.
  void log_mirror(const TargetMem& mem, AmHdr h,
                  std::vector<std::byte> payload, Request::State* st);
  /// Ask the live primary of `mem_id` to re-publish `[offset,
  /// offset+length)` to its current backup (repl_region_fwd). Replicates a
  /// committed RMW or accumulate when a semantic replay could double-apply
  /// or has nowhere safe to go: the bytes ride the primary's own in-order
  /// stream behind its snapshot burst, so the copy converges to the
  /// authoritative value. Fire-and-forget, event-context safe.
  void region_fwd(int primary, std::uint64_t mem_id, std::uint64_t offset,
                  std::uint64_t length);
  /// Backup side: apply one in-order mirror to the replica region.
  void apply_mirror(const AmHdr& h, std::span<const std::byte> payload);
  /// Block until the mirror stream to `backup` is fully acked (or the
  /// backup dies). Called before re-targeting ops at the replica.
  void failover_sync(int backup);
  /// Succession chain of window `mem_id` in world-rank space: distinct
  /// members in order starting at the original owner, dead/endian-mismatched
  /// ranks included (callers filter) so every engine agrees on positions.
  std::vector<int> chain_members(std::uint64_t mem_id) const;
  /// Configured endianness of a world rank's node.
  Endian node_endian(int world_rank) const;
  /// True when `world_rank` may host a copy of `mem_id` (alive + endian
  /// matches the original owner's node).
  bool chain_eligible(int world_rank, std::uint64_t mem_id) const;
  /// First live eligible chain member strictly after `after`, or -1. From
  /// the start of the chain (the acting primary) with `after` = -1.
  int chain_next_alive(std::uint64_t mem_id, int after = -1) const;
  /// Event context, end of on_target_failed: for every registered window
  /// whose chain changed, the acting primary re-replicates (adopt + snapshot
  /// burst + sync-done) to the next live eligible member.
  void update_roles();
  /// Log + transmit one raw mirror on this rank's own ledger stream to
  /// `backup` (no inject delay charge; event-context safe). Used by the
  /// re-replication snapshot burst and in-flight mirror forwarding.
  void mirror_raw(int backup, const AmHdr& h, std::vector<std::byte> payload);
  /// Transmit every logged-but-untransmitted entry on the ledger stream to
  /// `backup` in seq order and advance the flush point (event-context safe).
  /// Releases lazily deferred tails and region-repair holds alike.
  void flush_deferred(int backup);
  /// Release one region-repair hold on the stream to `backup` (-1: none);
  /// the last release flushes the deferred tail.
  void release_hold(int backup);
  /// Expose a replica region of window `mem_id` on this rank under the
  /// window's own id (repl_create, repl_adopt).
  void host_replica(std::uint64_t mem_id, std::uint64_t length,
                    int materializing_from);
  /// Backup side: accept one in-order mirror — apply it, gate it while this
  /// copy materializes, or park it pre-adoption; then forward it when this
  /// rank is an acting primary with a live backup.
  void route_mirror(int src, const AmHdr& h, std::span<const std::byte> payload);
  /// Blocking readiness probe: does `target` host a complete, live copy of
  /// `mem_id`? Cached per window; used only when failover walks past the
  /// handle's own owner/backup pair. A mid-materialization answer is
  /// retried (the copy may complete moments later); only a definitive
  /// unhosted/lost answer caches the window as lost.
  bool probe_replica(int target, std::uint64_t mem_id);
  /// Re-arm the notification of a rescued in-flight op at the backup that
  /// absorbed its mirrors: sends AmHdr::Kind::notify_fire so the surviving
  /// copy's queue sees the op exactly once. Event-context safe.
  void rearm_notify(const Request::State& st);
  /// Complete a rescued put/accumulate whose mirrors the backup has acked.
  void finish_rescue(Request::State& st);
  /// Fail a rescued request whose backup died too.
  void lose_replica(Request::State& st, int backup);
  /// True once this rank has entered quiesce and every other live member's
  /// bye has been seen: no peer issues new ops past its bye, and any peer
  /// may dispose the moment its own predicates hold, so no new forward
  /// traffic may be aimed at one.
  bool peers_quiesced() const;

  RmaEngine& eng_;
  std::unordered_map<int, Ledger> out_;  // by backup world rank
  std::unordered_map<int, Inbound> in_;  // by origin world rank
  // Rescued puts parked until their mirror seq is acked, by backup rank
  // (insertion = request-id order, preserved for deterministic completion).
  std::unordered_map<int, std::vector<std::uint64_t>> waiters_;
  std::deque<std::uint64_t> reissue_;  // rescued gets awaiting re-drive
  // Replica regions this rank hosts as a backup: mem id -> allocated base
  // (also marks ids in the engine's attached regions that are replicas).
  std::map<std::uint64_t, std::uint64_t> bufs_;
  std::uint64_t mirrors_applied_ = 0;
  // Re-replication registry: every copy (owner or backup) this rank hosts.
  std::map<std::uint64_t, Window> windows_;
  // Mirrors accepted (acked on the origin stream) but not yet applicable:
  // parked until the local copy finishes materializing / is adopted.
  Gate mat_gate_;
  Gate pre_adopt_gate_;
  // Failover probe cache: window -> rank verified ready (invalidated when
  // that rank dies); windows verified lost short-circuit to replica_lost.
  std::map<std::uint64_t, int> probe_ok_;
  std::set<std::uint64_t> lost_windows_;
  // Windows their owner detached: after the owner's death an op on one
  // fails with replica_lost, and a copy hosted here is never re-replicated
  // (it stays exposed, applying and acking mirrors, until teardown).
  std::set<std::uint64_t> detached_;
  // Region-repair ordering: outstanding repl_region_fwd requests by serving
  // primary (FIFO per fabric pair keeps confirmations aligned with their
  // request; each entry is the backup stream held for that request, -1 =
  // none), and the per-backup count of holds currently deferring this
  // origin's fresh mirrors (released — tail flushed — when it hits 0).
  std::map<int, std::deque<int>> fwd_inflight_;
  std::map<int, int> fwd_hold_;
  // Fault-robust teardown: an engine leaves by sending `bye` to every comm
  // member and parks — still serving mirrors, probes, adoption streams and
  // retargeted ops — until every live member has said bye too (dead
  // members count via the death announcement). The plain dissemination
  // barrier releases waiters the instant a round partner dies, which would
  // tear a chain member's engine down while a re-replication burst is in
  // flight to it.
  bool quiescing_ = false;
  std::vector<std::uint8_t> bye_seen_;  // world-rank indexed
};

}  // namespace m3rma::core
