// RmaEngine: the strawman MPI-3 RMA interface (paper §IV), full semantics.
//
//   MPI_RMA_put/get/xfer      -> put() / get() / accumulate() / xfer()
//   rma_attributes            -> Attrs (ordering, remote_completion,
//                                atomicity, blocking), per call or as an
//                                engine default ("at the level of a
//                                communicator")
//   request + MPI_Wait/Test   -> Request::wait() / test()
//   MPI_Waitany               -> wait_any(requests)
//   MPI_RMA_complete          -> complete(rank) / complete(kAllRanks)
//   MPI_RMA_complete_collective -> complete_collective()
//   MPI_RMA_order             -> order(rank) / order(kAllRanks)
//   MPI_RMA_order_collective  -> order_collective()
//   target_mem                -> TargetMem, created non-collectively via
//                                attach(), shipped by the user (exchange_all
//                                is a convenience allgather)
//   RMW (§V)                  -> fetch_add / swap_val / compare_swap, or
//                                start_rmw for a request (MPI-3's
//                                MPI_Fetch_and_op completed at a wait)
//
// Implementation regimes (paper §III-B): on networks with completion events
// every data op carries a hardware ACK; on ordered networks ordering is
// free; where either is missing the engine falls back to software
// mechanisms (count-query flushes, issue stalls) "with a slight penalty".
// Atomicity is enforced by a pluggable serializer:
//   * SerializerKind::comm_thread — a dedicated simulated communication
//     thread at the target applies atomic ops serially (cheap);
//   * SerializerKind::coarse_lock — process-level distributed lock around
//     each access (Catamount-style, expensive under contention);
//   * SerializerKind::progress   — ops apply only when the target enters
//     the library (progress()/complete()/wait()).
//
// One RmaEngine may be live per rank at a time (it claims the AM fabric
// protocol); construction and destruction are collective over the comm.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/attrs.hpp"
#include "core/target_mem.hpp"
#include "datatype/datatype.hpp"
#include "notify/notify_queue.hpp"
#include "portals/portals.hpp"
#include "runtime/comm.hpp"
#include "runtime/world.hpp"

namespace m3rma::core {

/// MPI_ALL_RANKS: complete/order against every rank of the communicator.
inline constexpr int kAllRanks = -1;

/// Fabric protocol id of the engine's active-message channel.
inline constexpr int kAmProtocolId = 30;

/// Portal table index used for direct data transfers.
inline constexpr int kPtData = 1;

enum class SerializerKind : std::uint8_t {
  comm_thread,
  coarse_lock,
  progress,
};

/// rma_optype of MPI_RMA_xfer. The single-call form "may be used for
/// expanding the interface" (remote method invocation etc.); we implement
/// the three data ops.
enum class RmaOptype : std::uint8_t { put, get, accumulate };

/// Per-operation completion status. Nonblocking ops never throw on target
/// death: the request completes and carries the error here; blocking calls
/// that cannot return a status (fetch_add/swap_val/compare_swap, invoke)
/// throw RankFailedError instead.
enum class OpStatus : std::uint8_t {
  ok,
  target_failed,  ///< the target rank died before the op was confirmed
  replica_lost,   ///< the window was replicated but neither the primary nor
                  ///< the backup could serve the op (both dead, the
                  ///< backup died mid-failover, or the primary died after
                  ///< detaching the window)
};

/// Operation counters for observability (tests, benches, tracing).
struct OpStats {
  std::uint64_t puts = 0;
  std::uint64_t gets = 0;
  std::uint64_t accumulates = 0;
  std::uint64_t rmws = 0;
  std::uint64_t rmis = 0;
  std::uint64_t completes = 0;
  std::uint64_t orders = 0;
  std::uint64_t target_failures = 0;  ///< dead targets detected
  std::uint64_t drained_ops = 0;      ///< in-flight ops completed with error
  std::uint64_t failed_fast = 0;      ///< ops refused: target already dead
  // Replication / failover (all zero when replication is off).
  std::uint64_t mirrored_ops = 0;     ///< put/acc blocks + RMWs mirrored
  std::uint64_t mirror_bytes = 0;     ///< payload bytes mirrored
  std::uint64_t retargeted_ops = 0;   ///< ops issued at the backup instead of
                                      ///< the dead primary
  std::uint64_t rescued_ops = 0;      ///< in-flight ops to a dead primary
                                      ///< completed ok via their mirrors
  std::uint64_t reissued_gets = 0;    ///< in-flight gets re-driven at backup
  std::uint64_t resync_ops = 0;       ///< unacked mirrors re-sent at failover
  std::uint64_t resync_bytes = 0;     ///< payload bytes of those re-sends
  std::uint64_t replica_lost_ops = 0; ///< ops failed with replica_lost
  std::uint64_t rereplications = 0;   ///< windows re-replicated to a fresh
                                      ///< backup after a failover
  std::uint64_t rerepl_bytes = 0;     ///< snapshot bytes burst to new backups
  std::uint64_t forwarded_mirrors = 0;///< in-flight mirrors relayed by an
                                      ///< acting primary to its new backup
  std::uint64_t probes_sent = 0;      ///< replica-readiness probes issued
  // Notified access (all zero when put_notify/get_notify are unused).
  std::uint64_t notifies_sent = 0;    ///< notified ops issued at this origin
  std::uint64_t notifies_fired = 0;   ///< notifications enqueued at this
                                      ///< target (wire- and AM-path fires)
  std::uint64_t notifies_rearmed = 0; ///< notifications re-armed at the
                                      ///< backup for rescued in-flight ops
  std::uint64_t notifies_dropped = 0; ///< notified ops landing on a window
                                      ///< with no registered queue
};

struct EngineConfig {
  SerializerKind serializer = SerializerKind::comm_thread;
  /// OR-ed into every call's attributes — the paper's "set attributes at
  /// the level of a communicator" / "most stringent rules while debugging".
  Attrs default_attrs = Attrs::none();
  /// Interface name reported in latency-attribution breakdowns (the Table S6
  /// axis). Wrapper layers (ARMCI, SHMEM, ...) set their own.
  std::string api_label = "strawman";
};

class RmaEngine;
class Replication;
struct AmHdr;

/// Completion handle for a nonblocking RMA operation.
class Request {
 public:
  Request() = default;
  bool valid() const { return st_ != nullptr; }
  /// True once the operation reached its completion point (local, or remote
  /// when the op carried remote_completion).
  bool done() const;
  /// Poll progress once, then report done().
  bool test();
  /// Drive progress until done.
  void wait();
  /// Completion status; meaningful once done(). A drained op (target died
  /// mid-flight) and a failed-fast op (target already known dead at issue)
  /// both report target_failed; an op whose replicated window lost both
  /// copies reports replica_lost.
  OpStatus status() const;
  /// True for ANY non-ok status — callers must not assume target_failed is
  /// the only error.
  bool failed() const { return status() != OpStatus::ok; }
  /// start_rmw's result: the target word's value before the RMW, in this
  /// node's byte order. Meaningful once done() and !failed().
  std::uint64_t rmw_value() const;

 private:
  friend class RmaEngine;
  friend class Replication;
  struct State;
  Request(RmaEngine* e, std::shared_ptr<State> st)
      : eng_(e), st_(std::move(st)) {}
  RmaEngine* eng_ = nullptr;
  std::shared_ptr<State> st_;
};

class RmaEngine {
 public:
  /// Collective over `comm`: every member must construct its engine with
  /// the same config before any member issues RMA.
  RmaEngine(runtime::Rank& rank, runtime::Comm& comm, EngineConfig cfg = {});
  ~RmaEngine();
  RmaEngine(const RmaEngine&) = delete;
  RmaEngine& operator=(const RmaEngine&) = delete;

  // ----- target memory exposure (non-collective) ---------------------------

  /// Expose [addr, addr+length) of this rank's memory for remote access and
  /// return the shippable handle. Not collective.
  TargetMem attach(std::uint64_t addr, std::uint64_t length);
  TargetMem attach(const runtime::Rank::Buffer& buf);
  void detach(const TargetMem& mem);
  /// Convenience: allgather everyone's handle (collective). Ranks that have
  /// nothing to expose pass an invalid TargetMem.
  std::vector<TargetMem> exchange_all(const TargetMem& mine);
  /// The "collective allocation of target_mem" interface §V says was being
  /// formulated: every rank allocates `bytes`, attaches, and receives the
  /// whole team's handles.
  std::pair<runtime::Rank::Buffer, std::vector<TargetMem>> allocate_shared(
      std::uint64_t bytes, std::uint64_t align = 8);

  // ----- data transfer ------------------------------------------------------

  /// MPI_RMA_put(origin..., target_mem, target_disp, target..., rank, comm,
  /// attrs, request). origin_addr is a domain address of this rank;
  /// target_disp is a byte displacement inside `mem`.
  Request put(std::uint64_t origin_addr, std::uint64_t origin_count,
              const dt::Datatype& origin_dt, const TargetMem& mem,
              std::uint64_t target_disp, std::uint64_t target_count,
              const dt::Datatype& target_dt, int target_rank,
              Attrs attrs = Attrs::none());
  Request get(std::uint64_t origin_addr, std::uint64_t origin_count,
              const dt::Datatype& origin_dt, const TargetMem& mem,
              std::uint64_t target_disp, std::uint64_t target_count,
              const dt::Datatype& target_dt, int target_rank,
              Attrs attrs = Attrs::none());
  Request accumulate(portals::AccOp op, std::uint64_t origin_addr,
                     std::uint64_t origin_count, const dt::Datatype& origin_dt,
                     const TargetMem& mem, std::uint64_t target_disp,
                     std::uint64_t target_count, const dt::Datatype& target_dt,
                     int target_rank, Attrs attrs = Attrs::none());
  /// MPI_RMA_xfer: single entry point with an optype.
  Request xfer(RmaOptype op, portals::AccOp acc_op, std::uint64_t origin_addr,
               std::uint64_t origin_count, const dt::Datatype& origin_dt,
               const TargetMem& mem, std::uint64_t target_disp,
               std::uint64_t target_count, const dt::Datatype& target_dt,
               int target_rank, Attrs attrs = Attrs::none());

  /// Contiguous-bytes shorthand.
  Request put_bytes(std::uint64_t origin_addr, const TargetMem& mem,
                    std::uint64_t target_disp, std::uint64_t length,
                    int target_rank, Attrs attrs = Attrs::none());
  Request get_bytes(std::uint64_t origin_addr, const TargetMem& mem,
                    std::uint64_t target_disp, std::uint64_t length,
                    int target_rank, Attrs attrs = Attrs::none());

  // ----- notified access (beyond the paper; cf. UNR, arXiv 2408.07428) ------

  /// put_bytes that additionally enqueues {this rank, tag, length,
  /// target_disp} on the target window's notification queue once the data
  /// is applied at the target — remote completion, not origin ack. On a
  /// replicated window the notification fires exactly once at the copy
  /// that ends up serving the op (a rescue re-arms it at the backup).
  /// length must be > 0: a notification must witness data.
  Request put_notify(std::uint64_t origin_addr, const TargetMem& mem,
                     std::uint64_t target_disp, std::uint64_t length,
                     int target_rank, std::uint32_t tag,
                     Attrs attrs = Attrs::none());
  /// get_bytes whose target learns "the origin read this region": the
  /// notification fires after the read is served.
  Request get_notify(std::uint64_t origin_addr, const TargetMem& mem,
                     std::uint64_t target_disp, std::uint64_t length,
                     int target_rank, std::uint32_t tag,
                     Attrs attrs = Attrs::none());
  /// Consumer side: the notification queue of a window this rank hosts
  /// (owner copy). One queue per attached window, created by attach().
  notify::NotifyQueue& notify_queue(const TargetMem& mem);

  // ----- completion and ordering -------------------------------------------

  /// Wait until all previous RMA to `target_rank` (or every rank, with
  /// kAllRanks) are remotely complete. Returns the comm-relative ranks in
  /// the completion set that are failed: their ops were drained with
  /// target_failed status instead of confirmed (empty on a healthy run).
  std::vector<int> complete(int target_rank = kAllRanks);
  /// Collective variant (all surviving members participate; ends with a
  /// barrier). Same failed-target report as complete().
  std::vector<int> complete_collective();
  /// shmem_fence-like: RMA issued after this call will not overtake RMA
  /// issued before it, per target (free on ordered networks).
  void order(int target_rank = kAllRanks);
  void order_collective();
  /// MPI_Waitany over requests of this engine: drive progress until at
  /// least one of `reqs` is done (a failed request is done; an invalid one
  /// is done already) and return the lowest index among the done ones.
  /// Returns without progressing or advancing time when one is done
  /// already. `reqs` must not be empty.
  std::size_t wait_any(std::span<const Request> reqs);

  // ----- read-modify-write (§V, 64-bit) -------------------------------------

  /// Request-based RMW: `op` on the 64-bit word at `disp` (operand `a`;
  /// compare_swap compares with `a` and writes `b`). The request completes
  /// when the previous value is back (Request::rmw_value). A NIC atomic or
  /// a serializer AM completes on its reply, so several can be in flight;
  /// the lock-emulated route and a replicated window complete before this
  /// returns, since their lock sequence, mirror and retry at the backup
  /// need process context. A dead target does not throw: the request comes
  /// back failed, as a put's does.
  Request start_rmw(portals::RmwOp op, const TargetMem& mem,
                    std::uint64_t disp, std::uint64_t a, std::uint64_t b,
                    int target_rank);
  /// Blocking RMWs: start_rmw + wait. A failed RMW throws RankFailedError.
  std::uint64_t fetch_add(const TargetMem& mem, std::uint64_t disp,
                          std::uint64_t operand, int target_rank);
  std::uint64_t swap_val(const TargetMem& mem, std::uint64_t disp,
                         std::uint64_t value, int target_rank);
  /// Returns the previous value; the swap happened iff it equals `compare`.
  std::uint64_t compare_swap(const TargetMem& mem, std::uint64_t disp,
                             std::uint64_t compare, std::uint64_t desired,
                             int target_rank);

  // ----- remote method invocation (§IV/§V optype expansion) -------------------
  //
  // "in the future, this optype may be used for expanding the interface.
  //  One example of such expansion is the invocation of a remote function
  //  (a remote method invocation) or signaling a remote thread."
  // RMIs execute in the target's serializer context (communication thread,
  // or the progress engine), like atomic ops.

  /// Handler: (origin world rank, argument bytes) -> reply bytes.
  using RmiHandler =
      std::function<std::vector<std::byte>(int, std::span<const std::byte>)>;
  /// Register handler `id`; ids must match across ranks (like a GASNet
  /// handler table).
  void register_rmi(int id, RmiHandler fn);
  /// Invoke handler `id` on `target_rank` and return its reply (blocking).
  std::vector<std::byte> invoke(int target_rank, int id,
                                std::span<const std::byte> args);
  /// Fire-and-forget signal variant: the request completes when the
  /// handler has run at the target.
  Request signal(int target_rank, int id, std::span<const std::byte> args);

  // ----- progress ------------------------------------------------------------

  /// Drain pending completion events and (with the progress serializer)
  /// apply queued incoming atomic ops. Non-blocking.
  void progress();
  /// Poll progress for `duration` of virtual time, every `interval`.
  void progress_poll(sim::Time duration, sim::Time interval = 2000);

  // ----- introspection --------------------------------------------------------

  runtime::Comm& comm() { return *comm_; }
  runtime::Rank& rank() { return *rank_; }
  const EngineConfig& config() const { return cfg_; }
  /// Data ops issued to `target_rank` (comm-relative) not yet known
  /// remotely complete.
  std::uint64_t outstanding(int target_rank) const;
  std::uint64_t am_ops_applied() const { return am_applied_total_; }
  std::uint64_t lock_acquisitions() const { return lock_grants_; }
  const OpStats& stats() const { return stats_; }
  /// Failure detector view: has `target_rank` (comm-relative) been declared
  /// dead, and when did this engine learn of it (virtual time; 0 if alive).
  bool target_failed(int target_rank) const;
  sim::Time target_failed_at(int target_rank) const;
  /// Replication observability: mirrors this rank applied as a backup, and
  /// how many replica regions it hosts (0 with replication off).
  std::uint64_t mirrors_applied() const;
  std::size_t replicas_hosted() const;

 private:
  friend class Request;
  friend class Replication;

  struct AmMsg;
  struct PerTarget {
    std::uint64_t issued = 0;     // put-like segments sent
    std::uint64_t issued_rc = 0;  // of those, how many will be confirmed
                                  // (hardware ACK or software op_ack)
    std::uint64_t acked = 0;      // confirmations received
    std::uint64_t confirmed = 0;  // ops known remotely complete (flushes)
    std::uint64_t pending_replies = 0;  // get/rmw replies outstanding
    bool order_fence = false;           // order() fence pending (unordered)
  };
  struct Attached {
    std::uint64_t base = 0;
    std::uint64_t length = 0;
    portals::MeHandle me = 0;
  };
  struct LockState {
    int held_by = -1;
    std::deque<std::pair<int, std::uint64_t>> waiters;  // (rank, lock_req id)
  };

  // Issue paths.
  /// Stage the op's origin side (packed operand for put/accumulate, landing
  /// buffer for get), then send one message per contiguous target block:
  /// a Portals op, or with `via_am` a data_op AM for the target's
  /// serializer. `attrs` decides the completion discipline of direct
  /// put/accumulate only. Failover of `st` waits until every block and
  /// mirror is out: if the target died meanwhile, fail_over decides here.
  void issue_blocks(const std::shared_ptr<Request::State>& st, RmaOptype op,
                    portals::AccOp acc_op, bool via_am,
                    std::uint64_t origin_addr, std::uint64_t origin_count,
                    const dt::Datatype& origin_dt, const TargetMem& mem,
                    std::uint64_t target_disp, std::uint64_t target_count,
                    const dt::Datatype& target_dt, Attrs attrs);
  /// The coarse-lock serializer's one sequence for an atomic op: lock the
  /// target, read, combine, write, release. A get reads into the origin
  /// buffer; a put or accumulate writes from it. With `combine` the origin
  /// buffer is an image of the target region in this node's byte order: it
  /// is read, `combine` updates it, and it is written back. `eff` is `mem`
  /// resolved. If the lock target dies before the write is issued, nothing
  /// was applied: `mem` is resolved again and the sequence runs at the
  /// acting primary. Once the write is issued its status is the op's, and
  /// it is never issued again. `st`, the parent, has no wire target, so
  /// the failure detector drains only its children; the caller settles it.
  OpStatus locked_sequence(const std::shared_ptr<Request::State>& st,
                           RmaOptype op, portals::AccOp acc_op,
                           std::uint64_t origin_addr,
                           std::uint64_t origin_count,
                           const dt::Datatype& origin_dt, const TargetMem& mem,
                           TargetMem eff, std::uint64_t target_disp,
                           std::uint64_t target_count,
                           const dt::Datatype& target_dt,
                           const std::function<void()>& combine);
  /// start_rmw, then wait: the old value, or RankFailedError.
  std::uint64_t rmw(portals::RmwOp op, const TargetMem& mem,
                    std::uint64_t disp, std::uint64_t a, std::uint64_t b,
                    int target_rank);

  // Staging helpers.
  std::uint64_t pack_origin(std::uint64_t origin_addr,
                            std::uint64_t origin_count,
                            const dt::Datatype& origin_dt,
                            const dt::Datatype& target_dt,
                            std::uint64_t target_count, Endian target_endian);
  /// Charge the per-message inject overhead, attributed to op `tag` (0:
  /// unattributed).
  void charge_inject(std::uint64_t tag = 0);
  void charge_copy(std::uint64_t bytes);

  // Ordering / completion machinery.
  void stall_for_order(int world_target);
  void flush_target(int world_target);
  void flush_many(const std::vector<int>& world_targets);
  bool target_quiet(int world_target) const;
  template <class Pred>
  void progress_until(Pred&& pred);

  // AM machinery.
  void on_am(fabric::Packet&& p);
  /// Serializer step for one queued AM, on the comm thread or in progress():
  /// charge the apply cost, execute, and record the serialize span and the
  /// serialize_wait/apply segments. False when the engine was disposed
  /// during the apply delay (its rank killed): `this` is then gone.
  bool serve(sim::Context& ctx, AmMsg&& m);
  void execute_am(AmMsg&& m);
  /// `op` is the latency-attribution tag stamped on the packet (0 = none).
  void send_am(int world_target, const AmHdr& hdr,
               std::vector<std::byte> payload, std::uint64_t op = 0);

  /// Failover target resolution (Replication::resolve). With replication
  /// off `*eff` is `mem`, and a dead owner is target_failed.
  OpStatus resolve(const TargetMem& mem, TargetMem* eff);
  /// False when the lock target is (or dies while we wait to become) a
  /// failed rank — there is no lock manager left to grant.
  bool lock_acquire(int world_target);
  void lock_release(int world_target);
  void service_lock_request(int requester, std::uint64_t req_id);
  void service_lock_release(int releaser);
  /// Hand the serializer lock to `to` and send the grant after the lock
  /// manager's service time.
  void grant_lock(int to, std::uint64_t req_id);

  void handle_eq_event(const portals::Event& ev);
  /// One confirmation (hardware ACK or software op_ack) from `world_rank`.
  void count_ack(int world_rank);
  /// Expose [base, base+length) under window id `mem_id`: match entry,
  /// attached region and notification queue (owner and replica copies).
  void expose(std::uint64_t mem_id, std::uint64_t base, std::uint64_t length);
  /// Enqueue a notification on window `mem_id`'s local queue (every fire
  /// path — the node's Portals notify sink, AM/serializer path, replication
  /// re-arms — funnels here); counts a drop when this rank hosts no queue
  /// for it.
  /// Event-context safe (no time, no blocking).
  void fire_notify_local(std::uint64_t mem_id, const notify::Notification& n);
  /// Failure detector: `node` (world rank) was announced dead. Applies
  /// fail_over to every pending op addressed to it but one still being
  /// injected, reconciles the per-target counters so flush predicates
  /// converge, and repairs the serializer lock the dead rank held or awaited.
  void on_target_failed(int node);
  /// The failover rule for `st`, whose target `node` died: rescue it
  /// (Replication::rescue), or settle it target_failed, or replica_lost
  /// when it had a backup. It is never issued again.
  void fail_over(Request::State& st, int node);
  /// Idempotent teardown shared by the destructor and the constructor's
  /// failure path (a rank killed during the wire-up barrier must not leave
  /// a dangling death listener or claimed AM protocol behind).
  void dispose();
  void quiesce();
  /// Tracing: close the request's rma span and record its latency sample.
  /// No-op when the request was issued untraced.
  void finish_trace(Request::State& st);

  PerTarget& per(int world_rank);
  const PerTarget& per(int world_rank) const;
  /// The ledger to count a leg to `world_rank` in, or nullptr when that
  /// rank is dead: on_target_failed has reconciled its ledger and nothing
  /// of the leg will come back, so it is never counted.
  PerTarget* live_ledger(int world_rank) {
    return dead(world_rank) ? nullptr : &per(world_rank);
  }
  /// Failure detector: has `world_rank` been declared dead?
  bool dead(int world_rank) const {
    return target_failed_[static_cast<std::size_t>(world_rank)] != 0;
  }
  /// Register a new request to `world_target`. One awaiting `replies`
  /// AM/portals replies completes on those, never on SEND events.
  std::shared_ptr<Request::State> new_req(int world_target,
                                          std::uint32_t replies = 0);
  /// Fail fast: neither the target nor a replica can serve the op, so
  /// don't touch the wire — hand back a request to `world_target`, already
  /// settled with `status`.
  Request fail_fast(int world_target, OpStatus status);
  /// Complete a request with `status` and retire it. A NIC RMW's result
  /// is read from its operand/result buffer here, which is then freed.
  void settle(Request::State& st, OpStatus status = OpStatus::ok);
  std::shared_ptr<Request::State> find_req(std::uint64_t id);
  void finish_segment(const std::shared_ptr<Request::State>& st);

  runtime::Rank* rank_;
  runtime::Comm* comm_;
  EngineConfig cfg_;
  portals::Portals* ptl_;
  portals::EventQueue eq_;
  portals::MdHandle md_all_ = 0;

  std::unordered_map<std::uint64_t, Attached> attached_;
  std::uint64_t next_attach_ = 1;
  // Notification queues for every window copy this rank hosts (owner,
  // replica, adoptee), keyed by window id, the match bits the Portals
  // notify sink reports. Created the moment the copy exists so a notified
  // op can never land unheard.
  std::map<std::uint64_t, notify::NotifyQueue> notify_queues_;
  // Tag of the notified op currently being issued (xfer reads it into the
  // request state).
  std::optional<std::uint32_t> notify_tag_;

  std::vector<PerTarget> targets_;  // indexed by world rank
  std::unordered_map<std::uint64_t, std::shared_ptr<Request::State>> reqs_;
  std::uint64_t next_req_ = 1;

  // Incoming atomic/fallback ops awaiting the serializer: the comm thread
  // receives them, the other serializers drain them in progress().
  std::shared_ptr<sim::Channel<AmMsg>> am_chan_;
  /// The engine's liveness token, shared with the comm thread and every
  /// engine timer: dispose() clears it, so queued messages and pending
  /// timers stand down instead of touching a destroyed engine (a killed
  /// rank's engine lives on its unwound fiber stack).
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
  std::unordered_map<int, std::uint64_t> am_applied_from_;
  std::uint64_t am_applied_total_ = 0;

  LockState lock_;
  // Attribution tag of the op whose locked sequence is being issued: child
  // requests (lock acquires, the read and the write) alias into it. 0
  // between ops.
  std::uint64_t attr_parent_ = 0;
  std::uint64_t lock_grants_ = 0;
  // Open "lock.hold" trace spans, keyed by lock-owning world rank.
  std::unordered_map<int, std::uint64_t> lock_hold_spans_;
  std::unordered_map<int, RmiHandler> rmi_handlers_;
  OpStats stats_;
  // Window replication; null unless WorldConfig::replication.enabled.
  std::unique_ptr<Replication> repl_;
  // Failure detector state, indexed by world rank. Healthy-path code only
  // reads these flags, so fault-free runs are byte-identical.
  std::vector<char> target_failed_;
  std::vector<sim::Time> target_failed_at_;
  int death_listener_ = -1;
  bool disposed_ = false;
};

}  // namespace m3rma::core
