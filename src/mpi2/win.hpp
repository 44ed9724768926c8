// MPI-2 one-sided communication baseline (the interface the paper revisits).
//
// Implements MPI_Win with the three synchronization methods of paper
// Figure 1:
//   a. fence            — Win::fence()
//   b. post-start-complete-wait — Win::post/start/complete/wait
//   c. lock-unlock      — Win::lock(LockType, rank) / Win::unlock(rank)
// plus MPI_Put/MPI_Get/MPI_Accumulate with datatypes.
//
// Deliberately kept faithful to MPI-2's restrictions so benches can measure
// what the strawman (src/core) removes:
//   * window creation is COLLECTIVE (Win's constructor), unlike TargetMem;
//   * all data transfer completes only at synchronization calls;
//   * no per-op completion/ordering control.
//
// Implementation notes: ops are issued eagerly over portals and counted;
// synchronization flushes (hardware ACKs where the network has completion
// events, zero-byte-get probes on ordered ack-less networks). Accumulate
// uses NIC atomics and therefore requires Capabilities::native_atomics,
// which holds on the Cray-XT5-like default configuration.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "datatype/datatype.hpp"
#include "portals/portals.hpp"
#include "runtime/comm.hpp"
#include "runtime/world.hpp"

namespace m3rma::mpi2 {

/// Portal table index used by windows for data transfer.
inline constexpr int kPtWin = 2;
/// Window control protocols start here; each window claims base + ctx id.
inline constexpr int kWinProtocolBase = 1000;

enum class LockType : std::uint8_t { shared, exclusive };

class Win {
 public:
  /// MPI_Win_create: collective over `comm`. Every rank contributes
  /// [addr, addr+len) of its own memory (len may be 0).
  Win(runtime::Rank& rank, runtime::Comm& comm, std::uint64_t addr,
      std::uint64_t len);
  /// MPI_Win_free (collective: quiesces and barriers).
  ~Win();
  Win(const Win&) = delete;
  Win& operator=(const Win&) = delete;

  // ----- data transfer (origin side) ---------------------------------------

  void put(std::uint64_t origin_addr, std::uint64_t origin_count,
           const dt::Datatype& origin_dt, int target,
           std::uint64_t target_disp, std::uint64_t target_count,
           const dt::Datatype& target_dt);
  void get(std::uint64_t origin_addr, std::uint64_t origin_count,
           const dt::Datatype& origin_dt, int target,
           std::uint64_t target_disp, std::uint64_t target_count,
           const dt::Datatype& target_dt);
  void accumulate(portals::AccOp op, std::uint64_t origin_addr,
                  std::uint64_t origin_count, const dt::Datatype& origin_dt,
                  int target, std::uint64_t target_disp,
                  std::uint64_t target_count, const dt::Datatype& target_dt);

  /// Contiguous-bytes shorthand.
  void put_bytes(std::uint64_t origin_addr, int target,
                 std::uint64_t target_disp, std::uint64_t len);
  void get_bytes(std::uint64_t origin_addr, int target,
                 std::uint64_t target_disp, std::uint64_t len);

  // ----- synchronization ------------------------------------------------------

  /// MPI_Win_fence: completes all outstanding RMA issued from and targeted
  /// at this rank, collectively.
  void fence();

  /// MPI_Win_post: expose my window to `origin_group` (comm ranks).
  void post(std::span<const int> origin_group);
  /// MPI_Win_start: begin an access epoch to `target_group`.
  void start(std::span<const int> target_group);
  /// MPI_Win_complete: finish the access epoch started by start().
  void complete();
  /// MPI_Win_wait: wait until every origin in the post group completed.
  void wait();

  /// MPI_Win_lock / MPI_Win_unlock (passive target).
  void lock(LockType type, int target);
  void unlock(int target);

  // ----- introspection ---------------------------------------------------------

  runtime::Comm& comm() { return *comm_; }
  std::uint64_t ops_issued() const { return ops_issued_; }

 private:
  struct CtrlHdr;
  /// Deferred-unpack state of a get in flight (defined in win.cpp).
  struct GetState;
  struct RemoteWin {
    std::uint64_t match = 0;
    std::uint64_t length = 0;
    Endian endian = Endian::little;
  };
  struct PerTarget {
    std::uint64_t issued = 0;
    std::uint64_t acked = 0;
    std::uint64_t pending_replies = 0;
  };
  struct LockWaiter {
    int origin;
    LockType type;
  };

  void issue_put_like(bool is_acc, portals::AccOp op,
                      std::uint64_t origin_addr, std::uint64_t origin_count,
                      const dt::Datatype& origin_dt, int target,
                      std::uint64_t target_disp, std::uint64_t target_count,
                      const dt::Datatype& target_dt);
  void flush(const std::vector<int>& world_targets);
  void flush_one(int world_target);
  void drain();
  template <class Pred>
  void wait_for(Pred&& pred);
  void on_ctrl(fabric::Packet&& p);
  void send_ctrl(int world_target, const CtrlHdr& h);
  /// Close the attribution op `id` (trace::OpTimeline) at the current time.
  void end_op(std::uint64_t id);
  void try_grant_locks();
  void validate_transfer(std::uint64_t origin_addr,
                         std::uint64_t origin_count,
                         const dt::Datatype& origin_dt, int target,
                         std::uint64_t target_disp,
                         std::uint64_t target_count,
                         const dt::Datatype& target_dt) const;
  PerTarget& per(int world_rank);

  runtime::Rank* rank_;
  runtime::Comm* comm_;
  portals::Portals* ptl_;
  portals::EventQueue eq_;
  portals::MdHandle md_ = 0;
  portals::MeHandle me_ = 0;
  int proto_ = 0;
  std::uint64_t my_match_ = 0;
  std::uint64_t my_len_ = 0;
  std::vector<RemoteWin> remotes_;   // by comm rank
  std::vector<PerTarget> targets_;   // by world rank

  // PSCW state.
  std::vector<int> start_group_;            // comm ranks (access epoch)
  std::uint64_t posts_seen_ = 0;            // "post" notices received
  std::uint64_t completes_seen_ = 0;        // "complete" notices received
  std::uint64_t exposure_expected_ = 0;     // size of the post group

  // Passive-target lock manager (for my window).
  int excl_holder_ = -1;
  int shared_holders_ = 0;
  std::deque<LockWaiter> lock_queue_;
  // Origin-side: grants received, keyed by target world rank.
  std::unordered_map<int, bool> grant_pending_;

  std::uint64_t ops_issued_ = 0;

  // Latency attribution (DESIGN.md §10). Every put/get/accumulate call gets
  // a rank-unique op id (also its portals user_ptr, so acks and replies can
  // finish the op); ids are offset by the window's context id so concurrent
  // windows on one rank never collide in a shared OpTimeline. Allocation is
  // unconditional — attaching a timeline must not change any id stream.
  std::uint64_t op_base_ = 0;        // (ctx id + 1) << 28
  std::uint64_t next_op_seq_ = 0;
  std::unordered_map<std::uint64_t, std::uint32_t> ack_pending_;
  // Gets in flight, by op id; completion happens at synchronization.
  std::unordered_map<std::uint64_t, std::shared_ptr<GetState>> get_states_;
  std::vector<std::vector<std::uint64_t>> unacked_ops_;  // by world rank
};

}  // namespace m3rma::mpi2
