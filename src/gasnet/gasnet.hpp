// GASNet-like communication layer (paper §VI, Bonachea's GASNet 1.x).
//
// Core API: active messages in the three GASNet classes —
//   * short  (arguments only),
//   * medium (arguments + payload into a bounce buffer),
//   * long   (arguments + payload deposited into the remote segment) —
// with handler-table registration and reply-from-handler, handlers running
// at message delivery (poll-driven in real GASNet).
//
// Extended API: blocking and non-blocking put/get against the registered
// segment. Per the paper's comparison: NO accumulate operation and NO
// non-contiguous transfer support (clients loop over blocks themselves),
// and no way to request ordering between AMs.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <unordered_map>
#include <vector>

#include "portals/portals.hpp"
#include "runtime/comm.hpp"
#include "runtime/world.hpp"

namespace m3rma::gasnet {

/// Fabric protocol id of the AM core.
inline constexpr int kAmProtocol = 50;
/// Portal table index of the extended-API segment.
inline constexpr int kPtSegment = 4;
/// gasnet_AMMaxMedium analogue.
inline constexpr std::uint64_t kMaxMedium = 4096;

class Gasnet;

/// Handler token: identifies the requester and allows one reply.
class Token {
 public:
  int source() const { return src_; }
  bool replied() const { return replied_; }

 private:
  friend class Gasnet;
  Token(int src, Gasnet* gn) : src_(src), gn_(gn) {}
  int src_;
  Gasnet* gn_;
  bool replied_ = false;
};

/// AM handler: (token, payload, arg0, arg1). For long AMs the payload span
/// aliases the segment memory where the data was deposited.
using HandlerFn = std::function<void(Token&, std::span<const std::byte>,
                                     std::uint64_t, std::uint64_t)>;

/// Non-blocking extended-API handle.
class Handle {
 public:
  Handle() = default;

 private:
  friend class Gasnet;
  explicit Handle(std::uint64_t id) : id_(id), valid_(true) {}
  std::uint64_t id_ = 0;
  bool valid_ = false;
};

class Gasnet {
 public:
  /// gasnet_init: collective.
  Gasnet(runtime::Rank& rank, runtime::Comm& comm);
  ~Gasnet();
  Gasnet(const Gasnet&) = delete;
  Gasnet& operator=(const Gasnet&) = delete;

  /// Register a handler; every rank must register the same table in the
  /// same order (returns the handler index).
  int register_handler(HandlerFn fn);

  /// gasnet_attach: collective segment registration.
  void attach_segment(std::uint64_t addr, std::uint64_t len);

  // ----- core API -------------------------------------------------------------

  void am_short(int dst, int handler, std::uint64_t a0 = 0,
                std::uint64_t a1 = 0);
  void am_medium(int dst, int handler, std::span<const std::byte> payload,
                 std::uint64_t a0 = 0, std::uint64_t a1 = 0);
  /// Payload is deposited at `dst_off` within the destination segment
  /// before the handler runs.
  void am_long(int dst, int handler, std::span<const std::byte> payload,
               std::uint64_t dst_off, std::uint64_t a0 = 0,
               std::uint64_t a1 = 0);
  /// Reply from inside a handler (at most once per token).
  void reply_short(Token& tok, int handler, std::uint64_t a0 = 0,
                   std::uint64_t a1 = 0);
  void reply_medium(Token& tok, int handler,
                    std::span<const std::byte> payload, std::uint64_t a0 = 0,
                    std::uint64_t a1 = 0);

  // ----- extended API -----------------------------------------------------------

  /// Blocking put into the remote segment (returns when remotely complete).
  void put(int rank, std::uint64_t dst_off, std::uint64_t src_addr,
           std::uint64_t bytes);
  /// Blocking get from the remote segment.
  void get(std::uint64_t dst_addr, int rank, std::uint64_t src_off,
           std::uint64_t bytes);
  Handle put_nb(int rank, std::uint64_t dst_off, std::uint64_t src_addr,
                std::uint64_t bytes);
  Handle get_nb(std::uint64_t dst_addr, int rank, std::uint64_t src_off,
                std::uint64_t bytes);
  void sync_nb(Handle& h);
  /// Wait for all outstanding extended-API ops (gasnet_wait_syncnbi_all).
  void sync_all();

  std::uint64_t am_requests_received() const { return ams_received_; }

 private:
  struct AmHdr;
  struct OpState {
    bool done = false;
    std::uint32_t pending = 0;
  };

  void on_am(fabric::Packet&& p);
  void drain();
  template <class Pred>
  void wait_for(Pred&& pred);
  void send_am(int dst_world, const AmHdr& h,
               std::vector<std::byte> payload);

  runtime::Rank* rank_;
  runtime::Comm* comm_;
  portals::Portals* ptl_;
  portals::EventQueue eq_;
  portals::MdHandle md_ = 0;
  portals::MeHandle me_ = 0;
  std::uint64_t my_match_ = 0;

  std::vector<HandlerFn> handlers_;
  struct Segment {
    std::uint64_t match = 0;
    std::uint64_t base = 0;
    std::uint64_t len = 0;
  };
  std::vector<Segment> segments_;  // per comm rank

  std::unordered_map<std::uint64_t, OpState> ops_;
  // Op ids double as portals user_ptr cookies and attribution tags
  // (trace::op_tag(rank, id), DESIGN.md §10); the offset keeps them out of
  // the id space a core::RmaEngine on the same rank would use, so both can
  // report into one OpTimeline.
  std::uint64_t next_op_ = (0x6aULL << 28) + 1;
  std::uint64_t outstanding_ = 0;
  std::uint64_t ams_received_ = 0;
};

}  // namespace m3rma::gasnet
