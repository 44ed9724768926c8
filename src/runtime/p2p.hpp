// Tag-matched two-sided messaging between ranks.
//
// A minimal MPI-style send/recv layer used by the runtime's collectives and
// by the control protocols of the RMA layers (window creation, post/start
// notifications, lock grants, ...). Eager protocol only: sends complete
// locally at injection; receives match by (source, tag) with wildcard
// support, in arrival order.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "fabric/fabric.hpp"
#include "simtime/engine.hpp"

namespace m3rma::runtime {

/// Fabric protocol id claimed by the p2p layer.
inline constexpr int kP2pProtocolId = 20;

inline constexpr int kAnySource = -1;
inline constexpr std::int64_t kAnyTag = -1;

struct Message {
  int src = -1;
  std::int64_t tag = 0;
  std::vector<std::byte> data;
};

/// Per-node endpoint. All calls must be made from processes of this node.
class P2p {
 public:
  explicit P2p(sim::Engine& eng, fabric::Nic& nic);
  ~P2p();
  P2p(const P2p&) = delete;
  P2p& operator=(const P2p&) = delete;

  /// Eager send: charges injection overhead and returns once the message is
  /// buffered on the wire.
  void send(sim::Context& ctx, int dst, std::int64_t tag,
            std::span<const std::byte> data);

  /// Blocking receive matching (src|kAnySource, tag|kAnyTag). Throws
  /// RankFailedError if `src` is (or becomes) a failed node: the message can
  /// never arrive, so waiting would hang the survivor. kAnySource receives
  /// keep waiting while any node is alive.
  Message recv(sim::Context& ctx, int src = kAnySource,
               std::int64_t tag = kAnyTag);

  /// Blocking receive matching `tag` from any of `srcs`, but giving up when
  /// none of them is alive anymore: returns the message, or nullopt once
  /// every listed source is dead (degraded collectives use this to skip
  /// failed members instead of hanging).
  std::optional<Message> recv_any_live(sim::Context& ctx, std::int64_t tag,
                                       const std::vector<int>& srcs);

  /// Non-blocking probe-and-take.
  std::optional<Message> try_recv(int src = kAnySource,
                                  std::int64_t tag = kAnyTag);

 private:
  struct WireHdr {
    std::int64_t tag = 0;
  };
  struct Posted {
    int src;
    std::int64_t tag;
    bool done = false;
    Message msg;
  };

  static bool matches(const Posted& p, int src, std::int64_t tag) {
    return (p.src == kAnySource || p.src == src) &&
           (p.tag == kAnyTag || p.tag == tag);
  }
  void deliver(fabric::Packet&& p);
  bool node_alive(int node) const;
  /// Await `posted.done` or the failure wake-up condition `give_up`; always
  /// unlinks `posted` from posted_ on the way out, including when the wait
  /// throws (KillSignal unwinding a killed rank).
  void await_posted(sim::Context& ctx, Posted& posted,
                    const std::function<bool()>& give_up);

  fabric::Nic* nic_;
  sim::Condition cond_;
  std::deque<Message> unexpected_;
  std::vector<Posted*> posted_;
  int death_listener_ = -1;
};

}  // namespace m3rma::runtime
