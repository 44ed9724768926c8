// Notified access: the consumer-side notification queue.
//
// The 2009 paper's strawman API moves data one-sidedly but gives the target
// no way to learn a transfer has landed — consumers must poll flags or spin
// on an EQ. The follow-on literature (UNR, arXiv 2408.07428; "Quo Vadis
// MPI RMA?", arXiv 2111.08142) identifies notification as the biggest hole
// MPI-3 RMA inherited. This subsystem adds the missing half: a notified op
// (core::RmaEngine::put_notify / get_notify) carries a user tag, and when
// the data is applied at the target — remote completion, not origin ack —
// a Notification record is enqueued on the target window's NotifyQueue,
// where the consumer can poll() or block in wait().
//
// A NotifyQueue wraps a sim::Channel, the queue primitive under every EQ in
// the system: wait() is a simulated blocking point that Engine::kill
// unwinds cleanly, and ordered fabrics give per-origin FIFO delivery of
// notifications for free. Each engine keeps one queue per window copy and
// one Portals notify sink per node, which routes a landed notified op to
// its window's queue.
#pragma once

#include <cstdint>
#include <optional>

#include "simtime/channel.hpp"
#include "simtime/engine.hpp"

namespace m3rma::notify {

/// One "a notified op landed on your window" record.
struct Notification {
  int origin = -1;          ///< rank that issued the notified op
  std::uint32_t tag = 0;    ///< user tag passed to put_notify/get_notify
  std::uint64_t bytes = 0;  ///< payload bytes applied (or read, for gets)
  std::uint64_t disp = 0;   ///< displacement into the target window
};

/// Per-target-window FIFO of notifications. Owned by the engine hosting
/// the window (one per attached window, created with the window);
/// consumers obtain it via core::RmaEngine::notify_queue().
class NotifyQueue {
 public:
  explicit NotifyQueue(sim::Engine& e) : chan_(e) {}

  /// Non-blocking: dequeue the oldest pending notification, if any.
  std::optional<Notification> poll() {
    auto n = chan_.try_recv();
    if (n) delivered_ += 1;
    return n;
  }

  /// Block the calling simulated process until a notification arrives.
  /// Event-driven (no polling loop); kill-unwind safe.
  Notification wait(sim::Context& ctx) {
    Notification n = chan_.recv(ctx);
    delivered_ += 1;
    return n;
  }

  std::size_t pending() const { return chan_.size(); }
  /// Notifications handed to the consumer so far (poll + wait).
  std::uint64_t delivered() const { return delivered_; }

  /// Enqueue and wake waiters. Every fire path (the Portals notify sink,
  /// the AM/serializer path and replication re-arms) ends here.
  void push(const Notification& n) { chan_.push(n); }

 private:
  sim::Channel<Notification> chan_;
  std::uint64_t delivered_ = 0;
};

}  // namespace m3rma::notify
