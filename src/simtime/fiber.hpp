// Stackful fiber: a function running on its own mmap'd stack that the
// thread which resumes it can switch into and out of (ucontext).
//
// The simulation engine runs every simulated process as a Fiber on the
// thread that calls Engine::run(); this header is its private machinery.
// A fiber carries the per-thread state that must follow it across
// switches: the C++ runtime's exception bookkeeping (so a bare `throw;` in
// one fiber rethrows that fiber's exception) and, under AddressSanitizer,
// the active-stack bounds and fake stack.
#pragma once

#include <ucontext.h>

#include <cstddef>
#include <functional>

namespace m3rma::sim {

class Fiber {
 public:
  /// Usable stack per fiber, the same depth as a default pthread stack. The
  /// mapping is MAP_NORESERVE, so only pages actually touched cost memory.
  static constexpr std::size_t kStackSize = std::size_t{8} << 20;

  /// Allocate the stack and prepare `body` to run on it at the first
  /// resume(). `body` must not let an exception escape.
  explicit Fiber(std::function<void()> body);
  /// Frees the stack. A fiber must not be destroyed while it is running or
  /// suspended mid-body with live frames that still need unwinding.
  ~Fiber();
  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Switch from the calling context into the fiber; returns when the fiber
  /// calls suspend() or its body returns.
  void resume();
  /// Called on the fiber: switch back to the context that resumed it.
  /// Returns at the next resume().
  void suspend();
  /// True once the body has returned; the fiber cannot be resumed again.
  bool done() const { return done_; }

 private:
  /// Layout of the C++ runtime's per-thread exception globals
  /// (abi::__cxa_eh_globals): the caught-exception stack and the uncaught
  /// count. A fiber's copy is live only while it runs.
  struct EhState {
    void* caught = nullptr;
    unsigned int uncaught = 0;
  };

  /// makecontext entry point; an exception escaping `body_` terminates.
  static void entry(unsigned int hi, unsigned int lo) noexcept;

  std::function<void()> body_;
  std::byte* map_ = nullptr;  // guard page + stack
  std::byte* stack_ = nullptr;
  ucontext_t self_{};
  ucontext_t caller_{};
  EhState eh_{};
  bool done_ = false;
  // AddressSanitizer bookkeeping (unused otherwise): this fiber's fake
  // stack while it is switched out, and the bounds of the resumer's stack.
  void* fake_stack_ = nullptr;
  const void* caller_bottom_ = nullptr;
  std::size_t caller_size_ = 0;
};

}  // namespace m3rma::sim
