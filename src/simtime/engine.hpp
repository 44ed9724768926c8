// Cooperative discrete-event simulation engine.
//
// m3rma runs every "MPI rank", communication thread, and NIC event of the
// simulated machine under this engine. Simulated processes are stackful
// fibers (see fiber.hpp) that all run on the thread calling run(): the
// scheduler switches into a process when its wake event fires, and the
// process switches back when it blocks. Exactly one process runs at a time
// by construction, so the simulation is sequential, deterministic, and
// race-free without locks. Virtual time (nanoseconds) advances only through
// the event queue; a process that computes without calling delay() takes
// zero virtual time, which is the standard DES convention.
//
// Blocking primitives available to a process:
//   * Context::delay(ns)  — advance this process's view of time
//   * Context::await(c)   — sleep until Condition c is notified
//   * Channel<T>::recv    — built on Condition (see channel.hpp)
//
// Event callbacks (message deliveries, timers) run in the scheduler's
// context, also exclusively, so they may touch shared simulation state
// freely and may notify conditions / schedule further events. They must
// not call blocking primitives.
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "common/diagnostics.hpp"
#include "common/rng.hpp"
#include "trace/recorder.hpp"

namespace m3rma::sim {

/// Virtual time in nanoseconds since simulation start.
using Time = std::uint64_t;

class Engine;
class Condition;
class Fiber;

/// Handle a simulated process uses to interact with the engine. Each process
/// body receives a reference to its own Context; it must not be shared with
/// other processes.
class Context {
 public:
  Time now() const;

  /// Advance virtual time by `ns` for this process (sleep).
  void delay(Time ns);

  /// Relinquish control, letting all other events scheduled for the current
  /// instant run before this process continues. Equivalent to delay(0).
  void yield();

  /// Block until `c` is notified. Use await_until for predicate waits —
  /// a notification does not imply any particular state.
  void await(Condition& c);

  /// Block until `pred()` holds, re-checking each time `c` is notified.
  template <class Pred>
  void await_until(Condition& c, Pred&& pred) {
    while (!pred()) await(c);
  }

  Engine& engine() const { return *eng_; }
  int pid() const { return pid_; }
  const std::string& name() const;

 private:
  friend class Engine;
  Context(Engine* e, int pid) : eng_(e), pid_(pid) {}
  Engine* eng_;
  int pid_;
};

/// Wait/notify rendezvous for simulated processes. Notification wakes every
/// current waiter at the current virtual instant (they resume in pid order
/// of the scheduled wake events). Level-triggered use requires a predicate
/// loop; prefer Context::await_until.
class Condition {
 public:
  explicit Condition(Engine& e) : eng_(&e) {}
  Condition(const Condition&) = delete;
  Condition& operator=(const Condition&) = delete;

  /// Wake all processes currently blocked in await(). Callable from process
  /// or event context.
  void notify_all();

 private:
  friend class Context;
  Engine* eng_;
  std::vector<int> waiters_;
};

/// The discrete-event scheduler. See file comment for the execution model.
class Engine {
 public:
  explicit Engine(std::uint64_t seed = 1);
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Create a simulated process. Daemon processes (service loops such as
  /// communication threads) do not keep the simulation alive: run() returns
  /// once every non-daemon process has finished, and daemons are then shut
  /// down by unwinding their stacks.
  ///
  /// May be called before run() (process starts at time 0) or from inside a
  /// running simulation (process starts at the current instant).
  int spawn(std::string name, std::function<void(Context&)> fn,
            bool daemon = false);

  /// Schedule `fn` to run in scheduler context at now + after.
  void schedule_in(Time after, std::function<void()> fn);
  void schedule_at(Time t, std::function<void()> fn);

  /// Run the simulation to completion. Throws DeadlockError if every live
  /// non-daemon process is blocked with no pending event, and rethrows the
  /// first exception escaping any process body.
  void run();

  /// Fail-stop kill: the process stops executing at its current (or next)
  /// blocking point — its stack unwinds via an internal signal its body
  /// cannot catch, destructors run, and it counts as finished. Idempotent;
  /// a no-op on already-finished processes. Callable from event or process
  /// context (a process may even kill itself; it dies at its next block).
  void kill(int pid);
  /// True when kill() has been requested for a live process.
  bool kill_requested(int pid) const;

  Time now() const { return now_; }
  SplitMix64& rng() { return rng_; }
  /// The seed this engine (and its rng stream) was constructed with.
  /// Subsystems that need independent derived streams (e.g. per-link fabric
  /// randomness) mix this with their own identity instead of consuming from
  /// rng(), so their draws do not perturb anyone else's sequence.
  std::uint64_t seed() const { return seed_; }

  std::uint64_t events_processed() const { return events_processed_; }
  std::uint64_t context_switches() const { return context_switches_; }
  int live_process_count() const { return live_nondaemon_; }

  /// Attach (or detach, with nullptr) a trace recorder. The engine stamps
  /// the recorder with its virtual clock and annotates DeadlockError with
  /// each blocked process's last recorded trace site. Upper layers reach
  /// the recorder through tracer() — with none attached, instrumentation
  /// costs one null-pointer check and runs are byte-identical to untraced
  /// builds.
  void set_tracer(trace::Recorder* t);
  trace::Recorder* tracer() const { return tracer_; }

 private:
  friend class Context;
  friend class Condition;

  struct ShutdownSignal {};
  /// Like ShutdownSignal, but for a single fail-stop-killed process: thrown
  /// out of its blocking calls so its stack unwinds mid-simulation while the
  /// rest of the world keeps running.
  struct KillSignal {};

  struct ProcessState {
    std::string name;
    std::function<void(Context&)> fn;
    /// Created at the first dispatch, freed as soon as the body returns:
    /// non-null exactly while the process is started and unfinished.
    std::unique_ptr<Fiber> fiber;
    bool finished = false;
    bool daemon = false;
    bool wake_pending = false;
    bool killed = false;
    trace::Recorder::Site site;  // last trace site when it blocked
  };

  struct Event {
    Time t;
    std::uint64_t seq;
    std::function<void()> fn;
  };
  struct EventOrder {
    bool operator()(const Event& a, const Event& b) const {
      return a.t != b.t ? a.t > b.t : a.seq > b.seq;
    }
  };

  /// Body of every process fiber: runs the process function and records how
  /// it ended.
  void process_main(int pid);
  /// Wake event: switch into `pid` until it blocks or finishes.
  void dispatch(int pid);
  /// Switch from the scheduler into `ps`, starting its fiber on first use;
  /// frees the fiber once the body has returned.
  void resume(ProcessState& ps, int pid);
  /// Called by the running process to switch back to the scheduler; returns
  /// when the process is dispatched again. Throws ShutdownSignal during
  /// teardown (at once, without switching, once shutdown has begun) and
  /// KillSignal when the process was killed while blocked.
  void block_current(int pid);
  /// Schedule `pid` to be dispatched at the current instant (idempotent per
  /// blocking period).
  void wake(int pid);
  /// Entry guard of every blocking primitive: a killed process dies at the
  /// point it would next switch out (covers blocking calls made while its
  /// destructors unwind, too).
  void check_killed(int pid);
  /// Teardown: resume every started, unfinished process so ShutdownSignal
  /// unwinds it on its own stack; processes never started just finish.
  void shutdown_all();
  /// Tracing: snapshot the process's last trace site for the deadlock
  /// report. Called by the process itself right before it switches out.
  void note_block(int pid);

  int running_pid_ = -1;  // -1: the scheduler is running
  bool shutdown_ = false;

  std::vector<std::unique_ptr<ProcessState>> procs_;
  std::priority_queue<Event, std::vector<Event>, EventOrder> events_;
  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_processed_ = 0;
  std::uint64_t context_switches_ = 0;
  int live_nondaemon_ = 0;
  bool in_run_ = false;
  std::exception_ptr failure_;
  SplitMix64 rng_;
  std::uint64_t seed_;
  trace::Recorder* tracer_ = nullptr;
};

}  // namespace m3rma::sim
