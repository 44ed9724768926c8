#include "simtime/engine.hpp"

#include <sstream>

#include "simtime/fiber.hpp"

namespace m3rma::sim {

// ---------------------------------------------------------------- Context

Time Context::now() const { return eng_->now(); }

const std::string& Context::name() const {
  return eng_->procs_[static_cast<std::size_t>(pid_)]->name;
}

void Context::delay(Time ns) {
  Engine* e = eng_;
  const int pid = pid_;
  e->check_killed(pid);
  e->schedule_in(ns, [e, pid] { e->dispatch(pid); });
  e->note_block(pid);
  e->block_current(pid);
}

void Context::yield() { delay(0); }

void Context::await(Condition& c) {
  M3RMA_ENSURE(c.eng_ == eng_, "Condition belongs to a different engine");
  eng_->check_killed(pid_);
  c.waiters_.push_back(pid_);
  eng_->note_block(pid_);
  eng_->block_current(pid_);
}

// -------------------------------------------------------------- Condition

void Condition::notify_all() {
  if (waiters_.empty()) return;
  std::vector<int> ws;
  ws.swap(waiters_);
  for (int pid : ws) eng_->wake(pid);
}

// ----------------------------------------------------------------- Engine

Engine::Engine(std::uint64_t seed) : rng_(seed), seed_(seed) {}

Engine::~Engine() { shutdown_all(); }

void Engine::set_tracer(trace::Recorder* t) {
  tracer_ = t;
  if (t != nullptr) t->bind_clock(&now_);
}

void Engine::note_block(int pid) {
  if (tracer_ == nullptr) return;
  // The simulation is sequential, so the recorder's most recent record is
  // what this process was doing when it blocked.
  procs_[static_cast<std::size_t>(pid)]->site = tracer_->site();
}

int Engine::spawn(std::string name, std::function<void(Context&)> fn,
                  bool daemon) {
  M3RMA_ENSURE(!shutdown_, "spawn after shutdown");
  const int pid = static_cast<int>(procs_.size());
  auto ps = std::make_unique<ProcessState>();
  ps->name = std::move(name);
  ps->fn = std::move(fn);
  ps->daemon = daemon;
  if (!daemon) ++live_nondaemon_;
  procs_.push_back(std::move(ps));
  wake(pid);  // first dispatch at the current instant (time 0 before run())
  return pid;
}

void Engine::schedule_in(Time after, std::function<void()> fn) {
  schedule_at(now_ + after, std::move(fn));
}

void Engine::schedule_at(Time t, std::function<void()> fn) {
  M3RMA_ENSURE(t >= now_, "cannot schedule an event in the past");
  events_.push(Event{t, next_seq_++, std::move(fn)});
}

void Engine::run() {
  M3RMA_ENSURE(!in_run_, "Engine::run is not reentrant");
  in_run_ = true;
  while (true) {
    if (failure_) break;
    if (events_.empty()) {
      if (live_nondaemon_ == 0) break;  // drained; all real work finished
      // Live non-daemon processes exist but nothing can ever wake them.
      std::ostringstream os;
      os << "simulation deadlock at t=" << now_ << "ns; blocked processes:";
      for (const auto& p : procs_) {
        if (!p->finished) {
          os << " " << p->name;
          if (tracer_ != nullptr && p->site.rec != 0) {
            os << " (last: " << tracer_->site_text(p->site) << ")";
          }
        }
      }
      failure_ = std::make_exception_ptr(DeadlockError(os.str()));
      break;
    }
    Event ev = std::move(const_cast<Event&>(events_.top()));
    events_.pop();
    now_ = ev.t;
    ++events_processed_;
    try {
      ev.fn();
    } catch (...) {
      // Event callbacks (message deliveries, AM handlers) may throw; treat
      // it as a simulation failure so teardown still runs in order.
      if (!failure_) failure_ = std::current_exception();
    }
  }
  shutdown_all();
  in_run_ = false;
  if (failure_) {
    auto f = failure_;
    failure_ = nullptr;
    std::rethrow_exception(f);
  }
}

void Engine::process_main(int pid) {
  ProcessState& ps = *procs_[static_cast<std::size_t>(pid)];
  Context ctx(this, pid);
  try {
    ps.fn(ctx);
  } catch (const ShutdownSignal&) {
    // Normal teardown of a blocked process.
  } catch (const KillSignal&) {
    // Fail-stop death (Engine::kill): the body unwound mid-simulation and
    // the rest of the world keeps running.
  } catch (...) {
    if (!failure_) failure_ = std::current_exception();
  }
  ps.finished = true;
  if (!ps.daemon) --live_nondaemon_;
}

void Engine::dispatch(int pid) {
  ProcessState& ps = *procs_[static_cast<std::size_t>(pid)];
  if (ps.finished) return;
  ps.wake_pending = false;
  ++context_switches_;
  resume(ps, pid);
}

void Engine::resume(ProcessState& ps, int pid) {
  if (!ps.fiber) {
    ps.fiber = std::make_unique<Fiber>([this, pid] { process_main(pid); });
  }
  running_pid_ = pid;
  ps.fiber->resume();
  running_pid_ = -1;
  if (ps.fiber->done()) ps.fiber.reset();
}

void Engine::block_current(int pid) {
  if (shutdown_) throw ShutdownSignal{};
  M3RMA_ENSURE(running_pid_ == pid,
               "blocking call outside the calling process");
  ProcessState& ps = *procs_[static_cast<std::size_t>(pid)];
  ps.fiber->suspend();
  if (shutdown_) throw ShutdownSignal{};
  if (ps.killed) throw KillSignal{};
}

void Engine::wake(int pid) {
  ProcessState& ps = *procs_[static_cast<std::size_t>(pid)];
  if (ps.finished || ps.wake_pending) return;
  ps.wake_pending = true;
  schedule_in(0, [this, pid] { dispatch(pid); });
}

void Engine::check_killed(int pid) {
  if (procs_[static_cast<std::size_t>(pid)]->killed) throw KillSignal{};
}

void Engine::kill(int pid) {
  M3RMA_REQUIRE(pid >= 0 && pid < static_cast<int>(procs_.size()),
                "kill of an unknown process");
  ProcessState& ps = *procs_[static_cast<std::size_t>(pid)];
  if (ps.finished || ps.killed) return;
  // The wake makes a blocked victim re-examine the flag at the current
  // instant.
  ps.killed = true;
  wake(pid);
}

bool Engine::kill_requested(int pid) const {
  if (pid < 0 || pid >= static_cast<int>(procs_.size())) return false;
  const ProcessState& ps = *procs_[static_cast<std::size_t>(pid)];
  return ps.killed && !ps.finished;
}

void Engine::shutdown_all() {
  shutdown_ = true;
  // spawn() refuses to run during shutdown, so procs_ cannot grow here.
  for (std::size_t pid = 0; pid < procs_.size(); ++pid) {
    ProcessState& ps = *procs_[pid];
    if (ps.finished) continue;
    if (ps.fiber) {
      resume(ps, static_cast<int>(pid));
    } else {
      ps.finished = true;
    }
  }
}

}  // namespace m3rma::sim
