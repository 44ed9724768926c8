#include <gtest/gtest.h>

#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "simtime/channel.hpp"
#include "simtime/engine.hpp"

namespace m3rma::sim {
namespace {

TEST(Engine, RunsSingleProcessToCompletion) {
  Engine e;
  bool ran = false;
  e.spawn("p", [&](Context&) { ran = true; });
  e.run();
  EXPECT_TRUE(ran);
}

TEST(Engine, DelayAdvancesVirtualTime) {
  Engine e;
  Time seen = 0;
  e.spawn("p", [&](Context& ctx) {
    ctx.delay(1000);
    seen = ctx.now();
    ctx.delay(234);
    seen = ctx.now();
  });
  e.run();
  EXPECT_EQ(seen, 1234u);
  EXPECT_EQ(e.now(), 1234u);
}

TEST(Engine, ComputationTakesZeroVirtualTime) {
  Engine e;
  Time t = 99;
  e.spawn("p", [&](Context& ctx) {
    volatile long acc = 0;
    for (int i = 0; i < 100000; ++i) acc = acc + i;
    t = ctx.now();
  });
  e.run();
  EXPECT_EQ(t, 0u);
}

TEST(Engine, ProcessesInterleaveDeterministically) {
  // Two runs with the same program produce the same event trace.
  auto trace = []() {
    Engine e;
    std::vector<std::string> log;
    for (int p = 0; p < 3; ++p) {
      e.spawn("p" + std::to_string(p), [&, p](Context& ctx) {
        for (int i = 0; i < 4; ++i) {
          ctx.delay(static_cast<Time>(100 * (p + 1)));
          log.push_back("p" + std::to_string(p) + "@" +
                        std::to_string(ctx.now()));
        }
      });
    }
    e.run();
    return log;
  };
  EXPECT_EQ(trace(), trace());
}

TEST(Engine, EventsAtSameInstantRunInScheduleOrder) {
  Engine e;
  std::vector<int> order;
  e.spawn("p", [&](Context& ctx) {
    ctx.engine().schedule_in(10, [&] { order.push_back(1); });
    ctx.engine().schedule_in(10, [&] { order.push_back(2); });
    ctx.engine().schedule_in(10, [&] { order.push_back(3); });
    ctx.delay(20);
  });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, SchedulePastThrows) {
  Engine e;
  e.spawn("p", [&](Context& ctx) {
    ctx.delay(100);
    ctx.engine().schedule_at(50, [] {});
  });
  EXPECT_THROW(e.run(), Panic);
}

TEST(Engine, ExceptionInProcessPropagatesFromRun) {
  Engine e;
  e.spawn("bad", [&](Context&) { throw std::logic_error("kapow"); });
  try {
    e.run();
    FAIL() << "expected logic_error";
  } catch (const std::logic_error& ex) {
    EXPECT_STREQ(ex.what(), "kapow");
  }
}

TEST(Engine, DeadlockDetected) {
  Engine e;
  Condition never(e);
  e.spawn("stuck", [&](Context& ctx) { ctx.await(never); });
  EXPECT_THROW(e.run(), DeadlockError);
}

TEST(Engine, DeadlockMessageNamesBlockedProcess) {
  Engine e;
  Condition never(e);
  e.spawn("the-stuck-one", [&](Context& ctx) { ctx.await(never); });
  try {
    e.run();
    FAIL();
  } catch (const DeadlockError& d) {
    EXPECT_NE(std::string(d.what()).find("the-stuck-one"), std::string::npos);
  }
}

TEST(Engine, DaemonDoesNotKeepSimulationAlive) {
  Engine e;
  Condition never(e);
  bool worker_done = false;
  e.spawn("daemon", [&](Context& ctx) { ctx.await(never); },
          /*daemon=*/true);
  e.spawn("worker", [&](Context& ctx) {
    ctx.delay(500);
    worker_done = true;
  });
  e.run();  // must terminate despite the blocked daemon
  EXPECT_TRUE(worker_done);
}

TEST(Engine, ConditionWakesAllWaiters) {
  Engine e;
  Condition c(e);
  int woken = 0;
  for (int i = 0; i < 5; ++i) {
    e.spawn("w" + std::to_string(i), [&](Context& ctx) {
      ctx.await(c);
      ++woken;
    });
  }
  e.spawn("notifier", [&](Context& ctx) {
    ctx.delay(100);
    c.notify_all();
  });
  e.run();
  EXPECT_EQ(woken, 5);
}

TEST(Engine, AwaitUntilRechecksPredicate) {
  Engine e;
  Condition c(e);
  int value = 0;
  Time when = 0;
  e.spawn("waiter", [&](Context& ctx) {
    ctx.await_until(c, [&] { return value >= 3; });
    when = ctx.now();
  });
  e.spawn("setter", [&](Context& ctx) {
    for (int i = 0; i < 3; ++i) {
      ctx.delay(100);
      ++value;
      c.notify_all();
    }
  });
  e.run();
  EXPECT_EQ(when, 300u);
}

TEST(Engine, SpawnDuringRunStartsAtCurrentInstant) {
  Engine e;
  Time child_start = 0;
  e.spawn("parent", [&](Context& ctx) {
    ctx.delay(777);
    ctx.engine().spawn("child", [&](Context& cctx) {
      child_start = cctx.now();
    });
    ctx.delay(10);
  });
  e.run();
  EXPECT_EQ(child_start, 777u);
}

TEST(Engine, YieldLetsSameTimeEventsRun) {
  Engine e;
  std::vector<int> order;
  e.spawn("a", [&](Context& ctx) {
    ctx.engine().schedule_in(0, [&] { order.push_back(1); });
    ctx.yield();
    order.push_back(2);
  });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Engine, ContextSwitchesCounted) {
  Engine e;
  e.spawn("p", [&](Context& ctx) {
    for (int i = 0; i < 10; ++i) ctx.delay(1);
  });
  e.run();
  EXPECT_GE(e.context_switches(), 10u);
}

TEST(Engine, ManyProcessesManyEvents) {
  Engine e;
  long total = 0;
  constexpr int kProcs = 32;
  constexpr int kIters = 50;
  for (int p = 0; p < kProcs; ++p) {
    e.spawn("p" + std::to_string(p), [&, p](Context& ctx) {
      for (int i = 0; i < kIters; ++i) {
        ctx.delay(static_cast<Time>(p % 7 + 1));
        ++total;
      }
    });
  }
  e.run();
  EXPECT_EQ(total, kProcs * kIters);
  EXPECT_GE(e.events_processed(), static_cast<std::uint64_t>(total));
}

TEST(Engine, StressManyProcessesRandomSleeps) {
  // 100 processes, randomized sleeps, shared counters: scheduling must stay
  // exclusive (no torn updates without any locking) and every process must
  // run to completion.
  Engine e(31337);
  long counter = 0;
  int finished = 0;
  for (int p = 0; p < 100; ++p) {
    e.spawn("p" + std::to_string(p), [&](Context& ctx) {
      for (int i = 0; i < 25; ++i) {
        const long before = counter;
        ctx.delay(1 + ctx.engine().rng().next_below(50));
        // Exclusive execution: nobody can have interleaved a partial
        // update; we can only observe monotonic growth.
        EXPECT_GE(counter, before);
        ++counter;
      }
      ++finished;
    });
  }
  e.run();
  EXPECT_EQ(counter, 100 * 25);
  EXPECT_EQ(finished, 100);
}

TEST(Engine, TimeNeverGoesBackward) {
  Engine e(5);
  Time last = 0;
  bool monotone = true;
  for (int p = 0; p < 10; ++p) {
    e.spawn("p" + std::to_string(p), [&](Context& ctx) {
      for (int i = 0; i < 50; ++i) {
        ctx.delay(ctx.engine().rng().next_below(100));
        if (ctx.now() < last) monotone = false;
        last = ctx.now();
      }
    });
  }
  e.run();
  EXPECT_TRUE(monotone);
}

TEST(Engine, KillUnwindsBlockedProcessAndRunTerminates) {
  // A killed process dies at its blocking point: the statement after the
  // interrupted delay never executes, destructors run, and the simulation
  // terminates normally for everyone else.
  Engine e;
  bool victim_resumed = false;
  bool victim_cleaned_up = false;
  bool other_finished = false;
  const int victim = e.spawn("victim", [&](Context& ctx) {
    struct Guard {
      bool* flag;
      ~Guard() { *flag = true; }
    } g{&victim_cleaned_up};
    ctx.delay(10'000);
    victim_resumed = true;
  });
  e.spawn("killer", [&](Context& ctx) {
    ctx.delay(1'000);
    ctx.engine().kill(victim);
  });
  e.spawn("other", [&](Context& ctx) {
    ctx.delay(20'000);
    other_finished = true;
  });
  e.run();
  EXPECT_FALSE(victim_resumed);
  EXPECT_TRUE(victim_cleaned_up);
  EXPECT_TRUE(other_finished);
  EXPECT_EQ(e.now(), 20'000u);
}

TEST(Engine, KillIsIdempotentAndImmediateOnNextBlock) {
  // Killing twice is harmless; the victim dies at its current blocking
  // point without ever resuming the statement after it.
  Engine e;
  int steps = 0;
  const int victim = e.spawn("victim", [&](Context& ctx) {
    steps = 1;
    ctx.delay(5'000);
    steps = 2;
  });
  e.spawn("killer", [&](Context& ctx) {
    ctx.engine().kill(victim);
    ctx.engine().kill(victim);
    EXPECT_TRUE(ctx.engine().kill_requested(victim));
    ctx.delay(1);
  });
  e.run();
  EXPECT_EQ(steps, 1);
}

TEST(Engine, BlockedDaemonUnwindsOnItsOwnStackAtShutdown) {
  // Teardown resumes the blocked daemon so its destructors run; a blocking
  // call made while unwinding throws at once instead of switching away.
  Engine e;
  Condition never(e);
  int unwound = 0;
  bool delay_threw = false;
  e.spawn(
      "daemon",
      [&](Context& ctx) {
        struct Guard {
          Context* ctx;
          int* unwound;
          bool* threw;
          ~Guard() {
            ++*unwound;
            try {
              ctx->delay(1);
            } catch (...) {
              *threw = true;
            }
          }
        } g{&ctx, &unwound, &delay_threw};
        ctx.await(never);
      },
      /*daemon=*/true);
  e.spawn("worker", [&](Context& ctx) { ctx.delay(10); });
  e.run();
  EXPECT_EQ(unwound, 1);
  EXPECT_TRUE(delay_threw);
}

TEST(Engine, RethrowInsideHandlerIsPerProcess) {
  // Both processes park inside their own catch handler, with the handlers
  // interleaved (A catches, B catches, A resumes, B resumes). A bare
  // `throw;` must rethrow the process's own exception, not whichever was
  // caught last on the thread that runs the simulation.
  Engine e;
  std::vector<int> rethrown(2, 0);
  for (int p = 0; p < 2; ++p) {
    e.spawn("p" + std::to_string(p), [&, p](Context& ctx) {
      ctx.delay(static_cast<Time>(10 * p));
      try {
        throw p + 1;
      } catch (int) {
        ctx.delay(100);
        try {
          throw;
        } catch (int v) {
          rethrown[static_cast<std::size_t>(p)] = v;
        }
      }
    });
  }
  e.run();
  EXPECT_EQ(rethrown, (std::vector<int>{1, 2}));
}

TEST(Engine, UncaughtExceptionCountIsPerProcess) {
  // A process that blocks in a destructor while an exception unwinds it
  // must not make other processes see that exception as in flight.
  Engine e;
  int during_unwind = -1;
  int other_sees = -1;
  e.spawn("unwinder", [&](Context& ctx) {
    struct Parks {
      Context* ctx;
      int* seen;
      ~Parks() {
        *seen = std::uncaught_exceptions();
        ctx->delay(50);
      }
    };
    try {
      Parks g{&ctx, &during_unwind};
      throw 1;
    } catch (int) {
    }
  });
  e.spawn("observer", [&](Context& ctx) {
    ctx.delay(10);
    other_sees = std::uncaught_exceptions();
  });
  e.run();
  EXPECT_EQ(during_unwind, 1);
  EXPECT_EQ(other_sees, 0);
}

TEST(Engine, SpawnCascadeDuringRunRunsEveryProcessOnce) {
  // Processes spawn more processes from inside the running simulation: a
  // binary tree of 1023 processes, each spawning its children between
  // blocking calls while hundreds of others are parked mid-body.
  constexpr int kProcs = 1023;
  Engine e(17);
  std::vector<int> runs(kProcs, 0);
  std::function<void(Context&, int)> body = [&](Context& ctx, int id) {
    ++runs[static_cast<std::size_t>(id)];
    ctx.delay(1 + ctx.engine().rng().next_below(20));
    for (int child : {2 * id + 1, 2 * id + 2}) {
      if (child >= kProcs) continue;
      ctx.engine().spawn("p" + std::to_string(child),
                         [&body, child](Context& c) { body(c, child); });
      ctx.yield();
    }
    ctx.delay(1 + ctx.engine().rng().next_below(20));
  };
  e.spawn("p0", [&](Context& ctx) { body(ctx, 0); });
  e.run();
  EXPECT_EQ(runs, std::vector<int>(kProcs, 1));
  EXPECT_EQ(e.live_process_count(), 0);
}

TEST(Engine, KilledProcessUnwindsItsStackOnce) {
  // The victim is killed while parked several frames deep: every frame's
  // destructor runs exactly once, at the kill, and what its stack owned is
  // released then, not at engine teardown.
  Engine e;
  int destructed = 0;
  auto resource = std::make_shared<int>(7);
  const std::weak_ptr<int> watch = resource;
  struct Guard {
    int* n;
    ~Guard() { ++*n; }
  };
  std::function<void(Context&, int)> nest = [&](Context& ctx, int depth) {
    Guard g{&destructed};
    if (depth > 0) {
      nest(ctx, depth - 1);
      return;
    }
    const std::shared_ptr<int> held = std::move(resource);
    ctx.delay(10'000);
  };
  const int victim = e.spawn("victim", [&](Context& ctx) { nest(ctx, 3); });
  bool released_at_kill = false;
  e.spawn("killer", [&](Context& ctx) {
    ctx.delay(1'000);
    ctx.engine().kill(victim);
    ctx.yield();
    released_at_kill = watch.expired() && destructed == 4;
    ctx.delay(20'000);
  });
  e.run();
  EXPECT_TRUE(released_at_kill);
  EXPECT_EQ(destructed, 4);
  EXPECT_FALSE(e.kill_requested(victim));
}

// ---------------------------------------------------------------- Channel

TEST(Channel, PushThenRecv) {
  Engine e;
  Channel<int> ch(e);
  int got = 0;
  e.spawn("recv", [&](Context& ctx) { got = ch.recv(ctx); });
  e.spawn("send", [&](Context& ctx) {
    ctx.delay(10);
    ch.push(42);
  });
  e.run();
  EXPECT_EQ(got, 42);
}

TEST(Channel, PreservesFifoOrder) {
  Engine e;
  Channel<int> ch(e);
  std::vector<int> got;
  e.spawn("recv", [&](Context& ctx) {
    for (int i = 0; i < 5; ++i) got.push_back(ch.recv(ctx));
  });
  e.spawn("send", [&](Context& ctx) {
    for (int i = 0; i < 5; ++i) {
      ch.push(i);
      ctx.delay(1);
    }
  });
  e.run();
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Channel, TryRecvNonBlocking) {
  Engine e;
  Channel<int> ch(e);
  e.spawn("p", [&](Context&) {
    EXPECT_FALSE(ch.try_recv().has_value());
    ch.push(7);
    auto v = ch.try_recv();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, 7);
  });
  e.run();
}

TEST(Channel, RecvBlocksUntilPush) {
  Engine e;
  Channel<int> ch(e);
  Time recv_time = 0;
  e.spawn("recv", [&](Context& ctx) {
    (void)ch.recv(ctx);
    recv_time = ctx.now();
  });
  e.spawn("send", [&](Context& ctx) {
    ctx.delay(12345);
    ch.push(1);
  });
  e.run();
  EXPECT_EQ(recv_time, 12345u);
}

TEST(Channel, MultipleConsumersEachGetOneMessage) {
  Engine e;
  Channel<int> ch(e);
  int sum = 0;
  for (int i = 0; i < 3; ++i) {
    e.spawn("c" + std::to_string(i),
            [&](Context& ctx) { sum += ch.recv(ctx); });
  }
  e.spawn("producer", [&](Context& ctx) {
    for (int v : {1, 10, 100}) {
      ctx.delay(5);
      ch.push(v);
    }
  });
  e.run();
  EXPECT_EQ(sum, 111);
}

TEST(Channel, KilledWaiterInRecvUnwinds) {
  // Fail-stop kill of a process parked in recv (the blocking point of every
  // Portals EQ and notification queue): the recv must unwind (KilledSignal
  // through check_killed) so Engine::run terminates with nothing ever
  // pushed.
  Engine e;
  Channel<int> ch(e);
  bool returned = false;
  const int victim = e.spawn("waiter", [&](Context& ctx) {
    (void)ch.recv(ctx);  // nothing will ever be pushed
    returned = true;
  });
  e.spawn("killer", [&](Context& ctx) {
    ctx.delay(1000);
    ctx.engine().kill(victim);
  });
  e.run();
  EXPECT_FALSE(returned);
  EXPECT_EQ(ch.size(), 0u);
}

}  // namespace
}  // namespace m3rma::sim
