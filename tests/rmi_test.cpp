// Tests for the strawman's interface-expansion hooks: remote method
// invocation through the xfer optype space (paper §IV/§V) and the
// collective allocation convenience.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "core/rma_engine.hpp"
#include "runtime/world.hpp"

namespace m3rma::core {
namespace {

using runtime::Rank;
using runtime::World;
using runtime::WorldConfig;

WorldConfig wcfg(int ranks) {
  WorldConfig c;
  c.ranks = ranks;
  return c;
}

std::span<const std::byte> bytes_of(const std::string& s) {
  return {reinterpret_cast<const std::byte*>(s.data()), s.size()};
}

TEST(RmiTest, EchoInvocation) {
  World w(wcfg(2));
  w.run([](Rank& r) {
    RmaEngine eng(r, r.comm_world());
    eng.register_rmi(0, [](int, std::span<const std::byte> args) {
      return std::vector<std::byte>(args.begin(), args.end());
    });
    r.comm_world().barrier();
    if (r.id() == 0) {
      auto reply = eng.invoke(1, 0, bytes_of("ping"));
      EXPECT_EQ(std::string(reinterpret_cast<const char*>(reply.data()),
                            reply.size()),
                "ping");
    }
    eng.complete_collective();
  });
}

TEST(RmiTest, HandlerSeesOriginAndComputes) {
  World w(wcfg(3));
  w.run([](Rank& r) {
    RmaEngine eng(r, r.comm_world());
    eng.register_rmi(7, [](int origin, std::span<const std::byte> args) {
      std::uint64_t v = 0;
      std::memcpy(&v, args.data(), 8);
      const std::uint64_t result = v * 10 + static_cast<std::uint64_t>(origin);
      std::vector<std::byte> out(8);
      std::memcpy(out.data(), &result, 8);
      return out;
    });
    r.comm_world().barrier();
    if (r.id() != 2) {
      const std::uint64_t arg = 5;
      auto reply = eng.invoke(
          2, 7, std::span(reinterpret_cast<const std::byte*>(&arg), 8));
      std::uint64_t v = 0;
      std::memcpy(&v, reply.data(), 8);
      EXPECT_EQ(v, 50u + static_cast<std::uint64_t>(r.id()));
    }
    eng.complete_collective();
  });
}

TEST(RmiTest, SignalRunsHandlerRemotely) {
  World w(wcfg(2));
  w.run([](Rank& r) {
    RmaEngine eng(r, r.comm_world());
    int fired = 0;
    eng.register_rmi(1, [&](int, std::span<const std::byte>) {
      ++fired;
      return std::vector<std::byte>{};
    });
    r.comm_world().barrier();
    if (r.id() == 0) {
      Request req = eng.signal(1, 1, {});
      req.wait();  // completes once the handler ran ("signaling a thread")
      EXPECT_TRUE(req.done());
    }
    eng.complete_collective();
    if (r.id() == 1) {
      EXPECT_EQ(fired, 1);
    }
    r.comm_world().barrier();
  });
}

TEST(RmiTest, HandlersRunSeriallyOnCommThread) {
  // RMI shares the serializer with atomic ops: concurrent invocations from
  // many origins must not interleave (the handler is not reentrant).
  World w(wcfg(5));
  w.run([](Rank& r) {
    RmaEngine eng(r, r.comm_world());
    int depth = 0;
    int max_depth = 0;
    std::uint64_t counter = 0;
    eng.register_rmi(3, [&](int, std::span<const std::byte>) {
      ++depth;
      max_depth = std::max(max_depth, depth);
      ++counter;
      --depth;
      return std::vector<std::byte>{};
    });
    r.comm_world().barrier();
    if (r.id() != 0) {
      for (int i = 0; i < 10; ++i) (void)eng.invoke(0, 3, {});
    }
    eng.complete_collective();
    if (r.id() == 0) {
      EXPECT_EQ(counter, 40u);
      EXPECT_EQ(max_depth, 1);
    }
    r.comm_world().barrier();
  });
}

TEST(RmiTest, ProgressSerializerNeedsTargetPolling) {
  World w(wcfg(2));
  w.run([](Rank& r) {
    EngineConfig ec;
    ec.serializer = SerializerKind::progress;
    RmaEngine eng(r, r.comm_world(), ec);
    std::uint64_t hits = 0;
    eng.register_rmi(0, [&](int, std::span<const std::byte>) {
      ++hits;
      return std::vector<std::byte>{};
    });
    r.comm_world().barrier();
    if (r.id() == 0) {
      (void)eng.invoke(1, 0, {});
    } else {
      eng.progress_poll(2000000);  // the target drives execution
      EXPECT_EQ(hits, 1u);
    }
    eng.complete_collective();
  });
}

TEST(RmiTest, DuplicateHandlerIdRejected) {
  World w(wcfg(1));
  w.run([](Rank& r) {
    RmaEngine eng(r, r.comm_world());
    eng.register_rmi(0, [](int, std::span<const std::byte>) {
      return std::vector<std::byte>{};
    });
    EXPECT_THROW(eng.register_rmi(0,
                                  [](int, std::span<const std::byte>) {
                                    return std::vector<std::byte>{};
                                  }),
                 UsageError);
    eng.complete_collective();
  });
}

TEST(RmiTest, UnregisteredHandlerIsAFailure) {
  World w(wcfg(2));
  EXPECT_THROW(w.run([](Rank& r) {
    RmaEngine eng(r, r.comm_world());
    r.comm_world().barrier();
    if (r.id() == 0) (void)eng.invoke(1, 99, {});
    eng.complete_collective();
  }),
               Panic);
}

// Fail-stop contract for RMI: a blocking invoke whose target dies before
// replying throws, and a signal to a target already known dead completes
// at once with target_failed without touching the wire.
TEST(RmiTest, InvokeThrowsWhenTargetDiesBeforeReplying) {
  World w(wcfg(2));
  bool checked = false;
  w.run([&](Rank& r) {
    RmaEngine eng(r, r.comm_world());
    eng.register_rmi(0, [](int, std::span<const std::byte> args) {
      return std::vector<std::byte>(args.begin(), args.end());
    });
    r.comm_world().barrier();
    if (r.id() == 0) {
      // The request is on the wire when rank 1 dies; no reply comes back.
      w.engine().schedule_in(1000, [&w] { w.kill_rank(1); });
      EXPECT_THROW((void)eng.invoke(1, 0, bytes_of("ping")), RankFailedError);
      EXPECT_TRUE(eng.target_failed(1));
      checked = true;
    }
    eng.complete_collective();
  });
  EXPECT_TRUE(checked);
  EXPECT_EQ(w.failed_ranks(), std::vector<int>{1});
}

TEST(RmiTest, SignalToKnownDeadTargetFailsFast) {
  World w(wcfg(2));
  bool checked = false;
  w.run([&](Rank& r) {
    RmaEngine eng(r, r.comm_world());
    eng.register_rmi(0, [](int, std::span<const std::byte>) {
      return std::vector<std::byte>{};
    });
    r.comm_world().barrier();
    if (r.id() == 0) {
      w.kill_rank(1);
      r.ctx().delay(1000);  // let the death announcement land
      ASSERT_TRUE(eng.target_failed(1));
      const std::uint64_t fast_before = eng.stats().failed_fast;
      const std::uint64_t wire_before = w.fabric().total_messages();
      Request req = eng.signal(1, 0, bytes_of("late"));
      EXPECT_TRUE(req.done());
      EXPECT_EQ(req.status(), OpStatus::target_failed);
      EXPECT_EQ(eng.stats().failed_fast, fast_before + 1);
      EXPECT_EQ(w.fabric().total_messages(), wire_before);
      checked = true;
    }
    eng.complete_collective();
  });
  EXPECT_TRUE(checked);
}

// ------------------------------------------------------ allocate_shared

TEST(AllocateShared, CollectiveAllocationHandsOutAllHandles) {
  World w(wcfg(4));
  w.run([](Rank& r) {
    RmaEngine eng(r, r.comm_world());
    auto [buf, mems] = eng.allocate_shared(256);
    ASSERT_EQ(mems.size(), 4u);
    for (int i = 0; i < 4; ++i) {
      EXPECT_TRUE(mems[static_cast<std::size_t>(i)].valid());
      EXPECT_EQ(mems[static_cast<std::size_t>(i)].owner, i);
      EXPECT_EQ(mems[static_cast<std::size_t>(i)].length, 256u);
    }
    // And it is immediately usable for RMA.
    std::vector<std::byte> v(8, std::byte{0x11});
    r.memory().cpu_write(buf.addr, v);
    const int right = (r.id() + 1) % 4;
    eng.put_bytes(buf.addr, mems[static_cast<std::size_t>(right)], 8, 8,
                  right,
                  Attrs(RmaAttr::blocking) | RmaAttr::remote_completion);
    eng.complete_collective();
    std::vector<std::byte> got(8);
    r.memory().cpu_read_uncached(buf.addr + 8, got);
    EXPECT_EQ(got, v);
  });
}

// --------------------------------------------------------------- OpStats

TEST(OpStatsTest, CountersTrackEveryOpClass) {
  World w(wcfg(2));
  w.run([](Rank& r) {
    RmaEngine eng(r, r.comm_world());
    eng.register_rmi(0, [](int, std::span<const std::byte>) {
      return std::vector<std::byte>{};
    });
    auto [buf, mems] = eng.allocate_shared(128);
    const auto i64 = dt::Datatype::int64();
    if (r.id() == 0) {
      eng.put_bytes(buf.addr, mems[1], 0, 8, 1, Attrs(RmaAttr::blocking));
      eng.put_bytes(buf.addr, mems[1], 8, 8, 1, Attrs(RmaAttr::blocking));
      eng.get_bytes(buf.addr, mems[1], 0, 8, 1, Attrs(RmaAttr::blocking));
      eng.accumulate(portals::AccOp::sum, buf.addr, 1, i64, mems[1], 0, 1,
                     i64, 1, Attrs(RmaAttr::blocking));
      (void)eng.fetch_add(mems[1], 0, 1, 1);
      (void)eng.invoke(1, 0, {});
      eng.order(1);
      eng.complete(1);
      const OpStats& st = eng.stats();
      EXPECT_EQ(st.puts, 2u);
      EXPECT_EQ(st.gets, 1u);
      EXPECT_EQ(st.accumulates, 1u);
      EXPECT_EQ(st.rmws, 1u);
      EXPECT_EQ(st.rmis, 1u);
      EXPECT_EQ(st.orders, 1u);
      EXPECT_GE(st.completes, 1u);
    }
    eng.complete_collective();
  });
}

}  // namespace
}  // namespace m3rma::core
