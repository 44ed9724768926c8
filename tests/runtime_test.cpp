#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <set>
#include <vector>

#include "runtime/comm.hpp"
#include "runtime/world.hpp"

namespace m3rma::runtime {
namespace {

std::span<const std::byte> as_bytes(const std::string& s) {
  return {reinterpret_cast<const std::byte*>(s.data()), s.size()};
}
std::string to_string(const std::vector<std::byte>& v) {
  return {reinterpret_cast<const char*>(v.data()), v.size()};
}

WorldConfig small_world(int n) {
  WorldConfig cfg;
  cfg.ranks = n;
  return cfg;
}

TEST(WorldTest, RunsEveryRankOnce) {
  World w(small_world(6));
  std::vector<int> seen(6, 0);
  w.run([&](Rank& r) { seen[static_cast<std::size_t>(r.id())]++; });
  EXPECT_EQ(seen, (std::vector<int>{1, 1, 1, 1, 1, 1}));
}

TEST(WorldTest, RunIsOneShot) {
  World w(small_world(2));
  w.run([](Rank&) {});
  EXPECT_THROW(w.run([](Rank&) {}), UsageError);
}

TEST(WorldTest, RankExceptionSurfaces) {
  World w(small_world(2));
  EXPECT_THROW(w.run([](Rank& r) {
    if (r.id() == 1) throw std::runtime_error("rank 1 died");
  }),
               std::runtime_error);
}

TEST(WorldTest, HeterogeneousNodeOverrides) {
  WorldConfig cfg = small_world(3);
  memsim::DomainConfig sx;
  sx.coherence = memsim::Coherence::noncoherent_writethrough;
  sx.endian = Endian::big;
  cfg.node_overrides[2] = sx;
  World w(cfg);
  w.run([&](Rank& r) {
    if (r.id() == 2) {
      EXPECT_EQ(r.memory().config().endian, Endian::big);
      EXPECT_EQ(r.memory().config().coherence,
                memsim::Coherence::noncoherent_writethrough);
    } else {
      EXPECT_EQ(r.memory().config().coherence, memsim::Coherence::coherent);
    }
  });
}

TEST(WorldTest, AllocReturnsWritableDomainMemory) {
  World w(small_world(1));
  w.run([](Rank& r) {
    auto buf = r.alloc(128);
    ASSERT_NE(buf.data, nullptr);
    std::memset(buf.data, 0x42, 128);
    std::vector<std::byte> out(128);
    r.memory().cpu_read(buf.addr, out);
    EXPECT_EQ(out[0], std::byte{0x42});
    EXPECT_EQ(out[127], std::byte{0x42});
    r.free(buf);
  });
}

// ------------------------------------------------------------------- p2p

TEST(P2pTest, SendRecvRoundTrip) {
  World w(small_world(2));
  w.run([](Rank& r) {
    if (r.id() == 0) {
      r.comm_world().send(1, 5, as_bytes("hello"));
    } else {
      Message m = r.comm_world().recv(0, 5);
      EXPECT_EQ(to_string(m.data), "hello");
      EXPECT_EQ(m.src, 0);
    }
  });
}

TEST(P2pTest, TagSelectsAmongPendingMessages) {
  World w(small_world(2));
  w.run([](Rank& r) {
    if (r.id() == 0) {
      r.comm_world().send(1, 1, as_bytes("one"));
      r.comm_world().send(1, 2, as_bytes("two"));
    } else {
      // Receive out of order by tag.
      EXPECT_EQ(to_string(r.comm_world().recv(0, 2).data), "two");
      EXPECT_EQ(to_string(r.comm_world().recv(0, 1).data), "one");
    }
  });
}

TEST(P2pTest, AnySourceReceivesFromEveryone) {
  World w(small_world(5));
  w.run([](Rank& r) {
    if (r.id() == 0) {
      std::set<int> sources;
      for (int i = 0; i < 4; ++i) {
        Message m = r.comm_world().recv(kAnySource, 3);
        sources.insert(m.src);
      }
      EXPECT_EQ(sources.size(), 4u);
    } else {
      r.comm_world().send(0, 3, as_bytes("x"));
    }
  });
}

TEST(P2pTest, SendToSelfWorks) {
  World w(small_world(1));
  w.run([](Rank& r) {
    r.comm_world().send(0, 1, as_bytes("self"));
    EXPECT_EQ(to_string(r.comm_world().recv(0, 1).data), "self");
  });
}

TEST(P2pTest, RecvBlocksUntilMessageArrives) {
  World w(small_world(2));
  w.run([](Rank& r) {
    if (r.id() == 0) {
      r.ctx().delay(50000);
      r.comm_world().send(1, 1, as_bytes("late"));
    } else {
      const sim::Time t0 = r.ctx().now();
      (void)r.comm_world().recv(0, 1);
      EXPECT_GE(r.ctx().now() - t0, 50000u);
    }
  });
}

TEST(P2pTest, TypedHelpersRoundTrip) {
  World w(small_world(2));
  w.run([](Rank& r) {
    if (r.id() == 0) {
      r.comm_world().send_value<std::uint64_t>(1, 9, 0xdeadbeefULL);
    } else {
      EXPECT_EQ(r.comm_world().recv_value<std::uint64_t>(0, 9),
                0xdeadbeefULL);
    }
  });
}

// ------------------------------------------------------------ collectives

TEST(CollectivesTest, BarrierSynchronizes) {
  World w(small_world(8));
  w.run([](Rank& r) {
    // Ranks arrive at wildly different times; all must leave after the
    // latest arrival.
    r.ctx().delay(static_cast<sim::Time>(r.id()) * 10000);
    r.comm_world().barrier();
    EXPECT_GE(r.ctx().now(), 7u * 10000u);
  });
}

TEST(CollectivesTest, BcastFromEveryRoot) {
  for (int root = 0; root < 4; ++root) {
    World w(small_world(4));
    w.run([root](Rank& r) {
      std::vector<std::byte> data;
      if (r.comm_world().rank() == root) {
        const std::string s = "root" + std::to_string(root);
        data.assign(reinterpret_cast<const std::byte*>(s.data()),
                    reinterpret_cast<const std::byte*>(s.data()) + s.size());
      }
      r.comm_world().bcast(data, root);
      EXPECT_EQ(to_string(data), "root" + std::to_string(root));
    });
  }
}

TEST(CollectivesTest, GatherCollectsInRankOrder) {
  World w(small_world(5));
  w.run([](Rank& r) {
    const std::string mine = "r" + std::to_string(r.id());
    auto parts = r.comm_world().gather(as_bytes(mine), 2);
    if (r.id() == 2) {
      ASSERT_EQ(parts.size(), 5u);
      for (int i = 0; i < 5; ++i) {
        EXPECT_EQ(to_string(parts[static_cast<std::size_t>(i)]),
                  "r" + std::to_string(i));
      }
    } else {
      EXPECT_TRUE(parts.empty());
    }
  });
}

TEST(CollectivesTest, AllgatherGivesEveryoneEverything) {
  World w(small_world(4));
  w.run([](Rank& r) {
    const std::string mine(static_cast<std::size_t>(r.id() + 1), 'a');
    auto parts = r.comm_world().allgather(as_bytes(mine));
    ASSERT_EQ(parts.size(), 4u);
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(parts[static_cast<std::size_t>(i)].size(),
                static_cast<std::size_t>(i + 1));
    }
  });
}

TEST(CollectivesTest, AllreduceSum) {
  World w(small_world(6));
  w.run([](Rank& r) {
    const auto v = static_cast<std::uint64_t>(r.id() + 1);
    EXPECT_EQ(r.comm_world().allreduce_sum(v), 21u);
  });
}

TEST(CollectivesTest, ConsecutiveCollectivesDoNotCrossTalk) {
  World w(small_world(4));
  w.run([](Rank& r) {
    for (int iter = 0; iter < 10; ++iter) {
      EXPECT_EQ(r.comm_world().allreduce_sum(1), 4u);
      r.comm_world().barrier();
    }
  });
}

TEST(CollectivesTest, ReduceSumToEachRoot) {
  World w(small_world(5));
  w.run([](Rank& r) {
    for (int root = 0; root < 5; ++root) {
      const auto v = static_cast<std::uint64_t>(r.id() + 1);
      const std::uint64_t got = r.comm_world().reduce_sum(v, root);
      if (r.id() == root) {
        EXPECT_EQ(got, 15u);
      } else {
        EXPECT_EQ(got, 0u);
      }
    }
  });
}

// ------------------------------------------------------------------ split

TEST(CommTest, SameGroupSplitIsolatesTagSpace) {
  // split(0, rank) keeps the group and takes a fresh context id.
  World w(small_world(2));
  w.run([](Rank& r) {
    auto dup = r.comm_world().split(0, r.id());
    if (r.id() == 0) {
      r.comm_world().send(1, 7, as_bytes("world"));
      dup->send(1, 7, as_bytes("dup"));
    } else {
      // Receive from the dup first: the tag spaces must not collide.
      EXPECT_EQ(to_string(dup->recv(0, 7).data), "dup");
      EXPECT_EQ(to_string(r.comm_world().recv(0, 7).data), "world");
    }
  });
}

TEST(CommTest, SplitByParity) {
  World w(small_world(6));
  w.run([](Rank& r) {
    auto sub = r.comm_world().split(r.id() % 2, r.id());
    ASSERT_NE(sub, nullptr);
    EXPECT_EQ(sub->size(), 3);
    EXPECT_EQ(sub->rank(), r.id() / 2);
    EXPECT_EQ(sub->to_world(sub->rank()), r.id());
    // Collectives work within the split.
    EXPECT_EQ(sub->allreduce_sum(1), 3u);
  });
}

TEST(CommTest, SplitNegativeColorGetsNoComm) {
  World w(small_world(4));
  w.run([](Rank& r) {
    auto sub = r.comm_world().split(r.id() == 0 ? -1 : 0, 0);
    if (r.id() == 0) {
      EXPECT_EQ(sub, nullptr);
    } else {
      ASSERT_NE(sub, nullptr);
      EXPECT_EQ(sub->size(), 3);
    }
  });
}

TEST(CommTest, SplitKeyOrdersRanks) {
  World w(small_world(4));
  w.run([](Rank& r) {
    // Reverse the order via keys.
    auto sub = r.comm_world().split(0, -r.id());
    ASSERT_NE(sub, nullptr);
    EXPECT_EQ(sub->rank(), 3 - r.id());
  });
}

TEST(CommTest, OutOfRangeRankRejected) {
  World w(small_world(2));
  w.run([](Rank& r) {
    EXPECT_THROW(r.comm_world().send(5, 1, {}), UsageError);
    EXPECT_THROW(r.comm_world().to_world(-1), UsageError);
  });
}

// --------------------------------------------------------------- timing

TEST(TimingTest, RemoteExchangeTakesWireTime) {
  World w(small_world(2));
  w.run([](Rank& r) {
    if (r.id() == 0) {
      r.comm_world().send(1, 1, as_bytes("ping"));
      (void)r.comm_world().recv(1, 2);
      EXPECT_GE(r.ctx().now(), 2 * r.world().config().costs.latency_ns);
    } else {
      (void)r.comm_world().recv(0, 1);
      r.comm_world().send(0, 2, as_bytes("pong"));
    }
  });
}

TEST(TimingTest, DeterministicAcrossRuns) {
  auto run_once = [] {
    World w(small_world(4));
    w.run([](Rank& r) {
      for (int i = 0; i < 3; ++i) r.comm_world().barrier();
      (void)r.comm_world().allreduce_sum(1);
    });
    return w.duration();
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace m3rma::runtime
