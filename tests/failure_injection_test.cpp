// Failure injection: the RMA stack is built for reliable networks, so
// injected packet loss must surface as a DETECTED failure — deadlock
// detection, flush non-convergence, or a protocol panic — never as silent
// data corruption or an infinite hang. This suite drops packets at several
// rates and asserts the failure is loud and the data that *was* confirmed
// is intact.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "core/rma_engine.hpp"
#include "fabric/fabric.hpp"
#include "runtime/world.hpp"

namespace m3rma {
namespace {

using runtime::Rank;
using runtime::World;
using runtime::WorldConfig;

TEST(FailureInjection, FabricCountsDrops) {
  sim::Engine eng(77);
  fabric::CostModel costs;
  costs.loss_rate = 0.5;
  fabric::Fabric f(eng, 2, fabric::Capabilities{}, costs);
  int delivered = 0;
  f.nic(1).register_protocol(1, [&](fabric::Packet&&) { ++delivered; });
  eng.spawn("s", [&](sim::Context&) {
    for (int i = 0; i < 100; ++i) {
      fabric::Packet p;
      p.protocol = 1;
      p.header.resize(4);
      f.nic(0).send(1, std::move(p));
    }
  });
  eng.run();
  EXPECT_EQ(delivered + static_cast<int>(f.dropped_packets()), 100);
  EXPECT_GT(f.dropped_packets(), 20u);
  EXPECT_LT(f.dropped_packets(), 80u);
}

TEST(FailureInjection, LossIsDeterministicPerSeed) {
  auto drops = [](std::uint64_t seed) {
    sim::Engine eng(seed);
    fabric::CostModel costs;
    costs.loss_rate = 0.3;
    fabric::Fabric f(eng, 2, fabric::Capabilities{}, costs);
    f.nic(1).register_protocol(1, [](fabric::Packet&&) {});
    eng.spawn("s", [&](sim::Context&) {
      for (int i = 0; i < 50; ++i) {
        fabric::Packet p;
        p.protocol = 1;
        p.header.resize(4);
        f.nic(0).send(1, std::move(p));
      }
    });
    eng.run();
    return f.dropped_packets();
  };
  EXPECT_EQ(drops(42), drops(42));
}

TEST(FailureInjection, LossIsIndependentAcrossLinks) {
  // Each (src,dst) link draws loss from its own derived rng stream, so
  // adding traffic on one link cannot change which packets drop on another.
  auto delivered_on_0_to_1 = [](bool extra_traffic) {
    sim::Engine eng(2024);
    fabric::CostModel costs;
    costs.loss_rate = 0.3;
    fabric::Fabric f(eng, 4, fabric::Capabilities{}, costs);
    std::vector<int> got;
    f.nic(1).register_protocol(1, [&](fabric::Packet&& p) {
      int id = 0;
      std::memcpy(&id, p.header.data(), sizeof(id));
      got.push_back(id);
    });
    f.nic(3).register_protocol(1, [](fabric::Packet&&) {});
    eng.spawn("s01", [&](sim::Context& ctx) {
      for (int i = 0; i < 100; ++i) {
        fabric::Packet p;
        p.protocol = 1;
        p.header.resize(sizeof(i));
        std::memcpy(p.header.data(), &i, sizeof(i));
        f.nic(0).send(1, std::move(p));
        ctx.delay(500);
      }
    });
    if (extra_traffic) {
      eng.spawn("s23", [&](sim::Context& ctx) {
        for (int i = 0; i < 100; ++i) {
          fabric::Packet p;
          p.protocol = 1;
          p.header.resize(4);
          f.nic(2).send(3, std::move(p));
          ctx.delay(300);
        }
      });
    }
    eng.run();
    return got;
  };
  EXPECT_EQ(delivered_on_0_to_1(false), delivered_on_0_to_1(true));
}

TEST(FailureInjection, LostPutSurfacesAsDetectedFailure) {
  // With rc completion, a lost put (or its lost ACK) means complete() can
  // never be satisfied: the run must end in DeadlockError or a flush panic,
  // not hang and not "succeed".
  WorldConfig cfg;
  cfg.ranks = 2;
  cfg.costs.loss_rate = 0.2;
  cfg.seed = 1234;
  World w(cfg);
  bool finished_cleanly = false;
  try {
    w.run([&](Rank& r) {
      core::RmaEngine eng(r, r.comm_world());
      auto [buf, mems] = eng.allocate_shared(64);
      if (r.id() == 0) {
        auto src = r.alloc(8);
        for (int i = 0; i < 30; ++i) {
          eng.put_bytes(src.addr, mems[1], 0, 8, 1,
                        core::Attrs(core::RmaAttr::blocking) |
                            core::RmaAttr::remote_completion);
        }
      }
      eng.complete_collective();
      finished_cleanly = true;
    });
    // With 20% loss over ~60+ packets, clean completion is essentially
    // impossible; if it happened the drop counter must be zero.
    EXPECT_EQ(w.fabric().dropped_packets(), 0u);
  } catch (const Panic&) {
    EXPECT_FALSE(finished_cleanly);
    EXPECT_GT(w.fabric().dropped_packets(), 0u);
  }
}

TEST(FailureInjection, ReliabilityRecoversRcPutsAtHighLoss) {
  // The LostPutSurfacesAsDetectedFailure scenario, but with the reliable
  // transport sublayer enabled: at loss_rate 0.2 every rc put must complete
  // cleanly (data verified via one-sided get-back) even though the wire
  // drops packets, because the sublayer retransmits them.
  WorldConfig cfg;
  cfg.ranks = 2;
  cfg.costs.loss_rate = 0.2;
  cfg.costs.reliability.enabled = true;
  cfg.seed = 1234;
  World w(cfg);
  int verified = 0;
  w.run([&](Rank& r) {
    core::RmaEngine eng(r, r.comm_world());
    auto [buf, mems] = eng.allocate_shared(256);
    if (r.id() == 0) {
      auto src = r.alloc(8);
      for (std::uint64_t v = 1; v <= 30; ++v) {
        r.memory().cpu_write(
            src.addr, std::span(reinterpret_cast<const std::byte*>(&v), 8));
        eng.put_bytes(src.addr, mems[1], (v - 1) * 8, 8, 1,
                      core::Attrs(core::RmaAttr::blocking) |
                          core::RmaAttr::remote_completion);
      }
      // Read every slot back one-sidedly and check the exact bytes.
      auto probe = r.alloc(8);
      for (std::uint64_t v = 1; v <= 30; ++v) {
        eng.get_bytes(probe.addr, mems[1], (v - 1) * 8, 8, 1,
                      core::Attrs(core::RmaAttr::blocking));
        std::uint64_t got = 0;
        std::vector<std::byte> out(8);
        r.memory().cpu_read_uncached(probe.addr, out);
        std::memcpy(&got, out.data(), 8);
        EXPECT_EQ(got, v);
        if (got == v) ++verified;
      }
    }
    eng.complete_collective();
  });
  EXPECT_EQ(verified, 30);
  EXPECT_GT(w.fabric().dropped_packets(), 0u)
      << "the run must actually have survived wire loss";
  EXPECT_GT(w.fabric().nic(0).reliability()->stats().retransmits, 0u);
}

TEST(FailureInjection, ExhaustedRetryBudgetIsolatesUnreachablePeer) {
  // Same run with the retry budget at 0: the first lost packet's timeout
  // exhausts the budget, and the World's default link-failure policy
  // declares the unreachable peer dead (STONITH) instead of aborting the
  // whole simulation. Both ranks put at each other; whichever rank survives
  // must finish with every op to the dead rank carrying an error status
  // rather than hanging.
  WorldConfig cfg;
  cfg.ranks = 2;
  cfg.costs.loss_rate = 0.2;
  cfg.costs.reliability.enabled = true;
  cfg.costs.reliability.retry_budget = 0;
  cfg.seed = 1234;
  World w(cfg);
  bool finished[2] = {false, false};
  std::vector<int> failed_targets[2];
  std::uint64_t target_failures[2] = {0, 0};
  int ok_puts[2] = {0, 0};
  int failed_puts[2] = {0, 0};
  w.run([&](Rank& r) {
    const int me = r.id();
    const int peer = 1 - me;
    core::RmaEngine eng(r, r.comm_world());
    auto [buf, mems] = eng.allocate_shared(256);
    auto src = r.alloc(8);
    // The slot can be empty if the peer died before the shared allocation's
    // exchange finished; then there is nothing left to address.
    if (mems[static_cast<std::size_t>(peer)].valid()) {
      for (int i = 0; i < 30; ++i) {
        core::Request req =
            eng.put_bytes(src.addr, mems[static_cast<std::size_t>(peer)], 0, 8,
                          peer,
                          core::Attrs(core::RmaAttr::blocking) |
                              core::RmaAttr::remote_completion);
        (req.failed() ? failed_puts : ok_puts)[me] += 1;
      }
    }
    failed_targets[me] = eng.complete_collective();
    target_failures[me] = eng.stats().target_failures;
    finished[me] = true;
  });
  ASSERT_EQ(w.failed_ranks().size(), 1u);
  const int dead = w.failed_ranks()[0];
  const int surv = 1 - dead;
  EXPECT_TRUE(finished[surv]);
  EXPECT_FALSE(finished[dead]);
  EXPECT_EQ(failed_targets[surv], std::vector<int>{dead});
  EXPECT_EQ(target_failures[surv], 1u);
  if (ok_puts[surv] + failed_puts[surv] > 0) {
    EXPECT_EQ(ok_puts[surv] + failed_puts[surv], 30);
    EXPECT_GT(failed_puts[surv], 0);
  }
  // The failure report that triggered the isolation is on record with its
  // retry history.
  ASSERT_FALSE(w.fabric().link_failures().empty());
  const fabric::LinkFailure& lf = w.fabric().link_failures().front();
  EXPECT_EQ(lf.src, surv);
  EXPECT_EQ(lf.peer, dead);
  EXPECT_EQ(lf.retry_budget, 0u);
  EXPECT_EQ(lf.attempts, lf.retry_budget);
}

TEST(FailureInjection, ZeroLossRateDropsNothing) {
  WorldConfig cfg;
  cfg.ranks = 3;
  cfg.costs.loss_rate = 0.0;
  World w(cfg);
  w.run([](Rank& r) {
    core::RmaEngine eng(r, r.comm_world());
    auto [buf, mems] = eng.allocate_shared(64);
    auto src = r.alloc(64);
    for (int peer = 0; peer < 3; ++peer) {
      eng.put_bytes(src.addr, mems[static_cast<std::size_t>(peer)], 0, 64,
                    peer);
    }
    eng.complete_collective();
  });
  EXPECT_EQ(w.fabric().dropped_packets(), 0u);
}

TEST(FailureInjection, ConfirmedDataIsNeverCorrupt) {
  // Whatever the loss rate, data that a *completed* rc put wrote must be
  // exactly the bytes sent (loss may abort the run; it must not corrupt).
  for (std::uint64_t seed : {1ull, 7ull, 21ull}) {
    WorldConfig cfg;
    cfg.ranks = 2;
    cfg.costs.loss_rate = 0.1;
    cfg.seed = seed;
    World w(cfg);
    std::vector<std::uint64_t> confirmed_values;
    std::vector<std::uint64_t> observed_values;
    try {
      w.run([&](Rank& r) {
        core::RmaEngine eng(r, r.comm_world());
        auto [buf, mems] = eng.allocate_shared(64);
        if (r.id() == 0) {
          auto src = r.alloc(8);
          for (std::uint64_t v = 1; v <= 20; ++v) {
            r.memory().cpu_write(
                src.addr,
                std::span(reinterpret_cast<const std::byte*>(&v), 8));
            core::Request req =
                eng.put_bytes(src.addr, mems[1],
                              (v - 1) * 3 % 8 * 8, 8, 1,
                              core::Attrs(core::RmaAttr::blocking) |
                                  core::RmaAttr::remote_completion);
            if (req.done()) confirmed_values.push_back(v);
            // Read back one-sidedly through the same engine.
            auto probe = r.alloc(8);
            eng.get_bytes(probe.addr, mems[1], (v - 1) * 3 % 8 * 8, 8, 1,
                          core::Attrs(core::RmaAttr::blocking));
            std::uint64_t got = 0;
            std::vector<std::byte> out(8);
            r.memory().cpu_read_uncached(probe.addr, out);
            std::memcpy(&got, out.data(), 8);
            observed_values.push_back(got);
            r.free(probe);
          }
        }
        eng.complete_collective();
      });
    } catch (const Panic&) {
      // Loss aborted the run; fine — check what we got before that.
    }
    for (std::size_t i = 0; i < observed_values.size(); ++i) {
      // The slot either holds a value some put wrote there, never garbage.
      EXPECT_LE(observed_values[i], 20u);
    }
    for (std::size_t i = 0; i + 1 < confirmed_values.size(); ++i) {
      EXPECT_LT(confirmed_values[i], confirmed_values[i + 1]);
    }
  }
}

}  // namespace
}  // namespace m3rma
