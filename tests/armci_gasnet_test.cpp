#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <vector>

#include "armci/armci.hpp"
#include "gasnet/gasnet.hpp"
#include "runtime/world.hpp"

namespace m3rma {
namespace {

using runtime::Rank;
using runtime::World;
using runtime::WorldConfig;

WorldConfig wcfg(int ranks) {
  WorldConfig c;
  c.ranks = ranks;
  return c;
}

template <class T>
void store(Rank& r, std::uint64_t addr, const std::vector<T>& vals) {
  r.memory().cpu_write(addr,
                       std::span(reinterpret_cast<const std::byte*>(
                                     vals.data()),
                                 vals.size() * sizeof(T)));
}

template <class T>
std::vector<T> load(Rank& r, std::uint64_t addr, std::size_t n) {
  std::vector<T> out(n);
  r.memory().cpu_read_uncached(
      addr, std::span(reinterpret_cast<std::byte*>(out.data()),
                      n * sizeof(T)));
  return out;
}

// -------------------------------------------------------------------- ARMCI

TEST(ArmciTest, BlockingPutGetRoundTrip) {
  World w(wcfg(2));
  w.run([](Rank& r) {
    armci::Armci a(r, r.comm_world());
    a.malloc_shared(256);
    a.barrier();
    if (r.id() == 0) {
      auto src = r.alloc(64);
      store(r, src.addr, std::vector<std::uint64_t>(8, 0xAA));
      a.put(src.addr, 1, 0, 64);
      auto dst = r.alloc(64);
      a.get(dst.addr, 1, 0, 64);
      EXPECT_EQ(load<std::uint64_t>(r, dst.addr, 8),
                std::vector<std::uint64_t>(8, 0xAA));
    }
    a.barrier();
  });
}

TEST(ArmciTest, AccIsDaxpyAndSerialized) {
  World w(wcfg(4));
  w.run([](Rank& r) {
    armci::Armci a(r, r.comm_world());
    a.malloc_shared(64);
    if (r.id() == 0) {
      std::vector<double> init(8, 1.0);
      store(r, a.local_base(), init);
    }
    a.barrier();
    auto src = r.alloc(64);
    store(r, src.addr, std::vector<double>(8, 2.0));
    // Every rank: y += 0.5 * x  (adds 1.0 per rank per element).
    a.acc(0.5, src.addr, 0, 0, 8);
    a.all_fence();
    a.barrier();
    if (r.id() == 0) {
      auto got = load<double>(r, a.local_base(), 8);
      EXPECT_EQ(got, std::vector<double>(8, 1.0 + 4 * 1.0));
    }
    a.barrier();
  });
}

TEST(ArmciTest, StridedPutPlacesBlocks) {
  World w(wcfg(2));
  w.run([](Rank& r) {
    armci::Armci a(r, r.comm_world());
    a.malloc_shared(512);
    if (r.id() == 1) {
      store(r, a.local_base(), std::vector<std::uint8_t>(512, 0));
    }
    a.barrier();
    if (r.id() == 0) {
      auto src = r.alloc(256);
      store(r, src.addr, std::vector<std::uint8_t>(256, 7));
      // 4 blocks of 16 bytes, source packed (stride 16), dest stride 64.
      a.put_strided(src.addr, 16, 1, 0, 64, 16, 4);
    }
    a.barrier();
    a.all_fence();
    a.barrier();
    if (r.id() == 1) {
      auto got = load<std::uint8_t>(r, a.local_base(), 256);
      EXPECT_EQ(got[0], 7);
      EXPECT_EQ(got[15], 7);
      EXPECT_EQ(got[16], 0);
      EXPECT_EQ(got[64], 7);
      EXPECT_EQ(got[192], 7);
    }
    a.barrier();
  });
}

TEST(ArmciTest, StridedGetGathersBlocks) {
  World w(wcfg(2));
  w.run([](Rank& r) {
    armci::Armci a(r, r.comm_world());
    a.malloc_shared(512);
    if (r.id() == 1) {
      std::vector<std::uint8_t> v(512);
      std::iota(v.begin(), v.end(), std::uint8_t{0});
      store(r, a.local_base(), v);
    }
    a.barrier();
    if (r.id() == 0) {
      auto dst = r.alloc(256);
      store(r, dst.addr, std::vector<std::uint8_t>(256, 0xee));
      // 4 blocks of 16 bytes from remote stride 64 into local stride 32.
      a.get_strided(dst.addr, 32, 1, 8, 64, 16, 4);
      auto got = load<std::uint8_t>(r, dst.addr, 128);
      for (int b = 0; b < 4; ++b) {
        for (int i = 0; i < 16; ++i) {
          EXPECT_EQ(got[static_cast<std::size_t>(32 * b + i)], 8 + 64 * b + i);
        }
        EXPECT_EQ(got[static_cast<std::size_t>(32 * b + 16)], 0xee);
      }
    }
    a.barrier();
  });
}

TEST(ArmciTest, VectorPutScattersPairs) {
  World w(wcfg(2));
  w.run([](Rank& r) {
    armci::Armci a(r, r.comm_world());
    a.malloc_shared(512);
    if (r.id() == 1) {
      store(r, a.local_base(), std::vector<std::uint8_t>(512, 0));
    }
    a.barrier();
    if (r.id() == 0) {
      auto s1 = r.alloc(16);
      auto s2 = r.alloc(16);
      store(r, s1.addr, std::vector<std::uint64_t>{0x11, 0x11});
      store(r, s2.addr, std::vector<std::uint64_t>{0x22, 0x22});
      std::vector<std::pair<std::uint64_t, std::uint64_t>> pairs{
          {s1.addr, 0}, {s2.addr, 256}};
      a.put_v(pairs, 16, 1);
      a.fence(1);
      // Gather them back with get_v in swapped order.
      auto d1 = r.alloc(16);
      auto d2 = r.alloc(16);
      std::vector<std::pair<std::uint64_t, std::uint64_t>> gp{
          {d1.addr, 256}, {d2.addr, 0}};
      a.get_v(gp, 16, 1);
      EXPECT_EQ(load<std::uint64_t>(r, d1.addr, 1)[0], 0x22u);
      EXPECT_EQ(load<std::uint64_t>(r, d2.addr, 1)[0], 0x11u);
    }
    a.barrier();
  });
}

TEST(ArmciTest, NonBlockingHandlesSync) {
  World w(wcfg(2));
  w.run([](Rank& r) {
    armci::Armci a(r, r.comm_world());
    a.malloc_shared(128);
    a.barrier();
    if (r.id() == 0) {
      auto src = r.alloc(128);
      store(r, src.addr, std::vector<std::uint64_t>(16, 3));
      auto h = a.nb_put(src.addr, 1, 0, 128);
      a.wait(h);
      a.fence(1);
      auto dst = r.alloc(128);
      auto g = a.nb_get(dst.addr, 1, 0, 128);
      a.wait(g);
      EXPECT_EQ(load<std::uint64_t>(r, dst.addr, 16),
                std::vector<std::uint64_t>(16, 3));
    }
    a.barrier();
  });
}

TEST(ArmciTest, FencePerTargetCompletes) {
  World w(wcfg(3));
  w.run([](Rank& r) {
    armci::Armci a(r, r.comm_world());
    a.malloc_shared(64);
    a.barrier();
    if (r.id() == 0) {
      auto src = r.alloc(8);
      store(r, src.addr, std::vector<std::uint64_t>{1});
      auto h = a.nb_put(src.addr, 1, 0, 8);
      a.fence(1);
      EXPECT_EQ(a.engine().outstanding(1), 0u);
      a.wait(h);
    }
    a.barrier();
  });
}

// ------------------------------------------------------------------- GASNet

TEST(GasnetTest, ShortAmRunsHandler) {
  World w(wcfg(2));
  w.run([](Rank& r) {
    gasnet::Gasnet gn(r, r.comm_world());
    std::uint64_t seen = 0;
    gn.register_handler([&](gasnet::Token&, std::span<const std::byte>,
                            std::uint64_t a0, std::uint64_t a1) {
      seen = a0 + a1;
    });
    r.comm_world().barrier();
    if (r.id() == 0) gn.am_short(1, 0, 40, 2);
    r.comm_world().barrier();
    if (r.id() == 1) {
      EXPECT_EQ(seen, 42u);
      EXPECT_EQ(gn.am_requests_received(), 1u);
    }
    r.comm_world().barrier();
  });
}

TEST(GasnetTest, MediumAmCarriesPayload) {
  World w(wcfg(2));
  w.run([](Rank& r) {
    gasnet::Gasnet gn(r, r.comm_world());
    std::vector<std::byte> got;
    gn.register_handler([&](gasnet::Token&, std::span<const std::byte> pl,
                            std::uint64_t, std::uint64_t) {
      got.assign(pl.begin(), pl.end());
    });
    r.comm_world().barrier();
    if (r.id() == 0) {
      std::vector<std::byte> data(100, std::byte{0x61});
      gn.am_medium(1, 0, data);
    }
    r.comm_world().barrier();
    if (r.id() == 1) {
      EXPECT_EQ(got.size(), 100u);
      EXPECT_EQ(got[0], std::byte{0x61});
    }
    r.comm_world().barrier();
  });
}

TEST(GasnetTest, MediumAmSizeCapEnforced) {
  World w(wcfg(2));
  w.run([](Rank& r) {
    gasnet::Gasnet gn(r, r.comm_world());
    gn.register_handler([](gasnet::Token&, std::span<const std::byte>,
                           std::uint64_t, std::uint64_t) {});
    r.comm_world().barrier();
    if (r.id() == 0) {
      std::vector<std::byte> data(gasnet::kMaxMedium + 1);
      EXPECT_THROW(gn.am_medium(1, 0, data), UsageError);
    }
    r.comm_world().barrier();
  });
}

TEST(GasnetTest, LongAmDepositsIntoSegment) {
  World w(wcfg(2));
  w.run([](Rank& r) {
    gasnet::Gasnet gn(r, r.comm_world());
    std::uint64_t handler_len = 0;
    gn.register_handler([&](gasnet::Token&, std::span<const std::byte> pl,
                            std::uint64_t, std::uint64_t) {
      handler_len = pl.size();
    });
    auto seg = r.alloc(1024);
    gn.attach_segment(seg.addr, seg.size);
    r.comm_world().barrier();
    if (r.id() == 0) {
      std::vector<std::byte> data(64, std::byte{0x5f});
      gn.am_long(1, 0, data, 128);
    }
    r.comm_world().barrier();
    if (r.id() == 1) {
      EXPECT_EQ(handler_len, 64u);
      EXPECT_EQ(load<std::uint8_t>(r, seg.addr + 128, 1)[0], 0x5f);
    }
    r.comm_world().barrier();
  });
}

TEST(GasnetTest, ReplyFromHandler) {
  World w(wcfg(2));
  w.run([](Rank& r) {
    gasnet::Gasnet gn(r, r.comm_world());
    std::uint64_t reply_val = 0;
    // Handler 0: request — replies with a0*2 via handler 1.
    gn.register_handler([&gn](gasnet::Token& tok, std::span<const std::byte>,
                              std::uint64_t a0, std::uint64_t) {
      gn.reply_short(tok, 1, a0 * 2);
    });
    gn.register_handler([&](gasnet::Token&, std::span<const std::byte>,
                            std::uint64_t a0,
                            std::uint64_t) { reply_val = a0; });
    r.comm_world().barrier();
    if (r.id() == 0) {
      gn.am_short(1, 0, 21);
      // Wait for the reply to land.
      r.ctx().delay(200000);
      EXPECT_EQ(reply_val, 42u);
    }
    r.comm_world().barrier();
  });
}

TEST(GasnetTest, MediumReplyCarriesPayloadBack) {
  World w(wcfg(2));
  w.run([](Rank& r) {
    gasnet::Gasnet gn(r, r.comm_world());
    std::vector<std::byte> echoed;
    std::uint64_t echoed_a0 = 0, echoed_a1 = 0;
    // Handler 0: request — echoes the payload reversed via handler 1.
    gn.register_handler([&gn](gasnet::Token& tok,
                              std::span<const std::byte> pl,
                              std::uint64_t a0, std::uint64_t a1) {
      std::vector<std::byte> back(pl.rbegin(), pl.rend());
      gn.reply_medium(tok, 1, back, a0 + 1, a1 + 1);
    });
    gn.register_handler([&](gasnet::Token& tok, std::span<const std::byte> pl,
                            std::uint64_t a0, std::uint64_t a1) {
      EXPECT_EQ(tok.source(), 1);
      echoed.assign(pl.begin(), pl.end());
      echoed_a0 = a0;
      echoed_a1 = a1;
    });
    r.comm_world().barrier();
    if (r.id() == 0) {
      std::vector<std::byte> data(48);
      for (std::size_t i = 0; i < data.size(); ++i) {
        data[i] = static_cast<std::byte>(i);
      }
      gn.am_medium(1, 0, data, 7, 9);
      r.ctx().delay(200000);
      ASSERT_EQ(echoed.size(), data.size());
      for (std::size_t i = 0; i < data.size(); ++i) {
        EXPECT_EQ(echoed[i], data[data.size() - 1 - i]);
      }
      EXPECT_EQ(echoed_a0, 8u);
      EXPECT_EQ(echoed_a1, 10u);
    }
    r.comm_world().barrier();
  });
}

TEST(GasnetTest, DoubleReplyRejected) {
  World w(wcfg(2));
  EXPECT_THROW(
      w.run([](Rank& r) {
        gasnet::Gasnet gn(r, r.comm_world());
        gn.register_handler([&gn](gasnet::Token& tok,
                                  std::span<const std::byte>, std::uint64_t,
                                  std::uint64_t) {
          gn.reply_short(tok, 0);
          gn.reply_short(tok, 0);  // erroneous second reply
        });
        r.comm_world().barrier();
        if (r.id() == 0) gn.am_short(1, 0);
        r.ctx().delay(300000);
        r.comm_world().barrier();
      }),
      UsageError);
}

TEST(GasnetTest, ExtendedPutGet) {
  World w(wcfg(2));
  w.run([](Rank& r) {
    gasnet::Gasnet gn(r, r.comm_world());
    auto seg = r.alloc(512);
    store(r, seg.addr, std::vector<std::uint64_t>(64, 0));
    gn.attach_segment(seg.addr, seg.size);
    r.comm_world().barrier();
    if (r.id() == 0) {
      auto src = r.alloc(64);
      store(r, src.addr, std::vector<std::uint64_t>(8, 0x77));
      gn.put(1, 64, src.addr, 64);  // blocking: remotely complete on return
      auto dst = r.alloc(64);
      gn.get(dst.addr, 1, 64, 64);
      EXPECT_EQ(load<std::uint64_t>(r, dst.addr, 8),
                std::vector<std::uint64_t>(8, 0x77));
    }
    r.comm_world().barrier();
  });
}

TEST(GasnetTest, NonBlockingSync) {
  World w(wcfg(2));
  w.run([](Rank& r) {
    gasnet::Gasnet gn(r, r.comm_world());
    auto seg = r.alloc(4096);
    gn.attach_segment(seg.addr, seg.size);
    r.comm_world().barrier();
    if (r.id() == 0) {
      auto src = r.alloc(4096);
      std::vector<gasnet::Handle> hs;
      for (int i = 0; i < 8; ++i) {
        hs.push_back(gn.put_nb(1, static_cast<std::uint64_t>(i) * 512,
                               src.addr, 512));
      }
      for (auto& h : hs) gn.sync_nb(h);
      gn.sync_all();
    }
    r.comm_world().barrier();
  });
}

TEST(GasnetTest, SegmentBoundsEnforced) {
  World w(wcfg(2));
  w.run([](Rank& r) {
    gasnet::Gasnet gn(r, r.comm_world());
    auto seg = r.alloc(128);
    gn.attach_segment(seg.addr, seg.size);
    r.comm_world().barrier();
    if (r.id() == 0) {
      auto src = r.alloc(256);
      EXPECT_THROW(gn.put(1, 64, src.addr, 128), UsageError);
    }
    r.comm_world().barrier();
  });
}

// A PGAS-style usage pattern: GASNet has no accumulate, so a runtime must
// emulate it with AM round trips (the §VI comparison point).
TEST(GasnetTest, AccumulateMustBeEmulatedWithAms) {
  World w(wcfg(3));
  w.run([](Rank& r) {
    gasnet::Gasnet gn(r, r.comm_world());
    auto seg = r.alloc(8);
    store(r, seg.addr, std::vector<std::uint64_t>{0});
    gn.attach_segment(seg.addr, seg.size);
    std::uint64_t* counter = reinterpret_cast<std::uint64_t*>(seg.data);
    int acks = 0;
    // Handler 0: add a0 to the local counter, reply via handler 1.
    gn.register_handler([&](gasnet::Token& tok, std::span<const std::byte>,
                            std::uint64_t a0, std::uint64_t) {
      *counter += a0;
      gn.reply_short(tok, 1);
    });
    gn.register_handler([&](gasnet::Token&, std::span<const std::byte>,
                            std::uint64_t, std::uint64_t) { ++acks; });
    r.comm_world().barrier();
    if (r.id() != 0) {
      for (int i = 0; i < 10; ++i) gn.am_short(0, 0, 1);
      r.ctx().delay(500000);
      EXPECT_EQ(acks, 10);
    }
    r.comm_world().barrier();
    if (r.id() == 0) {
      EXPECT_EQ(*counter, 20u);
    }
    r.comm_world().barrier();
  });
}

}  // namespace
}  // namespace m3rma
