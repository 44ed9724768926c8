#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "datatype/datatype.hpp"
#include "fabric/fabric.hpp"
#include "memsim/memory_domain.hpp"
#include "portals/portals.hpp"
#include "simtime/engine.hpp"
#include "trace/attribution.hpp"
#include "trace/recorder.hpp"

namespace m3rma::portals {
namespace {

constexpr int kPt = 3;
constexpr std::uint64_t kMatch = 0xfeed;

/// The arguments of one notify sink call.
struct Fired {
  std::uint64_t match = 0;
  int initiator = -1;
  std::uint32_t tag = 0;
  std::uint64_t length = 0;
  std::uint64_t offset = 0;
};

/// A notify sink that appends each call to `out`.
Portals::NotifySink record_into(std::vector<Fired>& out) {
  return [&out](std::uint64_t match, int initiator, std::uint32_t tag,
                std::uint64_t length, std::uint64_t offset) {
    out.push_back(Fired{match, initiator, tag, length, offset});
  };
}

/// Two-node fixture: node 0 initiates, node 1 is the target.
class PortalsTest : public ::testing::Test {
 protected:
  void build(fabric::Capabilities caps = {},
             fabric::CostModel costs = {}) {
    fab.emplace(eng, 2, caps, costs);
    mem0.emplace(memsim::DomainConfig{});
    mem1.emplace(memsim::DomainConfig{});
    p0.emplace(fab->nic(0), *mem0);
    p1.emplace(fab->nic(1), *mem1);
  }

  sim::Engine eng{7};
  std::optional<fabric::Fabric> fab;
  std::optional<memsim::MemoryDomain> mem0, mem1;
  std::optional<Portals> p0, p1;
};

TEST_F(PortalsTest, PutWritesTargetMemory) {
  build();
  const auto src = mem0->alloc(64);
  const auto dst = mem1->alloc(64);
  EventQueue eq(eng);
  const auto md = p0->md_bind(src, 64, &eq);
  p1->me_append(kPt, kMatch, dst, 64);

  std::vector<std::byte> data(32, std::byte{0x5a});
  mem0->cpu_write(src, data);

  eng.spawn("origin", [&](sim::Context& ctx) {
    p0->put(ctx, md, 0, 32, 1, kPt, kMatch, 0, 42, true);
    // SEND event is immediate (local completion).
    Event s = eq.recv(ctx);
    EXPECT_EQ(s.type, EventType::send);
    // ACK arrives after the round trip.
    Event a = eq.recv(ctx);
    EXPECT_EQ(a.type, EventType::ack);
    EXPECT_EQ(a.user_ptr, 42u);
  });
  eng.run();

  std::vector<std::byte> got(32);
  mem1->cpu_read(dst, got);
  EXPECT_EQ(got, data);
}

TEST_F(PortalsTest, AtomicAppliesCountsAndAcks) {
  // The atomic twin of PutWritesTargetMemory: the op applies at the target
  // and counts as one matched data op from node 0, and the initiator gets
  // SEND then ACK.
  build();
  const auto src = mem0->alloc(16);
  const auto dst = mem1->alloc(16);
  EventQueue eq(eng);
  const auto md = p0->md_bind(src, 16, &eq);
  p1->me_append(kPt, kMatch, dst, 16);
  const std::int64_t add[2] = {3, 4};
  mem0->cpu_write(src, std::span(reinterpret_cast<const std::byte*>(add), 16));

  eng.spawn("origin", [&](sim::Context& ctx) {
    p0->atomic(ctx, AccOp::sum, NumType::i64, md, 0, 16, 1, kPt, kMatch, 0,
               42, /*want_ack=*/true);
    Event s = eq.recv(ctx);
    EXPECT_EQ(s.type, EventType::send);
    Event a = eq.recv(ctx);
    EXPECT_EQ(a.type, EventType::ack);
    EXPECT_EQ(a.initiator, 1);
    EXPECT_EQ(a.user_ptr, 42u);
    EXPECT_EQ(a.length, 16u);
  });
  eng.run();

  EXPECT_EQ(p1->received_data_ops(kPt, 0), 1u);
  std::int64_t got[2];
  mem1->cpu_read(dst, std::span(reinterpret_cast<std::byte*>(got), 16));
  EXPECT_EQ(got[0], 3);
  EXPECT_EQ(got[1], 4);
}

TEST_F(PortalsTest, DataOpsCountedPerPortalAndSource) {
  // received_data_ops counts matched puts and atomics per (portal, source);
  // gets and dropped messages do not count.
  build();
  const auto src = mem0->alloc(8);
  const auto dst = mem1->alloc(8);
  const auto md = p0->md_bind(src, 8, nullptr);
  p1->me_append(kPt, kMatch, dst, 8);
  eng.spawn("origin", [&](sim::Context& ctx) {
    p0->put(ctx, md, 0, 8, 1, kPt, kMatch, 0, 0, false);
    p0->atomic(ctx, AccOp::sum, NumType::i64, md, 0, 8, 1, kPt, kMatch, 0, 0,
               false);
    p0->get(ctx, md, 0, 8, 1, kPt, kMatch, 0, 0);
    p0->atomic(ctx, AccOp::sum, NumType::i64, md, 0, 8, 1, kPt + 1, kMatch,
               0, 0, false);  // no ME on this portal: dropped
  });
  eng.run();
  EXPECT_EQ(p1->received_data_ops(kPt, 0), 2u);
  EXPECT_EQ(p1->received_data_ops(kPt + 1, 0), 0u);
  EXPECT_EQ(p1->received_data_ops(kPt, 1), 0u);
  EXPECT_EQ(p1->dropped_messages(), 1u);
}

TEST_F(PortalsTest, SendEventModelsLocalDmaCompletion) {
  // Local (SEND) completion arrives local_completion_ns + serialization
  // after injection, not instantly.
  fabric::CostModel costs;
  costs.local_completion_ns = 5000;
  costs.bytes_per_ns = 1.0;
  fab.emplace(eng, 2, fabric::Capabilities{}, costs);
  mem0.emplace(memsim::DomainConfig{});
  mem1.emplace(memsim::DomainConfig{});
  p0.emplace(fab->nic(0), *mem0);
  p1.emplace(fab->nic(1), *mem1);
  const auto src = mem0->alloc(4096);
  const auto dst = mem1->alloc(4096);
  EventQueue eq(eng);
  const auto md = p0->md_bind(src, 4096, &eq);
  p1->me_append(kPt, kMatch, dst, 4096);
  eng.spawn("origin", [&](sim::Context& ctx) {
    const sim::Time t0 = ctx.now();
    p0->put(ctx, md, 0, 4000, 1, kPt, kMatch, 0, 0, false);
    Event s = eq.recv(ctx);
    EXPECT_EQ(s.type, EventType::send);
    // >= local_completion + 4000 B at 1 B/ns (after inject overhead).
    EXPECT_GE(ctx.now() - t0, 5000u + 4000u);
  });
  eng.run();
}

TEST_F(PortalsTest, PutWithOffsetLandsAtDisplacement) {
  build();
  const auto src = mem0->alloc(64);
  const auto dst = mem1->alloc(64);
  const auto md = p0->md_bind(src, 64, nullptr);
  p1->me_append(kPt, kMatch, dst, 64);
  std::vector<std::byte> data(8, std::byte{0x77});
  mem0->cpu_write(src, data);

  eng.spawn("origin", [&](sim::Context& ctx) {
    p0->put(ctx, md, 0, 8, 1, kPt, kMatch, 24, 0, false);
  });
  eng.run();
  std::vector<std::byte> got(8);
  mem1->cpu_read(dst + 24, got);
  EXPECT_EQ(got, data);
}

TEST_F(PortalsTest, GetReadsTargetMemory) {
  build();
  const auto src = mem1->alloc(64);
  const auto dst = mem0->alloc(64);
  EventQueue eq(eng);
  const auto md = p0->md_bind(dst, 64, &eq);
  p1->me_append(kPt, kMatch, src, 64);
  std::vector<std::byte> data(16, std::byte{0x3c});
  mem1->cpu_write(src, data);

  eng.spawn("origin", [&](sim::Context& ctx) {
    p0->get(ctx, md, 0, 16, 1, kPt, kMatch, 0, 9);
    Event r = eq.recv(ctx);
    EXPECT_EQ(r.type, EventType::reply);
    EXPECT_EQ(r.user_ptr, 9u);
    EXPECT_EQ(r.length, 16u);
  });
  eng.run();
  std::vector<std::byte> got(16);
  mem0->cpu_read(dst, got);
  EXPECT_EQ(got, data);
}

TEST_F(PortalsTest, ZeroByteGetActsAsFlushProbe) {
  build();
  EventQueue eq(eng);
  const auto dst = mem0->alloc(8);
  const auto md = p0->md_bind(dst, 8, &eq);
  p1->me_append(kPt, kMatch, mem1->alloc(8), 8);
  sim::Time rtt = 0;
  eng.spawn("origin", [&](sim::Context& ctx) {
    const sim::Time t0 = ctx.now();
    p0->get(ctx, md, 0, 0, 1, kPt, kMatch, 0, 0);
    (void)eq.recv(ctx);
    rtt = ctx.now() - t0;
  });
  eng.run();
  // Full round trip: two wire latencies at least.
  EXPECT_GE(rtt, 2 * fab->costs().latency_ns);
}

TEST_F(PortalsTest, NoAckEventsWhenNetworkLacksCompletionEvents) {
  fabric::Capabilities caps;
  caps.remote_completion_events = false;
  build(caps);
  const auto src = mem0->alloc(8);
  const auto dst = mem1->alloc(8);
  EventQueue eq(eng);
  const auto md = p0->md_bind(src, 8, &eq);
  p1->me_append(kPt, kMatch, dst, 8);
  eng.spawn("origin", [&](sim::Context& ctx) {
    p0->put(ctx, md, 0, 8, 1, kPt, kMatch, 0, 0, /*want_ack=*/true);
    Event s = eq.recv(ctx);
    EXPECT_EQ(s.type, EventType::send);
    ctx.delay(1000000);  // plenty of time: no ACK should ever appear
    EXPECT_EQ(eq.size(), 0u);
  });
  eng.run();
}

TEST_F(PortalsTest, UnmatchedMessageIsDroppedAndCounted) {
  build();
  const auto src = mem0->alloc(8);
  const auto md = p0->md_bind(src, 8, nullptr);
  // No ME appended at the target.
  eng.spawn("origin", [&](sim::Context& ctx) {
    p0->put(ctx, md, 0, 8, 1, kPt, kMatch, 0, 0, false);
  });
  eng.run();
  EXPECT_EQ(p1->dropped_messages(), 1u);
}

TEST_F(PortalsTest, UnmatchedAtomicIsDroppedAndCounted) {
  // An atomic with no matching ME is dropped like a put: counted, no memory
  // touched, no matched data op, no ACK.
  build();
  const auto src = mem0->alloc(8);
  EventQueue eq(eng);
  const auto md = p0->md_bind(src, 8, &eq);
  const auto elsewhere = mem1->alloc(8);
  p1->me_append(kPt + 1, kMatch, elsewhere, 8);
  const std::int64_t one = 1;
  mem0->cpu_write(src, std::span(reinterpret_cast<const std::byte*>(&one), 8));
  eng.spawn("origin", [&](sim::Context& ctx) {
    p0->atomic(ctx, AccOp::sum, NumType::i64, md, 0, 8, 1, kPt, kMatch, 0,
               88, /*want_ack=*/true);
    Event s = eq.recv(ctx);
    EXPECT_EQ(s.type, EventType::send);
    ctx.delay(1000000);  // plenty of time: no ACK for a dropped atomic
    EXPECT_EQ(eq.size(), 0u);
  });
  eng.run();
  EXPECT_EQ(p1->dropped_messages(), 1u);
  EXPECT_EQ(p1->received_data_ops(kPt, 0), 0u);
  std::int64_t untouched = -1;
  mem1->cpu_read(elsewhere,
                 std::span(reinterpret_cast<std::byte*>(&untouched), 8));
  EXPECT_EQ(untouched, 0);
}

TEST_F(PortalsTest, MessageMatchingNoMeElsewhereIsDropped) {
  // A message arriving with no matching ME is counted as dropped, and lands
  // nowhere.
  build();
  const auto src = mem0->alloc(8);
  const auto md = p0->md_bind(src, 8, nullptr);
  // An ME exists, but on a different portal index with different bits.
  const auto elsewhere = mem1->alloc(8);
  p1->me_append(kPt + 1, 0xbeef, elsewhere, 8);
  eng.spawn("origin", [&](sim::Context& ctx) {
    p0->put(ctx, md, 0, 8, 1, kPt, kMatch, 4, 77, false);
  });
  eng.run();
  EXPECT_EQ(p1->dropped_messages(), 1u);
  EXPECT_EQ(p1->received_data_ops(kPt + 1, 0), 0u);
}

TEST_F(PortalsTest, StaleReplyIsCountedDropped) {
  // A get whose MD is released while the reply is in flight: the reply has
  // nowhere to land and must be counted as dropped, not vanish.
  build();
  const auto src = mem0->alloc(8);
  const auto dst = mem1->alloc(8);
  p1->me_append(kPt, kMatch, dst, 8);
  eng.spawn("origin", [&](sim::Context& ctx) {
    const auto md = p0->md_bind(src, 8, nullptr);
    p0->get(ctx, md, 0, 8, 1, kPt, kMatch, 0, 5);
    p0->md_release(md);  // reply still on the wire
  });
  eng.run();
  EXPECT_EQ(p0->dropped_messages(), 1u);
  EXPECT_EQ(p1->dropped_messages(), 0u);  // the request itself matched
}

TEST_F(PortalsTest, StaleAckIsCountedDropped) {
  // Same late-delivery audit for the ACK leg: a put whose MD is released
  // while the ack is on the wire must be counted as dropped at the
  // initiator, not vanish silently.
  build();
  const auto src = mem0->alloc(8);
  const auto dst = mem1->alloc(8);
  p1->me_append(kPt, kMatch, dst, 8);
  eng.spawn("origin", [&](sim::Context& ctx) {
    const auto md = p0->md_bind(src, 8, nullptr);
    p0->put(ctx, md, 0, 8, 1, kPt, kMatch, 0, 13, /*want_ack=*/true);
    p0->md_release(md);  // ack still on the wire
  });
  eng.run();
  EXPECT_EQ(p0->dropped_messages(), 1u);
}

TEST_F(PortalsTest, SendEventSkippedAfterMdRelease) {
  // The SEND event fires local_completion_ns after injection. An owner that
  // releases the MD and frees its EQ before then must not get a post into
  // the freed queue: the event is skipped, and, since nobody remote waits on
  // it, not counted as dropped either.
  build();
  const auto src = mem0->alloc(8);
  const auto dst = mem1->alloc(8);
  p1->me_append(kPt, kMatch, dst, 8);
  std::optional<EventQueue> eq(std::in_place, eng);
  eng.spawn("origin", [&](sim::Context& ctx) {
    const auto md = p0->md_bind(src, 8, &*eq);
    p0->put(ctx, md, 0, 8, 1, kPt, kMatch, 0, 21, /*want_ack=*/false);
    p0->md_release(md);  // SEND event still pending
    eq.reset();
    // Same storage, new queue: a post through a stale pointer lands here.
    eq.emplace(eng);
  });
  eng.run();
  EXPECT_FALSE(eq->try_recv().has_value());
  EXPECT_EQ(p0->dropped_messages(), 0u);
}

TEST_F(PortalsTest, StaleNotifyAckIsCountedDropped) {
  // Notified variant: the target-side notification still fires (the data
  // DID land), but the returning notify-ack finds its MD gone and must be
  // counted as dropped at the initiator.
  build();
  const auto src = mem0->alloc(8);
  const auto dst = mem1->alloc(8);
  p1->me_append(kPt, kMatch, dst, 8);
  std::vector<Fired> fired;
  p1->set_notify_sink(record_into(fired));
  eng.spawn("origin", [&](sim::Context& ctx) {
    const auto md = p0->md_bind(src, 8, nullptr);
    p0->put(ctx, md, 0, 8, 1, kPt, kMatch, 0, 21, /*want_ack=*/true,
            /*notify=*/true, /*ntag=*/0xbeef);
    p0->md_release(md);
  });
  eng.run();
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].tag, 0xbeefu);
  EXPECT_EQ(fired[0].initiator, 0);
  EXPECT_EQ(p0->dropped_messages(), 1u);
  EXPECT_EQ(p1->dropped_messages(), 0u);
}

TEST_F(PortalsTest, NotifySinkReceivesTagAfterApply) {
  // The sink runs in delivery context right after the bytes are applied:
  // it must observe the payload already in target memory and be handed
  // the ME's match bits, the initiator, the user tag, the length and the
  // offset.
  build();
  const auto src = mem0->alloc(16);
  const auto dst = mem1->alloc(32);
  const auto md = p0->md_bind(src, 16, nullptr);
  p1->me_append(kPt, kMatch, dst, 32);
  std::vector<std::byte> data(16, std::byte{0x4d});
  mem0->cpu_write(src, data);
  std::vector<Fired> fired;
  std::vector<std::byte> at_fire(16);
  p1->set_notify_sink([&](std::uint64_t match, int initiator,
                          std::uint32_t tag, std::uint64_t length,
                          std::uint64_t offset) {
    fired.push_back(Fired{match, initiator, tag, length, offset});
    mem1->cpu_read_uncached(dst + 8, at_fire);
  });
  eng.spawn("origin", [&](sim::Context& ctx) {
    p0->put(ctx, md, 0, 16, 1, kPt, kMatch, 8, 0, false, true, 7);
  });
  eng.run();
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].match, kMatch);
  EXPECT_EQ(fired[0].initiator, 0);
  EXPECT_EQ(fired[0].tag, 7u);
  EXPECT_EQ(fired[0].length, 16u);
  EXPECT_EQ(fired[0].offset, 8u);
  EXPECT_EQ(at_fire, data);
}

TEST_F(PortalsTest, NotifiedAckEchoesFireTime) {
  // The ACK of a notified put or atomic carries the target-side fire time,
  // and the initiator attributes [fire, ack arrival] to the op's notify
  // segment. Nothing else on the op outranks notify in that window (the
  // ACK's own flight is completion), so the segment equals it exactly.
  for (const bool use_atomic : {false, true}) {
    SCOPED_TRACE(use_atomic ? "atomic" : "put");
    sim::Engine e(7);
    trace::Recorder rec;
    trace::OpTimeline tl;
    rec.set_op_timeline(&tl);
    e.set_tracer(&rec);
    fabric::Fabric f(e, 2, fabric::Capabilities{}, fabric::CostModel{});
    memsim::MemoryDomain m0{memsim::DomainConfig{}}, m1{memsim::DomainConfig{}};
    Portals q0(f.nic(0), m0), q1(f.nic(1), m1);
    const auto src = m0.alloc(8);
    const auto dst = m1.alloc(8);
    EventQueue eq(e);
    const auto md = q0.md_bind(src, 8, &eq);
    q1.me_append(kPt, kMatch, dst, 8);
    sim::Time fired_at = 0;
    q1.set_notify_sink([&](std::uint64_t, int, std::uint32_t, std::uint64_t,
                           std::uint64_t) { fired_at = e.now(); });
    constexpr std::uint64_t kReq = 5;
    const std::uint64_t tag = trace::op_tag(0, kReq);
    sim::Time acked_at = 0;
    e.spawn("origin", [&](sim::Context& ctx) {
      tl.op_begin(tag, "op", "", "test", ctx.now());
      // An idle gap before the issue: nothing but an echoed fire time that
      // is too early could claim it as notify.
      ctx.delay(1000);
      if (use_atomic) {
        q0.atomic(ctx, AccOp::sum, NumType::i64, md, 0, 8, 1, kPt, kMatch, 0,
                  kReq, /*want_ack=*/true, /*notify=*/true, /*ntag=*/3);
      } else {
        q0.put(ctx, md, 0, 8, 1, kPt, kMatch, 0, kReq, /*want_ack=*/true,
               /*notify=*/true, /*ntag=*/3);
      }
      EXPECT_EQ(eq.recv(ctx).type, EventType::send);
      EXPECT_EQ(eq.recv(ctx).type, EventType::ack);
      acked_at = ctx.now();
      tl.op_end(tag, acked_at);
    });
    e.run();
    ASSERT_GT(fired_at, 0u);
    ASSERT_GT(acked_at, fired_at);
    ASSERT_EQ(tl.ops().size(), 1u);
    const auto& seg = tl.ops()[0].seg;
    EXPECT_EQ(seg[static_cast<std::size_t>(trace::Segment::notify)],
              acked_at - fired_at);
  }
}

TEST_F(PortalsTest, NotifyWithNoSinkIsCountedDropped) {
  // A notified op landing where nobody listens: the data applies, but the
  // requested wakeup has no sink — that counts as dropped (the producer
  // asked for a notification nobody will ever consume).
  build();
  const auto src = mem0->alloc(8);
  const auto dst = mem1->alloc(8);
  const auto md = p0->md_bind(src, 8, nullptr);
  p1->me_append(kPt, kMatch, dst, 8);
  std::vector<std::byte> data(8, std::byte{0x11});
  mem0->cpu_write(src, data);
  eng.spawn("origin", [&](sim::Context& ctx) {
    p0->put(ctx, md, 0, 8, 1, kPt, kMatch, 0, 0, false, true, 9);
  });
  eng.run();
  std::vector<std::byte> got(8);
  mem1->cpu_read(dst, got);
  EXPECT_EQ(got, data);  // the data still landed
  EXPECT_EQ(p1->received_data_ops(kPt, 0), 1u);
  EXPECT_EQ(p1->dropped_messages(), 1u);
}

TEST_F(PortalsTest, ClearedNotifySinkStopsFiring) {
  build();
  const auto src = mem0->alloc(8);
  const auto dst = mem1->alloc(8);
  const auto md = p0->md_bind(src, 8, nullptr);
  p1->me_append(kPt, kMatch, dst, 8);
  std::vector<Fired> fired;
  p1->set_notify_sink(record_into(fired));
  p1->set_notify_sink(nullptr);
  eng.spawn("origin", [&](sim::Context& ctx) {
    p0->put(ctx, md, 0, 8, 1, kPt, kMatch, 0, 0, false, true, 3);
  });
  eng.run();
  EXPECT_TRUE(fired.empty());
  EXPECT_EQ(p1->dropped_messages(), 1u);
}

TEST_F(PortalsTest, TruncatingPutIsDropped) {
  build();
  const auto src = mem0->alloc(64);
  const auto dst = mem1->alloc(16);
  const auto md = p0->md_bind(src, 64, nullptr);
  p1->me_append(kPt, kMatch, dst, 16);
  eng.spawn("origin", [&](sim::Context& ctx) {
    p0->put(ctx, md, 0, 64, 1, kPt, kMatch, 0, 0, false);  // 64 > 16
  });
  eng.run();
  EXPECT_EQ(p1->dropped_messages(), 1u);
}

TEST_F(PortalsTest, MatchBitsSelectAmongEntries) {
  build();
  const auto src = mem0->alloc(8);
  const auto a = mem1->alloc(8);
  const auto b = mem1->alloc(8);
  const auto md = p0->md_bind(src, 8, nullptr);
  p1->me_append(kPt, 0x111, a, 8);
  p1->me_append(kPt, 0x222, b, 8);
  std::vector<std::byte> data(8, std::byte{0x9});
  mem0->cpu_write(src, data);
  eng.spawn("origin", [&](sim::Context& ctx) {
    p0->put(ctx, md, 0, 8, 1, kPt, 0x222, 0, 0, false);
  });
  eng.run();
  std::vector<std::byte> got(8);
  mem1->cpu_read(b, got);
  EXPECT_EQ(got, data);
  mem1->cpu_read(a, got);
  EXPECT_NE(got, data);
}

TEST_F(PortalsTest, MeUnlinkStopsMatching) {
  build();
  const auto src = mem0->alloc(8);
  const auto dst = mem1->alloc(8);
  const auto md = p0->md_bind(src, 8, nullptr);
  const auto me = p1->me_append(kPt, kMatch, dst, 8);
  p1->me_unlink(me);
  eng.spawn("origin", [&](sim::Context& ctx) {
    p0->put(ctx, md, 0, 8, 1, kPt, kMatch, 0, 0, false);
  });
  eng.run();
  EXPECT_EQ(p1->dropped_messages(), 1u);
}

TEST_F(PortalsTest, AtomicSumAppliesAtTarget) {
  build();
  const auto src = mem0->alloc(32);
  const auto dst = mem1->alloc(32);
  const auto md = p0->md_bind(src, 32, nullptr);
  p1->me_append(kPt, kMatch, dst, 32);
  std::int64_t init[2] = {100, 200};
  std::int64_t add[2] = {7, -13};
  mem1->cpu_write(dst, std::span(reinterpret_cast<std::byte*>(init), 16));
  mem0->cpu_write(src, std::span(reinterpret_cast<std::byte*>(add), 16));

  eng.spawn("origin", [&](sim::Context& ctx) {
    p0->atomic(ctx, AccOp::sum, NumType::i64, md, 0, 16, 1, kPt, kMatch, 0,
               0, false);
  });
  eng.run();
  std::int64_t got[2];
  mem1->cpu_read(dst, std::span(reinterpret_cast<std::byte*>(got), 16));
  EXPECT_EQ(got[0], 107);
  EXPECT_EQ(got[1], 187);
}

TEST_F(PortalsTest, ConcurrentAtomicsSerializeWithoutLoss) {
  // Two initiators hammer one counter; NIC-side atomics must not lose
  // updates (each delivery is one serialized event).
  build();
  memsim::MemoryDomain mem2{memsim::DomainConfig{}};
  // Need a third node: rebuild with 3 nodes.
  sim::Engine e3(11);
  fabric::Fabric f3(e3, 3, fabric::Capabilities{}, fabric::CostModel{});
  memsim::MemoryDomain m0{memsim::DomainConfig{}}, m1{memsim::DomainConfig{}},
      m2{memsim::DomainConfig{}};
  Portals q0(f3.nic(0), m0), q1(f3.nic(1), m1), q2(f3.nic(2), m2);
  const auto ctr = m2.alloc(8);
  const std::int64_t zero = 0;
  m2.cpu_write(ctr, std::span(reinterpret_cast<const std::byte*>(&zero), 8));
  q2.me_append(kPt, kMatch, ctr, 8);
  for (int node = 0; node < 2; ++node) {
    Portals& q = node == 0 ? q0 : q1;
    memsim::MemoryDomain& m = node == 0 ? m0 : m1;
    e3.spawn("origin" + std::to_string(node), [&, node](sim::Context& ctx) {
      const auto buf = m.alloc(8);
      const std::int64_t one = 1;
      m.cpu_write(buf, std::span(reinterpret_cast<const std::byte*>(&one), 8));
      const auto md = q.md_bind(buf, 8, nullptr);
      for (int i = 0; i < 50; ++i) {
        q.atomic(ctx, AccOp::sum, NumType::i64, md, 0, 8, 2, kPt, kMatch, 0,
                 0, false);
      }
    });
  }
  e3.run();
  std::int64_t total = 0;
  m2.cpu_read(ctr, std::span(reinterpret_cast<std::byte*>(&total), 8));
  EXPECT_EQ(total, 100);
}

TEST_F(PortalsTest, AtomicRefusedWithoutNativeSupport) {
  fabric::Capabilities caps;
  caps.native_atomics = false;
  build(caps);
  const auto src = mem0->alloc(8);
  const auto md = p0->md_bind(src, 8, nullptr);
  eng.spawn("origin", [&](sim::Context& ctx) {
    EXPECT_THROW(p0->atomic(ctx, AccOp::sum, NumType::i64, md, 0, 8, 1, kPt,
                            kMatch, 0, 0, false),
                 UsageError);
  });
  eng.run();
}

TEST_F(PortalsTest, FetchAddReturnsPreviousValue) {
  build();
  const auto buf = mem0->alloc(24);  // [operand][fetch slot]
  const auto ctr = mem1->alloc(8);
  EventQueue eq(eng);
  const auto md = p0->md_bind(buf, 24, &eq);
  p1->me_append(kPt, kMatch, ctr, 8);
  const std::int64_t init = 1000;
  mem1->cpu_write(ctr, std::span(reinterpret_cast<const std::byte*>(&init), 8));
  const std::int64_t add = 5;
  mem0->cpu_write(buf, std::span(reinterpret_cast<const std::byte*>(&add), 8));

  eng.spawn("origin", [&](sim::Context& ctx) {
    p0->fetch_atomic(ctx, RmwOp::fetch_add, NumType::i64, md, 0, 8, 1, kPt,
                     kMatch, 0, 0);
    Event r = eq.recv(ctx);
    EXPECT_EQ(r.type, EventType::reply);
    std::int64_t old = 0;
    mem0->cpu_read(buf + 8, std::span(reinterpret_cast<std::byte*>(&old), 8));
    EXPECT_EQ(old, 1000);
  });
  eng.run();
  std::int64_t now_val = 0;
  mem1->cpu_read(ctr, std::span(reinterpret_cast<std::byte*>(&now_val), 8));
  EXPECT_EQ(now_val, 1005);
}

TEST_F(PortalsTest, CompareSwapOnlySwapsOnMatch) {
  build();
  const auto buf = mem0->alloc(32);  // [compare|desired][fetch]
  const auto ctr = mem1->alloc(8);
  EventQueue eq(eng);
  const auto md = p0->md_bind(buf, 32, &eq);
  p1->me_append(kPt, kMatch, ctr, 8);
  const std::int64_t init = 42;
  mem1->cpu_write(ctr, std::span(reinterpret_cast<const std::byte*>(&init), 8));

  eng.spawn("origin", [&](sim::Context& ctx) {
    // Failing CAS: compare 7 != 42.
    std::int64_t cas1[2] = {7, 111};
    mem0->cpu_write(buf, std::span(reinterpret_cast<std::byte*>(cas1), 16));
    p0->fetch_atomic(ctx, RmwOp::compare_swap, NumType::i64, md, 0, 16, 1,
                     kPt, kMatch, 0, 0);
    (void)eq.recv(ctx);
    std::int64_t old = 0;
    mem0->cpu_read(buf + 16, std::span(reinterpret_cast<std::byte*>(&old), 8));
    EXPECT_EQ(old, 42);
    // Succeeding CAS: compare 42.
    std::int64_t cas2[2] = {42, 111};
    mem0->cpu_write(buf, std::span(reinterpret_cast<std::byte*>(cas2), 16));
    p0->fetch_atomic(ctx, RmwOp::compare_swap, NumType::i64, md, 0, 16, 1,
                     kPt, kMatch, 0, 0);
    (void)eq.recv(ctx);
  });
  eng.run();
  std::int64_t v = 0;
  mem1->cpu_read(ctr, std::span(reinterpret_cast<std::byte*>(&v), 8));
  EXPECT_EQ(v, 111);
}

TEST_F(PortalsTest, MdBoundsEnforced) {
  build();
  const auto src = mem0->alloc(16);
  const auto md = p0->md_bind(src, 16, nullptr);
  eng.spawn("origin", [&](sim::Context& ctx) {
    EXPECT_THROW(p0->put(ctx, md, 8, 16, 1, kPt, kMatch, 0, 0, false),
                 UsageError);
  });
  eng.run();
}

TEST_F(PortalsTest, AtomicMdBoundsEnforced) {
  build();
  const auto src = mem0->alloc(16);
  const auto md = p0->md_bind(src, 16, nullptr);
  eng.spawn("origin", [&](sim::Context& ctx) {
    EXPECT_THROW(p0->atomic(ctx, AccOp::sum, NumType::i64, md, 8, 16, 1, kPt,
                            kMatch, 0, 0, false),
                 UsageError);
    EXPECT_THROW(p0->atomic(ctx, AccOp::sum, NumType::i64, md, 0, 12, 1, kPt,
                            kMatch, 0, 0, false),
                 UsageError);  // not a whole number of elements
  });
  eng.run();
  EXPECT_EQ(fab->total_messages(), 0u);
}

TEST_F(PortalsTest, MdReleasedDuringInjectDelay) {
  // put and fetch_atomic read their MD after paying the inject overhead,
  // during which another process of the node runs. Here one releases the
  // MD then and binds a new one over other bytes, which may reuse the
  // released entry's storage: each op still sends the bytes of the MD it
  // was issued on, and the fetch's reply, with no MD left to land in, is
  // counted as dropped.
  fabric::CostModel costs;
  costs.inject_overhead_ns = 1'200;  // the XT5 preset's
  build({}, costs);
  const auto src = mem0->alloc(8);
  const auto other = mem0->alloc(8);
  const auto dst = mem1->alloc(16);
  p1->me_append(kPt, kMatch, dst, 16);
  const std::int64_t operand = 5;
  const std::int64_t wrong = 900;
  mem0->cpu_write(src, std::span(reinterpret_cast<const std::byte*>(&operand),
                                 8));
  mem0->cpu_write(other,
                  std::span(reinterpret_cast<const std::byte*>(&wrong), 8));
  MdHandle md = p0->md_bind(src, 8, nullptr);
  eng.spawn("origin", [&](sim::Context& ctx) {
    p0->put(ctx, md, 0, 8, 1, kPt, kMatch, 0, 1, /*want_ack=*/false);
    md = p0->md_bind(src, 8, nullptr);
    p0->fetch_atomic(ctx, RmwOp::fetch_add, NumType::i64, md, 0, 0, 1, kPt,
                     kMatch, 8, 2);
  });
  eng.spawn("releaser", [&](sim::Context& ctx) {
    for (int op = 0; op < 2; ++op) {
      ctx.delay(costs.inject_overhead_ns / 2);  // mid-inject
      p0->md_release(md);
      (void)p0->md_bind(other, 8, nullptr);
      ctx.delay(costs.inject_overhead_ns / 2);
    }
  });
  eng.run();
  std::int64_t got[2] = {0, 0};
  mem1->cpu_read(dst, std::span(reinterpret_cast<std::byte*>(got), 16));
  EXPECT_EQ(got[0], operand) << "put";
  EXPECT_EQ(got[1], operand) << "fetch_add onto 0";
  EXPECT_EQ(p0->dropped_messages(), 1u);
}

TEST_F(PortalsTest, MdReleaseInvalidatesHandle) {
  build();
  const auto src = mem0->alloc(16);
  const auto md = p0->md_bind(src, 16, nullptr);
  p0->md_release(md);
  EXPECT_THROW(p0->md_release(md), UsageError);
  eng.spawn("origin", [&](sim::Context& ctx) {
    EXPECT_THROW(p0->put(ctx, md, 0, 8, 1, kPt, kMatch, 0, 0, false),
                 UsageError);
  });
  eng.run();
}

TEST(PortalsAtomicsUnit, AccOpsOverTypes) {
  auto run = [](AccOp op, std::int32_t a, std::int32_t b) {
    std::int32_t target = a;
    apply_acc(op, NumType::i32, reinterpret_cast<std::byte*>(&target),
              reinterpret_cast<const std::byte*>(&b), 4, host_endian());
    return target;
  };
  EXPECT_EQ(run(AccOp::sum, 3, 4), 7);
  EXPECT_EQ(run(AccOp::prod, 3, 4), 12);
  EXPECT_EQ(run(AccOp::min, 3, 4), 3);
  EXPECT_EQ(run(AccOp::max, 3, 4), 4);
  EXPECT_EQ(run(AccOp::replace, 3, 4), 4);
  EXPECT_EQ(run(AccOp::band, 6, 3), 2);
  EXPECT_EQ(run(AccOp::bor, 6, 3), 7);
  EXPECT_EQ(run(AccOp::bxor, 6, 3), 5);
}

TEST(PortalsAtomicsUnit, FloatBitwiseRejected) {
  float t = 1.0f, o = 2.0f;
  EXPECT_THROW(apply_acc(AccOp::band, NumType::f32,
                         reinterpret_cast<std::byte*>(&t),
                         reinterpret_cast<const std::byte*>(&o), 4,
                         host_endian()),
               UsageError);
}

TEST(PortalsAtomicsUnit, BigEndianTargetArithmetic) {
  // Value stored big-endian on the target must be summed numerically.
  const Endian other =
      host_endian() == Endian::little ? Endian::big : Endian::little;
  std::uint64_t target_be = 0, operand_be = 0;
  std::uint64_t v1 = 258, v2 = 1;  // avoid palindromic byte patterns
  std::memcpy(&target_be, &v1, 8);
  std::memcpy(&operand_be, &v2, 8);
  swap_element(reinterpret_cast<std::byte*>(&target_be), 8);
  swap_element(reinterpret_cast<std::byte*>(&operand_be), 8);
  apply_acc(AccOp::sum, NumType::u64, reinterpret_cast<std::byte*>(&target_be),
            reinterpret_cast<const std::byte*>(&operand_be), 8, other);
  swap_element(reinterpret_cast<std::byte*>(&target_be), 8);
  EXPECT_EQ(target_be, 259u);
}

// The atomics matrices: every op over every element type, in host byte
// order and byte-swapped (a target of the other endianness), against a
// scalar reference.
Endian target_order(bool swapped) {
  if (!swapped) return host_endian();
  return host_endian() == Endian::little ? Endian::big : Endian::little;
}

/// `vals` as consecutive T elements in the target's byte order.
template <class T>
std::vector<std::byte> encode(const std::vector<int>& vals, bool swapped) {
  std::vector<std::byte> out(vals.size() * sizeof(T));
  for (std::size_t i = 0; i < vals.size(); ++i) {
    const T v = static_cast<T>(vals[i]);
    std::memcpy(out.data() + i * sizeof(T), &v, sizeof(T));
    if (swapped) swap_element(out.data() + i * sizeof(T), sizeof(T));
  }
  return out;
}

template <class T>
T decode(const std::byte* p, bool swapped) {
  std::byte raw[sizeof(T)];
  std::memcpy(raw, p, sizeof(T));
  if (swapped) swap_element(raw, sizeof(T));
  T v;
  std::memcpy(&v, raw, sizeof(T));
  return v;
}

/// Call fn(T{}) with the C++ element type of `nt`.
template <class Fn>
void with_type(NumType nt, Fn&& fn) {
  switch (nt) {
    case NumType::i8:
      return fn(std::int8_t{});
    case NumType::i16:
      return fn(std::int16_t{});
    case NumType::i32:
      return fn(std::int32_t{});
    case NumType::i64:
      return fn(std::int64_t{});
    case NumType::u64:
      return fn(std::uint64_t{});
    case NumType::f32:
      return fn(float{});
    case NumType::f64:
      return fn(double{});
  }
}

const char* type_name(NumType nt) {
  static const char* const kNames[] = {"i8",  "i16", "i32", "i64",
                                       "u64", "f32", "f64"};
  return kNames[static_cast<int>(nt)];
}

const auto kAllTypes =
    ::testing::Values(NumType::i8, NumType::i16, NumType::i32, NumType::i64,
                      NumType::u64, NumType::f32, NumType::f64);

/// Reference accumulate; nullopt for a bitwise op on a floating-point type.
template <class T>
std::optional<T> reference_acc(AccOp op, T a, T b) {
  switch (op) {
    case AccOp::replace:
      return b;
    case AccOp::sum:
      return static_cast<T>(a + b);
    case AccOp::prod:
      return static_cast<T>(a * b);
    case AccOp::min:
      return a < b ? a : b;
    case AccOp::max:
      return a < b ? b : a;
    case AccOp::band:
    case AccOp::bor:
    case AccOp::bxor:
      break;
  }
  if constexpr (std::is_integral_v<T>) {
    if (op == AccOp::band) return static_cast<T>(a & b);
    if (op == AccOp::bor) return static_cast<T>(a | b);
    return static_cast<T>(a ^ b);
  }
  return std::nullopt;
}

class AccMatrix
    : public ::testing::TestWithParam<std::tuple<AccOp, NumType, bool>> {};

TEST_P(AccMatrix, MatchesScalarReference) {
  const auto [op, nt, swapped] = GetParam();
  with_type(nt, [&, op = op, nt = nt, swapped = swapped](auto tag) {
    using T = decltype(tag);
    // 200 + 100 carries across a byte boundary, so an unswapped sum differs.
    const std::vector<int> lhs = {3, -6, 9, 100, 0, 200};
    const std::vector<int> rhs = {4, 3, -10, 27, -1, 100};
    std::vector<std::byte> target = encode<T>(lhs, swapped);
    const std::vector<std::byte> operand = encode<T>(rhs, swapped);
    if (!acc_op_valid_for(op, nt)) {
      // Bitwise ops on floating-point types are rejected, target untouched.
      EXPECT_FALSE(reference_acc<T>(op, T{}, T{}).has_value());
      EXPECT_THROW(apply_acc(op, nt, target.data(), operand.data(),
                             target.size(), target_order(swapped)),
                   UsageError);
      EXPECT_EQ(target, encode<T>(lhs, swapped));
      return;
    }
    apply_acc(op, nt, target.data(), operand.data(), target.size(),
              target_order(swapped));
    for (std::size_t i = 0; i < lhs.size(); ++i) {
      const std::optional<T> want = reference_acc<T>(
          op, static_cast<T>(lhs[i]), static_cast<T>(rhs[i]));
      ASSERT_TRUE(want.has_value());
      EXPECT_EQ(decode<T>(target.data() + i * sizeof(T), swapped), *want)
          << "element " << i;
    }
  });
}

std::string acc_matrix_name(
    const ::testing::TestParamInfo<AccMatrix::ParamType>& info) {
  static const char* const kOps[] = {"replace", "sum",  "prod", "min",
                                     "max",     "band", "bor",  "bxor"};
  const auto [op, nt, swapped] = info.param;
  return std::string(kOps[static_cast<int>(op)]) + "_" + type_name(nt) +
         (swapped ? "_swapped" : "_host");
}

INSTANTIATE_TEST_SUITE_P(
    OpTypeOrder, AccMatrix,
    ::testing::Combine(
        ::testing::Values(AccOp::replace, AccOp::sum, AccOp::prod, AccOp::min,
                          AccOp::max, AccOp::band, AccOp::bor, AccOp::bxor),
        kAllTypes, ::testing::Bool()),
    acc_matrix_name);

class RmwMatrix
    : public ::testing::TestWithParam<std::tuple<RmwOp, NumType, bool>> {};

TEST_P(RmwMatrix, FetchesOldValueAndUpdates) {
  const auto [op, nt, swapped] = GetParam();
  with_type(nt, [&, op = op, nt = nt, swapped = swapped](auto tag) {
    using T = decltype(tag);
    // The target holds 7; -300 makes fetch_add carry across bytes.
    auto run = [&](const std::vector<int>& payload, int want_after) {
      std::vector<std::byte> target = encode<T>({7}, swapped);
      const std::vector<std::byte> fetched =
          apply_rmw(op, nt, target.data(), encode<T>(payload, swapped),
                    target_order(swapped));
      EXPECT_EQ(fetched, encode<T>({7}, swapped));
      EXPECT_EQ(decode<T>(target.data(), swapped),
                static_cast<T>(want_after));
    };
    switch (op) {
      case RmwOp::fetch_add:
        run({-300}, 7 - 300);
        break;
      case RmwOp::swap:
        run({-300}, -300);
        break;
      case RmwOp::compare_swap:
        run({7, -300}, -300);  // compare matches: desired stored
        run({8, -300}, 7);     // stale compare: target unchanged
        break;
    }
  });
}

std::string rmw_matrix_name(
    const ::testing::TestParamInfo<RmwMatrix::ParamType>& info) {
  static const char* const kOps[] = {"fetch_add", "swap", "compare_swap"};
  const auto [op, nt, swapped] = info.param;
  return std::string(kOps[static_cast<int>(op)]) + "_" + type_name(nt) +
         (swapped ? "_swapped" : "_host");
}

INSTANTIATE_TEST_SUITE_P(
    OpTypeOrder, RmwMatrix,
    ::testing::Combine(::testing::Values(RmwOp::fetch_add, RmwOp::swap,
                                         RmwOp::compare_swap),
                       kAllTypes, ::testing::Bool()),
    rmw_matrix_name);

TEST(PortalsAtomicsUnit, NumTypeOfEveryLeafKind) {
  using dt::LeafKind;
  EXPECT_EQ(num_type_of(LeafKind::bytes), NumType::i8);  // opaque bytes
  EXPECT_EQ(num_type_of(LeafKind::i8), NumType::i8);
  EXPECT_EQ(num_type_of(LeafKind::i16), NumType::i16);
  EXPECT_EQ(num_type_of(LeafKind::i32), NumType::i32);
  EXPECT_EQ(num_type_of(LeafKind::i64), NumType::i64);
  EXPECT_EQ(num_type_of(LeafKind::u64), NumType::u64);
  EXPECT_EQ(num_type_of(LeafKind::f32), NumType::f32);
  EXPECT_EQ(num_type_of(LeafKind::f64), NumType::f64);
}

TEST(PortalsAtomicsUnit, NumSizes) {
  EXPECT_EQ(num_size(NumType::i8), 1u);
  EXPECT_EQ(num_size(NumType::i16), 2u);
  EXPECT_EQ(num_size(NumType::i32), 4u);
  EXPECT_EQ(num_size(NumType::i64), 8u);
  EXPECT_EQ(num_size(NumType::u64), 8u);
  EXPECT_EQ(num_size(NumType::f32), 4u);
  EXPECT_EQ(num_size(NumType::f64), 8u);
}

}  // namespace
}  // namespace m3rma::portals
