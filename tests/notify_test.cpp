// Notified access (src/notify + core::RmaEngine::put_notify/get_notify):
// the producer attaches a user tag to an RMA op and the TARGET learns of
// remote completion through a per-window notification queue — no polling of
// flag locations, no origin-side relay.
//
// Invariants under test:
//  * a notification is enqueued only after the data is applied (put) or
//    read (get) at the target, and carries {origin, tag, bytes, disp};
//  * notifications from one origin arrive in issue order (ordered fabric);
//  * every serializer route (direct wire, comm-thread AM, coarse-lock
//    children) fires exactly once per op;
//  * on a replicated window the notification fires exactly once at the copy
//    that ends up serving the op — failover re-arms rescued ops' tags at
//    the backup, and the survivor's queue never holds a duplicate;
//  * a consumer killed while blocked in NotifyQueue::wait unwinds cleanly
//    (Engine::run terminates; no deadlock);
//  * a notified put to a window its owner detached is dropped by the
//    target's Portals and reaches no queue;
//  * the notification leg shows up as the `notify` attribution segment
//    without breaking conservation;
//  * over the reliable transport, a consumer's NIC receives about one
//    message per item: the remote-completion ACK it sends back carries the
//    transport ack, and the producer's ack of that ACK is coalesced.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <set>
#include <vector>

#include "common/diagnostics.hpp"
#include "core/rma_engine.hpp"
#include "runtime/comm.hpp"
#include "runtime/world.hpp"
#include "trace/attribution.hpp"
#include "trace/recorder.hpp"

namespace m3rma {
namespace {

using core::Attrs;
using core::EngineConfig;
using core::OpStatus;
using core::RmaAttr;
using core::RmaEngine;
using core::SerializerKind;
using notify::Notification;
using runtime::Rank;
using runtime::World;
using runtime::WorldConfig;

WorldConfig cfg2(int ranks, std::uint64_t seed) {
  WorldConfig c;
  c.ranks = ranks;
  c.seed = seed;
  return c;
}

template <class T>
void store(Rank& r, std::uint64_t addr, const std::vector<T>& vals) {
  r.memory().cpu_write(
      addr, std::span(reinterpret_cast<const std::byte*>(vals.data()),
                      vals.size() * sizeof(T)));
}

template <class T>
std::vector<T> load(Rank& r, std::uint64_t addr, std::size_t n) {
  std::vector<T> out(n);
  r.memory().cpu_read_uncached(
      addr,
      std::span(reinterpret_cast<std::byte*>(out.data()), n * sizeof(T)));
  return out;
}

// ------------------------------------------------------------------ basics

TEST(Notify, PutNotifyDeliversTagAfterData) {
  World w(cfg2(2, 5));
  Notification seen{};
  std::vector<std::uint64_t> payload_at_fire;
  std::uint64_t sent = 0, fired = 0;
  w.run([&](Rank& r) {
    RmaEngine eng(r, r.comm_world());
    auto [buf, mems] = eng.allocate_shared(128);
    if (r.id() == 0) {
      auto src = r.alloc(32);
      store<std::uint64_t>(r, src.addr, {11, 22, 33, 44});
      eng.put_notify(src.addr, mems[1], 16, 32, 1, /*tag=*/7,
                     Attrs(RmaAttr::blocking) | RmaAttr::remote_completion);
      sent = eng.stats().notifies_sent;
    } else {
      seen = eng.notify_queue(mems[1]).wait(r.ctx());
      // The notification is posted only after the bytes are applied: the
      // payload must already be visible at the displacement it names.
      payload_at_fire = load<std::uint64_t>(r, buf.addr + seen.disp, 4);
      fired = eng.stats().notifies_fired;
    }
    eng.complete_collective();
  });
  EXPECT_EQ(seen.origin, 0);
  EXPECT_EQ(seen.tag, 7u);
  EXPECT_EQ(seen.bytes, 32u);
  EXPECT_EQ(seen.disp, 16u);
  EXPECT_EQ(payload_at_fire, (std::vector<std::uint64_t>{11, 22, 33, 44}));
  EXPECT_EQ(sent, 1u);
  EXPECT_EQ(fired, 1u);
}

TEST(Notify, GetNotifyTellsTargetItWasRead) {
  World w(cfg2(2, 6));
  Notification seen{};
  std::vector<std::uint64_t> got;
  w.run([&](Rank& r) {
    RmaEngine eng(r, r.comm_world());
    auto [buf, mems] = eng.allocate_shared(64);
    if (r.id() == 1) store<std::uint64_t>(r, buf.addr + 8, {0xabcdu});
    r.comm_world().barrier();
    if (r.id() == 0) {
      auto dst = r.alloc(8);
      eng.get_notify(dst.addr, mems[1], 8, 8, 1, /*tag=*/99,
                     Attrs(RmaAttr::blocking));
      got = load<std::uint64_t>(r, dst.addr, 1);
    } else {
      seen = eng.notify_queue(mems[1]).wait(r.ctx());
    }
    eng.complete_collective();
  });
  EXPECT_EQ(seen.origin, 0);
  EXPECT_EQ(seen.tag, 99u);
  EXPECT_EQ(seen.bytes, 8u);
  EXPECT_EQ(seen.disp, 8u);
  EXPECT_EQ(got, (std::vector<std::uint64_t>{0xabcdu}));
}

TEST(Notify, PollAndDeliveredCounters) {
  World w(cfg2(2, 7));
  bool empty_before = false, value_after = false;
  std::uint64_t delivered = 0, pending_between = 0;
  w.run([&](Rank& r) {
    RmaEngine eng(r, r.comm_world());
    auto [buf, mems] = eng.allocate_shared(64);
    if (r.id() == 0) {
      auto src = r.alloc(16);
      eng.put_notify(src.addr, mems[1], 0, 8, 1, 1,
                     Attrs(RmaAttr::blocking) | RmaAttr::remote_completion);
      eng.put_notify(src.addr, mems[1], 8, 8, 1, 2,
                     Attrs(RmaAttr::blocking) | RmaAttr::remote_completion);
    } else {
      auto& q = eng.notify_queue(mems[1]);
      empty_before = !q.poll().has_value();
      r.ctx().delay(1'000'000);  // both puts land
      pending_between = q.pending();
      auto n = q.poll();
      value_after = n.has_value() && n->tag == 1;
      (void)q.wait(r.ctx());  // second one, already queued
      delivered = q.delivered();
    }
    eng.complete_collective();
  });
  EXPECT_TRUE(empty_before);
  EXPECT_EQ(pending_between, 2u);
  EXPECT_TRUE(value_after);
  EXPECT_EQ(delivered, 2u);
}

TEST(Notify, ZeroLengthIsRefused) {
  World w(cfg2(2, 8));
  bool threw = false;
  w.run([&](Rank& r) {
    RmaEngine eng(r, r.comm_world());
    auto [buf, mems] = eng.allocate_shared(64);
    if (r.id() == 0) {
      auto src = r.alloc(8);
      try {
        eng.put_notify(src.addr, mems[1], 0, 0, 1, 3);
      } catch (const UsageError&) {
        threw = true;
      }
    }
    eng.complete_collective();
  });
  EXPECT_TRUE(threw);
}

TEST(Notify, PutNotifyToDetachedWindowIsDroppedUnheard) {
  // The owner detaches its window before a local-completion put_notify
  // arrives: the target's Portals finds no ME and drops the put, so no
  // queue on either rank hears of it, and neither engine counts a fired or
  // a dropped notification. The origin's flush then never converges (as in
  // CoreValidation.DetachStopsRemoteAccess), which ends the run in a Panic.
  World w(cfg2(2, 9));
  std::uint64_t dropped_before = 0, dropped_after = 0;
  bool target_has_no_queue = false;
  std::size_t origin_pending = 1;
  std::uint64_t fired[2] = {1, 1}, unheard[2] = {1, 1};
  EXPECT_THROW(
      w.run([&](Rank& r) {
        RmaEngine eng(r, r.comm_world());
        auto buf = r.alloc(64);
        const core::TargetMem mine = eng.attach(buf.addr, buf.size);
        auto mems = eng.exchange_all(mine);
        if (r.id() == 1) {
          eng.detach(mine);
          try {
            (void)eng.notify_queue(mine);
          } catch (const UsageError&) {
            target_has_no_queue = true;
          }
          dropped_before = r.portals().dropped_messages();
        }
        r.comm_world().barrier();
        if (r.id() == 0) {
          auto src = r.alloc(8);
          eng.put_notify(src.addr, mems[1], 0, 8, 1, /*tag=*/5,
                         Attrs(RmaAttr::blocking));
        }
        r.ctx().delay(100'000);  // long after the put reached rank 1
        if (r.id() == 0) origin_pending = eng.notify_queue(mine).pending();
        if (r.id() == 1) dropped_after = r.portals().dropped_messages();
        fired[r.id()] = eng.stats().notifies_fired;
        unheard[r.id()] = eng.stats().notifies_dropped;
        r.comm_world().barrier();
        if (r.id() == 0) eng.complete(1);  // can never succeed
        r.comm_world().barrier();
      }),
      Panic);
  EXPECT_TRUE(target_has_no_queue);
  EXPECT_EQ(dropped_after, dropped_before + 1);
  EXPECT_EQ(origin_pending, 0u);
  for (int rank = 0; rank < 2; ++rank) {
    EXPECT_EQ(fired[rank], 0u) << "rank " << rank;
    EXPECT_EQ(unheard[rank], 0u) << "rank " << rank;
  }
}

// ------------------------------------------------------------------- order

TEST(Notify, PerOriginFifo) {
  // Two producers each stream 5 ordered notified puts at rank 0; each
  // origin's tags must come off the queue in issue order (the fabric is
  // ordered and the queue is FIFO), whatever the interleaving across
  // origins.
  constexpr int kPer = 5;
  World w(cfg2(3, 9));
  std::vector<Notification> got;
  w.run([&](Rank& r) {
    RmaEngine eng(r, r.comm_world());
    auto [buf, mems] = eng.allocate_shared(256);
    if (r.id() != 0) {
      auto src = r.alloc(8);
      for (int i = 0; i < kPer; ++i) {
        eng.put_notify(src.addr, mems[0],
                       static_cast<std::uint64_t>(8 * i), 8, 0,
                       static_cast<std::uint32_t>(100 * r.id() + i),
                       Attrs(RmaAttr::ordering) | RmaAttr::remote_completion);
      }
      eng.complete(0);
    } else {
      auto& q = eng.notify_queue(mems[0]);
      for (int i = 0; i < 2 * kPer; ++i) got.push_back(q.wait(r.ctx()));
    }
    eng.complete_collective();
  });
  ASSERT_EQ(got.size(), static_cast<std::size_t>(2 * kPer));
  int last[3] = {-1, -1, -1};
  for (const auto& n : got) {
    ASSERT_TRUE(n.origin == 1 || n.origin == 2);
    const int seq = static_cast<int>(n.tag) - 100 * n.origin;
    EXPECT_GT(seq, last[n.origin]) << "origin " << n.origin;
    last[n.origin] = seq;
  }
  EXPECT_EQ(last[1], kPer - 1);
  EXPECT_EQ(last[2], kPer - 1);
}

// -------------------------------------------------------------- serializers

TEST(Notify, CommThreadSerializerFiresOnceAfterApply) {
  // atomicity routes the op through the target's communication thread (AM
  // path): the notification must still fire exactly once, after the
  // handler applies the data.
  World w(cfg2(2, 10));
  Notification seen{};
  std::uint64_t fired = 0;
  std::vector<std::uint64_t> at_fire;
  w.run([&](Rank& r) {
    EngineConfig ec;
    ec.serializer = SerializerKind::comm_thread;
    RmaEngine eng(r, r.comm_world(), ec);
    auto [buf, mems] = eng.allocate_shared(64);
    if (r.id() == 0) {
      auto src = r.alloc(8);
      store<std::uint64_t>(r, src.addr, {0x77u});
      eng.put_notify(src.addr, mems[1], 24, 8, 1, 42,
                     Attrs(RmaAttr::blocking) | RmaAttr::atomicity);
    } else {
      seen = eng.notify_queue(mems[1]).wait(r.ctx());
      at_fire = load<std::uint64_t>(r, buf.addr + seen.disp, 1);
      fired = eng.stats().notifies_fired;
    }
    eng.complete_collective();
  });
  EXPECT_EQ(seen.origin, 0);
  EXPECT_EQ(seen.tag, 42u);
  EXPECT_EQ(seen.bytes, 8u);
  EXPECT_EQ(seen.disp, 24u);
  EXPECT_EQ(at_fire, (std::vector<std::uint64_t>{0x77u}));
  EXPECT_EQ(fired, 1u);
}

TEST(Notify, CoarseLockSerializerInheritsNotify) {
  // Under the coarse-lock serializer an atomicity op is re-issued as child
  // transfers inside the lock; the children must inherit the notification
  // so the tag still fires exactly once.
  World w(cfg2(2, 11));
  Notification seen{};
  std::uint64_t fired = 0;
  w.run([&](Rank& r) {
    EngineConfig ec;
    ec.serializer = SerializerKind::coarse_lock;
    RmaEngine eng(r, r.comm_world(), ec);
    auto [buf, mems] = eng.allocate_shared(64);
    if (r.id() == 0) {
      auto src = r.alloc(16);
      eng.put_notify(src.addr, mems[1], 0, 16, 1, 55,
                     Attrs(RmaAttr::blocking) | RmaAttr::atomicity);
    } else {
      seen = eng.notify_queue(mems[1]).wait(r.ctx());
      fired = eng.stats().notifies_fired;
    }
    eng.complete_collective();
  });
  EXPECT_EQ(seen.tag, 55u);
  EXPECT_EQ(seen.bytes, 16u);
  EXPECT_EQ(fired, 1u);
}

TEST(Notify, GetNotifyThroughCommThreadSerializer) {
  // AM-path get: the target's handler reads the region and the notify
  // fires there, echoed back in the reply for attribution.
  World w(cfg2(2, 12));
  Notification seen{};
  w.run([&](Rank& r) {
    EngineConfig ec;
    ec.serializer = SerializerKind::comm_thread;
    RmaEngine eng(r, r.comm_world(), ec);
    auto [buf, mems] = eng.allocate_shared(64);
    if (r.id() == 1) store<std::uint64_t>(r, buf.addr, {0x5151u});
    r.comm_world().barrier();
    if (r.id() == 0) {
      auto dst = r.alloc(8);
      eng.get_notify(dst.addr, mems[1], 0, 8, 1, 77,
                     Attrs(RmaAttr::blocking) | RmaAttr::atomicity);
    } else {
      seen = eng.notify_queue(mems[1]).wait(r.ctx());
    }
    eng.complete_collective();
  });
  EXPECT_EQ(seen.tag, 77u);
  EXPECT_EQ(seen.origin, 0);
}

// ------------------------------------------------------------ kill unwind

TEST(Notify, KilledConsumerBlockedInWaitUnwinds) {
  // A consumer fail-stops while parked in NotifyQueue::wait (a
  // sim::Channel recv underneath). Its stack must unwind through
  // the queue and the engine so Engine::run terminates; survivors see the
  // death and drain their ops with target_failed.
  WorldConfig c = cfg2(3, 13);
  c.faults.schedule = {{/*rank=*/1, /*at=*/300'000}};
  World w(c);
  OpStatus post = OpStatus::ok;
  bool producer_done = false;
  w.run([&](Rank& r) {
    RmaEngine eng(r, r.comm_world());
    auto [buf, mems] = eng.allocate_shared(64);
    if (r.id() == 1) {
      // Parks forever; only the kill gets it out.
      (void)eng.notify_queue(mems[1]).wait(r.ctx());
      ADD_FAILURE() << "wait returned on a killed rank";
      return;
    }
    if (r.id() == 0) {
      r.ctx().delay(600'000);  // outlive the victim
      auto src = r.alloc(8);
      auto req = eng.put_notify(src.addr, mems[1], 0, 8, 1, 5,
                                Attrs(RmaAttr::remote_completion));
      req.wait();
      post = req.status();
      producer_done = true;
    }
    eng.complete_collective();
  });
  EXPECT_TRUE(producer_done);
  EXPECT_EQ(post, OpStatus::target_failed);
}

// --------------------------------------------------------------- failover

TEST(Notify, ExactlyOnceAtSurvivingCopyAcrossFailover) {
  // Replicated window on rank 1 (backup = rank 2). Rank 0 streams notified
  // puts; rank 1 dies mid-stream. Every op must complete ok (rescued or
  // retargeted), and the SURVIVING copy's queue must hold each re-armed /
  // retargeted tag exactly once — no duplicates, no losses among the ops
  // the failover machinery handled.
  constexpr int kOps = 8;
  WorldConfig c = cfg2(4, 14);
  c.replication.enabled = true;
  c.faults.schedule = {{/*rank=*/1, /*at=*/400'000}};
  World w(c);
  std::vector<std::uint32_t> survivor_tags;
  std::vector<OpStatus> statuses;
  std::uint64_t rearmed = 0, fired_at_backup = 0;
  std::uint64_t dropped[4] = {};
  w.run([&](Rank& r) {
    RmaEngine eng(r, r.comm_world());
    auto [buf, mems] = eng.allocate_shared(128 * 1024);
    if (r.id() == 1) {  // victim idles until death
      r.ctx().delay(2'000'000);
      return;
    }
    if (r.id() == 0) {
      auto src = r.alloc(64 * 1024);
      // Ops 0..3 land (and fire) at the primary before it dies; their
      // notifications die with it — a crashed consumer's queue is gone.
      for (int i = 0; i < 4; ++i) {
        auto req = eng.put_notify(
            src.addr, mems[1], static_cast<std::uint64_t>(8 * i), 8, 1,
            static_cast<std::uint32_t>(1000 + i),
            Attrs(RmaAttr::blocking) | RmaAttr::remote_completion);
        statuses.push_back(req.status());
      }
      // Op 4: a 64 KiB put timed to be ON THE WIRE when the primary dies
      // (injected ~390 us, ~41 us of serialization, death at 400 us). It
      // must be rescued through its mirror and its tag re-armed at the
      // backup.
      r.ctx().delay(390'000 - r.ctx().now());
      auto big = eng.put_notify(src.addr, mems[1], 1024, 64 * 1024, 1, 1004,
                                Attrs(RmaAttr::ordering) |
                                    RmaAttr::remote_completion);
      big.wait();
      statuses.push_back(big.status());
      // Ops 5..7: issued after the death is known; transparently
      // retargeted to the backup, firing there.
      for (int i = 5; i < kOps; ++i) {
        auto req = eng.put_notify(
            src.addr, mems[1], static_cast<std::uint64_t>(8 * i), 8, 1,
            static_cast<std::uint32_t>(1000 + i),
            Attrs(RmaAttr::blocking) | RmaAttr::remote_completion);
        statuses.push_back(req.status());
      }
      rearmed = eng.stats().notifies_rearmed;
    }
    if (r.id() == 2) {
      // Backup copy: drain whatever the failover machinery delivered here.
      r.ctx().delay(3'000'000);
      auto& q = eng.notify_queue(mems[1]);
      while (auto n = q.poll()) survivor_tags.push_back(n->tag);
      fired_at_backup = eng.stats().notifies_fired;
    }
    eng.complete_collective();
    dropped[r.id()] = eng.stats().notifies_dropped;
  });
  // Every fire found its queue: no re-arm or retargeted op reached a rank
  // without the window's copy (the victim cannot report; it stays 0).
  for (int i = 0; i < 4; ++i) EXPECT_EQ(dropped[i], 0u) << "rank " << i;
  // Every op in the stream completed ok: rescued through its mirror or
  // transparently retargeted to the backup.
  ASSERT_EQ(statuses.size(), static_cast<std::size_t>(kOps));
  for (int i = 0; i < kOps; ++i) {
    EXPECT_EQ(statuses[static_cast<std::size_t>(i)], OpStatus::ok) << i;
  }
  // The survivor's queue holds no duplicate tags.
  std::set<std::uint32_t> uniq(survivor_tags.begin(), survivor_tags.end());
  EXPECT_EQ(uniq.size(), survivor_tags.size());
  // The crash caught the stream mid-flight: at least one in-flight op was
  // rescued and re-armed, and the post-crash remainder retargeted — so the
  // backup fired for every op from the rescue onward.
  EXPECT_GE(rearmed, 1u);
  EXPECT_EQ(fired_at_backup, survivor_tags.size());
  EXPECT_GE(survivor_tags.size(), rearmed);
  // Re-armed + retargeted tags are a suffix of the stream (ordering held).
  std::vector<std::uint32_t> sorted = survivor_tags;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    EXPECT_EQ(sorted[i],
              1000u + static_cast<std::uint32_t>(kOps - sorted.size() + i));
  }
}

// ------------------------------------------------------ reliable fan-in

TEST(Notify, ReliableFanInConsumersReceiveDataNotAcks) {
  // 6 producers put_notify into 2 consumers with remote completion over
  // the lossless reliable transport. Every item costs the consumer one data
  // packet; its Portals ACK back to the producer piggybacks the transport
  // ack, and the producer's delayed ack of that ACK coalesces with its
  // later traffic. So the consumer's NIC receives little beyond the items
  // (without the piggyback it received about two messages per item).
  constexpr int kConsumers = 2;
  constexpr int kItems = 60;  // per producer
  constexpr std::size_t kWindow = 4;
  WorldConfig cfg = cfg2(8, 21);
  cfg.costs.reliability.enabled = true;
  // XT5 injection cost: a producer's next put to the same consumer comes
  // 2.4 us later, too late to carry a short-window ack of the ACK.
  cfg.costs.inject_overhead_ns = 1200;
  World w(cfg);
  std::vector<std::uint64_t> items(kConsumers, 0), received(kConsumers, 0);
  w.run([&](Rank& r) {
    RmaEngine eng(r, r.comm_world());
    auto [buf, mems] = eng.allocate_shared(64);
    r.comm_world().barrier();
    if (r.id() >= kConsumers) {
      auto src = r.alloc(64);
      std::deque<core::Request> inflight;
      for (int i = 0; i < kItems; ++i) {
        if (inflight.size() == kWindow) {
          inflight.front().wait();
          inflight.pop_front();
        }
        const int c = (r.id() + i) % kConsumers;
        inflight.push_back(eng.put_notify(
            src.addr, mems[static_cast<std::size_t>(c)], 0, 64, c,
            static_cast<std::uint32_t>(i), Attrs(RmaAttr::remote_completion)));
      }
      for (auto& req : inflight) req.wait();
    } else {
      const auto me = static_cast<std::size_t>(r.id());
      const std::uint64_t before = w.fabric().nic(r.id()).received_messages();
      auto& q = eng.notify_queue(mems[me]);
      const int expect = (8 - kConsumers) * kItems / kConsumers;
      for (int n = 0; n < expect; ++n) (void)q.wait(r.ctx());
      items[me] = q.delivered();
      received[me] = w.fabric().nic(r.id()).received_messages() - before;
    }
    eng.complete_collective();
  });
  for (int c = 0; c < kConsumers; ++c) {
    const auto i = static_cast<std::size_t>(c);
    EXPECT_EQ(items[i], 180u);
    EXPECT_LE(static_cast<double>(received[i]),
              1.15 * static_cast<double>(items[i]))
        << "consumer " << c << " received " << received[i]
        << " messages for " << items[i] << " items";
  }
}

// ------------------------------------------------------------- attribution

TEST(Notify, NotifyLegShowsUpInAttributionWithoutBreakingConservation) {
  trace::Recorder rec;
  trace::OpTimeline tl;
  rec.set_op_timeline(&tl);
  World w(cfg2(2, 15));
  w.engine().set_tracer(&rec);
  w.run([&](Rank& r) {
    RmaEngine eng(r, r.comm_world());
    auto [buf, mems] = eng.allocate_shared(128);
    if (r.id() == 0) {
      auto src = r.alloc(64);
      for (int i = 0; i < 4; ++i) {
        eng.put_notify(src.addr, mems[1], 0, 64, 1,
                       static_cast<std::uint32_t>(i),
                       Attrs(RmaAttr::blocking) | RmaAttr::remote_completion);
      }
      eng.complete(1);
    } else {
      auto& q = eng.notify_queue(mems[1]);
      for (int i = 0; i < 4; ++i) (void)q.wait(r.ctx());
    }
    eng.complete_collective();
  });
  EXPECT_TRUE(tl.conservation_ok());
  EXPECT_EQ(tl.open_ops(), 0u);
  const auto all =
      tl.aggregate([](const trace::OpTimeline::Breakdown&) { return true; });
  EXPECT_GT(all.seg[static_cast<std::size_t>(trace::Segment::notify)], 0u);
}

}  // namespace
}  // namespace m3rma
