// Reliable transport sublayer (fabric/reliability.hpp): ack/retransmit with
// exponential backoff, the three ack rules (piggyback on handler replies,
// a delayed ack due half an RTO after its packet was sent and at least an
// RTO/5 window after its arrival, immediate acks during recovery),
// gap-triggered fast retransmit on ordered fabrics, duplicate suppression,
// in-order delivery, and bounded-retry degradation to TransportError.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "fabric/fabric.hpp"
#include "simtime/engine.hpp"
#include "trace/recorder.hpp"

namespace m3rma::fabric {
namespace {

struct TestHdr {
  int id = 0;
};

Packet make_packet(int proto, int id, std::size_t payload = 8) {
  Packet p;
  p.protocol = proto;
  set_header(p, TestHdr{id});
  p.payload.assign(payload, std::byte{0xcd});
  return p;
}

CostModel reliable_costs(double loss, int retry_budget = 10,
                         sim::Time rto = 50'000) {
  CostModel c;
  c.loss_rate = loss;
  c.reliability.enabled = true;
  c.reliability.retry_budget = retry_budget;
  c.reliability.retransmit_timeout_ns = rto;
  return c;
}

TEST(Reliability, DisabledMeansNoEndpointAndNoFraming) {
  sim::Engine eng(1);
  Fabric f(eng, 2, Capabilities{}, CostModel{});
  EXPECT_EQ(f.nic(0).reliability(), nullptr);
  std::uint8_t seen_flags = 0xff;
  f.nic(1).register_protocol(1, [&](Packet&& p) { seen_flags = p.rel_flags; });
  eng.spawn("s", [&](sim::Context&) { f.nic(0).send(1, make_packet(1, 0)); });
  eng.run();
  EXPECT_EQ(seen_flags, 0);  // no reliability framing on the wire
}

TEST(Reliability, FramingBytesCountedOnlyWhenTagged) {
  Packet plain = make_packet(1, 0, 100);
  Packet tagged = make_packet(1, 0, 100);
  tagged.rel_flags = kRelFlagData;
  EXPECT_EQ(tagged.wire_size(), plain.wire_size() + kReliabilityFramingBytes);
}

TEST(Reliability, RecoversEveryPacketInOrderUnderLoss) {
  sim::Engine eng(4242);
  Fabric f(eng, 2, Capabilities{}, reliable_costs(0.3));
  std::vector<int> got;
  f.nic(1).register_protocol(1, [&](Packet&& p) {
    got.push_back(get_header<TestHdr>(p).id);
  });
  eng.spawn("s", [&](sim::Context& ctx) {
    for (int i = 0; i < 100; ++i) {
      f.nic(0).send(1, make_packet(1, i));
      ctx.delay(2000);
    }
  });
  eng.run();
  ASSERT_EQ(got.size(), 100u) << "every packet must be delivered exactly once";
  EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));
  EXPECT_EQ(std::adjacent_find(got.begin(), got.end()), got.end());
  EXPECT_GT(f.dropped_packets(), 0u);
  EXPECT_GT(f.nic(0).reliability()->stats().retransmits, 0u);
}

TEST(Reliability, SuppressesDuplicatesWhenAcksAreLost) {
  // High loss drops acks too; the sender then re-injects data the receiver
  // already handed up, which must be swallowed, not re-delivered.
  sim::Engine eng(7);
  Fabric f(eng, 2, Capabilities{}, reliable_costs(0.4));
  int delivered = 0;
  f.nic(1).register_protocol(1, [&](Packet&&) { ++delivered; });
  eng.spawn("s", [&](sim::Context& ctx) {
    for (int i = 0; i < 200; ++i) {
      f.nic(0).send(1, make_packet(1, i));
      ctx.delay(1000);
    }
  });
  eng.run();
  EXPECT_EQ(delivered, 200);
  EXPECT_GT(f.nic(1).reliability()->stats().duplicates_suppressed, 0u);
}

TEST(Reliability, ResequencesAfterRetransmissionOnOrderedFabric) {
  // A lost packet's retransmission arrives after its successors; the
  // receiver must buffer those successors rather than deliver them early.
  sim::Engine eng(11);
  Capabilities caps;
  caps.ordered_delivery = true;
  Fabric f(eng, 2, caps, reliable_costs(0.25));
  std::vector<int> got;
  f.nic(1).register_protocol(1, [&](Packet&& p) {
    got.push_back(get_header<TestHdr>(p).id);
  });
  eng.spawn("s", [&](sim::Context&) {
    for (int i = 0; i < 64; ++i) f.nic(0).send(1, make_packet(1, i));
  });
  eng.run();
  ASSERT_EQ(got.size(), 64u);
  EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));
  EXPECT_GT(f.nic(1).reliability()->stats().out_of_order_buffered, 0u);
}

TEST(Reliability, StandaloneAcksFlowOnOneWayTraffic) {
  sim::Engine eng(1);
  Fabric f(eng, 2, Capabilities{}, reliable_costs(0.0));
  f.nic(1).register_protocol(1, [](Packet&&) {});
  eng.spawn("s", [&](sim::Context& ctx) {
    for (int i = 0; i < 10; ++i) {
      f.nic(0).send(1, make_packet(1, i));
      ctx.delay(20'000);
    }
  });
  eng.run();
  const auto& tx = f.nic(0).reliability()->stats();
  const auto& rx = f.nic(1).reliability()->stats();
  EXPECT_GT(rx.acks_sent, 0u);
  EXPECT_EQ(tx.retransmits, 0u) << "lossless link must never retransmit";
  EXPECT_EQ(f.nic(0).reliability()->unacked(1, 1), 0u);
}

TEST(Reliability, ReverseTrafficPiggybacksAcks) {
  // Node 1 answers every delivery immediately, inside the delayed-ack
  // window, so its data packets carry the acks and standalone acks stay
  // rare. The ack is armed before the handler runs, so a reply sent from
  // inside the delivery absorbs it: node 1 never sends a standalone ack,
  // not even a redundant one repeating what its reply already carried.
  constexpr int kPackets = 20;
  sim::Engine eng(1);
  CostModel costs = reliable_costs(0.0);
  Fabric f(eng, 2, Capabilities{}, costs);
  f.nic(0).register_protocol(1, [](Packet&&) {});
  f.nic(1).register_protocol(1, [&](Packet&& p) {
    f.nic(1).send(0, make_packet(1, get_header<TestHdr>(p).id + 1000));
  });
  eng.spawn("s", [&](sim::Context& ctx) {
    for (int i = 0; i < kPackets; ++i) {
      f.nic(0).send(1, make_packet(1, i));
      ctx.delay(15'000);
    }
  });
  eng.run();
  const auto& st1 = f.nic(1).reliability()->stats();
  EXPECT_GT(st1.acks_piggybacked, 0u);
  EXPECT_LT(st1.acks_sent, 20u)
      << "piggybacking should absorb most standalone acks";
  EXPECT_EQ(st1.acks_sent, 0u);
  EXPECT_EQ(st1.acks_piggybacked, static_cast<std::uint64_t>(kPackets));
  EXPECT_EQ(f.nic(0).reliability()->unacked(1, 1), 0u);
}

TEST(Reliability, AckWindowNeverCausesASpuriousTimeout) {
  // A delayed ack falls due half an RTO after its packet was sent, which
  // leaves the other half for the ack's trip back, so even at Table S9's
  // shortest RTO a lossless one-way stream is acked before its timer fires,
  // and the hold still coalesces several deliveries into one ack.
  constexpr int kPackets = 200;
  sim::Engine eng(1);
  Fabric f(eng, 2, Capabilities{}, reliable_costs(0.0, 10, /*rto=*/20'000));
  f.nic(1).register_protocol(1, [](Packet&&) {});
  eng.spawn("s", [&](sim::Context& ctx) {
    for (int i = 0; i < kPackets; ++i) {
      f.nic(0).send(1, make_packet(1, i));
      ctx.delay(500);
    }
  });
  eng.run();
  const auto& tx = f.nic(0).reliability()->stats();
  const auto& rx = f.nic(1).reliability()->stats();
  EXPECT_EQ(tx.retransmits, 0u);
  EXPECT_EQ(rx.duplicates_suppressed, 0u);
  EXPECT_GT(rx.acks_sent, 0u);
  EXPECT_LT(rx.acks_sent, static_cast<std::uint64_t>(kPackets) / 4)
      << "a 10 us hold from the send spans 20 deliveries";
  EXPECT_EQ(f.nic(0).reliability()->unacked(1, 1), 0u);
}

// One short burst over a 2-node fabric. A watcher process polls the
// sender's unacked() count and records when it first reaches 0 after the
// burst; the receiver's handler records each delivery time.
struct AckTiming {
  sim::Time last_delivery = 0;
  sim::Time all_acked = 0;
  sim::Time rtt = 0;  // two one-way trips of a small packet
  std::uint64_t drops = 0;
  ReliabilityStats tx, rx;
};

constexpr sim::Time kPoll = 100;  // watcher's polling step

AckTiming run_acked_burst(std::uint64_t seed, double loss, int packets,
                          sim::Time rto) {
  sim::Engine eng(seed);
  Fabric f(eng, 2, Capabilities{}, reliable_costs(loss, 10, rto));
  AckTiming out;
  out.rtt = 2 * f.transfer_time(0, 1, make_packet(1, 0).wire_size());
  int delivered = 0;
  f.nic(1).register_protocol(1, [&](Packet&&) {
    ++delivered;
    out.last_delivery = eng.now();
  });
  eng.spawn("s", [&](sim::Context& ctx) {
    for (int i = 0; i < packets; ++i) f.nic(0).send(1, make_packet(1, i));
    while (f.nic(0).reliability()->unacked(1, 1) != 0) ctx.delay(kPoll);
    out.all_acked = ctx.now();
  });
  eng.run();
  EXPECT_EQ(delivered, packets) << "exactly once";
  out.drops = f.dropped_packets();
  out.tx = f.nic(0).reliability()->stats();
  out.rx = f.nic(1).reliability()->stats();
  return out;
}

TEST(Reliability, FilledHoleIsAckedAtOnce) {
  // Seed 1 drops one packet of the burst; the packets behind it are
  // buffered, the gap ack triggers a fast copy, and the copy's arrival
  // drains the reorder buffer. The receiver acks that at once, so the
  // sender's window is clear one trip after the hole is filled, not when
  // the delayed ack the first buffered packet armed falls due (100 us after
  // that packet was sent, half this RTO: well after the fast copy's round
  // trip).
  const AckTiming a = run_acked_burst(1, 0.1, 8, 200'000);
  ASSERT_EQ(a.drops, 1u);
  EXPECT_GT(a.rx.out_of_order_buffered, 0u);
  EXPECT_EQ(a.tx.fast_retransmits, 1u);
  EXPECT_EQ(a.tx.retransmits, 1u) << "no timer round";
  EXPECT_LT(a.all_acked - a.last_delivery, a.rtt);
}

TEST(Reliability, DuplicateIsReackedAtOnce) {
  // Seed 3 drops the receiver's ack of a single packet. The sender times
  // out and re-sends it; the receiver suppresses the duplicate and acks at
  // once, so the sender is clear one RTT after its timeout, not one RTT
  // plus a delayed-ack window.
  constexpr sim::Time kRto = 50'000;
  const AckTiming a = run_acked_burst(3, 0.3, 1, kRto);
  ASSERT_EQ(a.drops, 1u);
  EXPECT_EQ(a.tx.retransmits, 1u);
  EXPECT_EQ(a.rx.duplicates_suppressed, 1u);
  EXPECT_EQ(a.rx.acks_sent, 2u) << "the lost delayed ack, then the re-ack";
  EXPECT_LE(a.all_acked, kRto + a.rtt + kPoll);
}

TEST(Reliability, GoBackAllRoundGetsOneImmediateReack) {
  // Seed 66 drops the receiver's one delayed ack for a burst of four. The
  // sender's timeout re-sends all four; the receiver re-acks the first copy
  // at once, and the three behind it, inside the same ack window, share
  // one delayed ack instead of an immediate ack each.
  constexpr sim::Time kRto = 50'000;
  const AckTiming a = run_acked_burst(66, 0.2, 4, kRto);
  ASSERT_EQ(a.drops, 1u);
  EXPECT_EQ(a.tx.retransmits, 4u);
  EXPECT_EQ(a.rx.duplicates_suppressed, 4u);
  EXPECT_EQ(a.rx.acks_sent, 3u)
      << "the lost delayed ack, one immediate re-ack, one delayed ack";
  EXPECT_EQ(a.rx.ack_arms, a.rx.acks_sent + a.rx.acks_piggybacked);
  EXPECT_LE(a.all_acked, kRto + a.rtt + kPoll);

  // Seed 169 also drops the immediate re-ack. The round's copies were all
  // sent at kRto, so the delayed ack the second copy armed falls due half an
  // RTO later (its arrival's window closes sooner) and covers the lost
  // re-ack before the sender's next round, backed off to 2 * kRto.
  const AckTiming b = run_acked_burst(169, 0.2, 4, kRto);
  ASSERT_EQ(b.drops, 2u);
  EXPECT_EQ(b.tx.retransmits, 4u) << "no second timer round";
  EXPECT_EQ(b.rx.duplicates_suppressed, 4u);
  EXPECT_EQ(b.rx.acks_sent, 3u);
  EXPECT_GT(b.all_acked, kRto + kRto / 2);
  EXPECT_LE(b.all_acked, kRto + kRto / 2 + b.rtt + kPoll);
}

TEST(Reliability, SlowPacketIsAckedOneWindowAfterArrival) {
  // A packet whose one-way delay exceeds 3/10 of the RTO arrives after its
  // send time + RTO/2 - RTO/5, so its delayed ack waits one full RTO/5
  // window from the arrival (the floor of rule 2, which sets the timing
  // under overload) rather than leaving half an RTO after the send.
  constexpr sim::Time kRto = 100'000;
  sim::Engine eng(1);
  CostModel costs = reliable_costs(0.0, 10, kRto);
  costs.latency_ns = 35'000;
  Fabric f(eng, 2, Capabilities{}, costs);
  sim::Time sent = 0;
  sim::Time arrived = 0;
  sim::Time acked = 0;
  f.nic(1).register_protocol(1, [&](Packet&&) { arrived = eng.now(); });
  eng.spawn("s", [&](sim::Context& ctx) {
    sent = ctx.now();
    f.nic(0).send(1, make_packet(1, 0));
    while (f.nic(0).reliability()->unacked(1, 1) != 0) ctx.delay(kPoll);
    acked = ctx.now();
  });
  eng.run();
  ASSERT_GT(arrived - sent, 3 * kRto / 10);
  EXPECT_EQ(f.nic(0).reliability()->stats().retransmits, 0u);
  EXPECT_EQ(f.nic(1).reliability()->stats().acks_sent, 1u);
  // The ack left kRto / 5 after the arrival and spent one latency or more
  // on the wire; leaving at sent + kRto / 2 would have it back 5 us sooner.
  EXPECT_GE(acked - arrived, kRto / 5 + costs.latency_ns);
  EXPECT_LE(acked - arrived, kRto / 5 + (arrived - sent) + kPoll);
}

// Closed-loop many-to-few fan-in on a loss-free wire, the shape of
// perfbench's notify_fanin_lossy: every producer keeps kWindow items in
// flight, each to a consumer drawn from the seed, and reuses a slot when the
// consumer's completion comes back. The consumer sends that completion from
// inside the delivery, as Portals sends its ACK, so it carries the
// consumer's ack; the producer's ack of the completion has to wait for the
// producer's next item to the same consumer or go out alone.
struct FanIn {
  int completed = 0;
  std::uint64_t messages = 0;
  ReliabilityStats totals;
};

FanIn run_fanin(int consumers, int producers, int items) {
  constexpr int kWindow = 8;
  constexpr std::size_t kItemBytes = 256;
  sim::Engine eng(1);
  Fabric f(eng, consumers + producers, Capabilities{}, reliable_costs(0.0));
  FanIn out;
  std::vector<int> inflight(static_cast<std::size_t>(producers), 0);
  sim::Condition completion(eng);
  for (int c = 0; c < consumers; ++c) {
    f.nic(c).register_protocol(1, [&f, c](Packet&& p) {
      f.nic(c).send(p.src, make_packet(1, get_header<TestHdr>(p).id, 0));
    });
  }
  for (int p = 0; p < producers; ++p) {
    f.nic(consumers + p).register_protocol(1, [&, p](Packet&&) {
      --inflight[static_cast<std::size_t>(p)];
      ++out.completed;
      completion.notify_all();
    });
    eng.spawn("producer", [&, p](sim::Context& ctx) {
      int& mine = inflight[static_cast<std::size_t>(p)];
      SplitMix64 rng(mix64(static_cast<std::uint64_t>(p)));
      for (int i = 0; i < items; ++i) {
        ctx.await_until(completion, [&] { return mine < kWindow; });
        ++mine;
        const auto c = static_cast<int>(
            rng.next_below(static_cast<std::uint64_t>(consumers)));
        f.nic(consumers + p).send(c, make_packet(1, i, kItemBytes));
      }
    });
  }
  eng.run();
  out.messages = f.total_messages();
  out.totals = f.reliability_totals();
  return out;
}

TEST(Reliability, FanInProducersHoldAcksForTheirNextItem) {
  // Rule 1 folds each consumer's ack into its completion, and rule 2 holds
  // the producer's ack of that completion until half an RTO after the
  // consumer sent it: long enough, at this window, for the producer's next
  // item to that consumer to carry it. Standalone acks, which land on the
  // consumers' receive pipelines, stay a small share of the traffic, and
  // the longer hold never lets a timer fire.
  constexpr int kConsumers = 4;
  constexpr int kProducers = 28;
  constexpr int kItems = 400;
  const FanIn r = run_fanin(kConsumers, kProducers, kItems);
  EXPECT_EQ(r.completed, kProducers * kItems);
  EXPECT_EQ(r.totals.retransmits, 0u);
  EXPECT_EQ(r.totals.duplicates_suppressed, 0u);
  EXPECT_EQ(r.totals.ack_arms,
            r.totals.acks_sent + r.totals.acks_piggybacked);
  // The last completion each producer gets from each consumer is always
  // acked alone: 112 of about 22,500 packets. Acking one RTO/5 window after
  // the completion's arrival instead sends 183 more (14 per 1,000).
  EXPECT_LT(r.totals.acks_sent * 1000, r.messages * 10)
      << "standalone acks per 1,000 packets";
}

TEST(Reliability, RetryBudgetZeroFailsFastWithLinkName) {
  // Total blackout: the first timeout must degrade to TransportError that
  // names the link and the oldest unacknowledged packet. Only a bare
  // fabric throws it: a World always installs the STONITH policy, which
  // declares the peer dead instead.
  sim::Engine eng(3);
  Fabric f(eng, 2, Capabilities{}, reliable_costs(1.0, /*retry_budget=*/0));
  f.nic(1).register_protocol(1, [](Packet&&) {});
  eng.spawn("s", [&](sim::Context&) { f.nic(0).send(1, make_packet(1, 7)); });
  try {
    eng.run();
    FAIL() << "expected TransportError";
  } catch (const TransportError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("reliable link"), std::string::npos) << msg;
    EXPECT_NE(msg.find("link 0 -> 1"), std::string::npos) << msg;
    EXPECT_NE(msg.find("retry budget"), std::string::npos) << msg;
    EXPECT_NE(msg.find("unacknowledged"), std::string::npos) << msg;
    EXPECT_NE(msg.find("seq 1"), std::string::npos) << msg;
    // The report carries the full retry history: rounds, the backed-off
    // timeout in force at failure, and the last cumulative ack seen.
    EXPECT_NE(msg.find("gave up after 0 retransmission round(s)"),
              std::string::npos)
        << msg;
    EXPECT_NE(msg.find("final rto"), std::string::npos) << msg;
    EXPECT_NE(msg.find("last cumulative ack 0"), std::string::npos) << msg;
  }
  // The same history is available structurally on the fabric's record.
  ASSERT_EQ(f.link_failures().size(), 1u);
  const LinkFailure& lf = f.link_failures().front();
  EXPECT_EQ(lf.src, 0);
  EXPECT_EQ(lf.peer, 1);
  EXPECT_EQ(lf.attempts, 0);
  EXPECT_EQ(lf.last_ack, 0u);
  EXPECT_EQ(lf.unacked, 1u);
  EXPECT_EQ(lf.detected_at, eng.now());
}

TEST(Reliability, ExhaustedBudgetReportsAfterBackedOffRetries) {
  // The rto doubles each round: 20 + 40 + 80 + 160 us.
  sim::Engine eng(3);
  Fabric f(eng, 2, Capabilities{},
           reliable_costs(1.0, /*retry_budget=*/3, /*rto=*/20'000));
  f.nic(1).register_protocol(1, [](Packet&&) {});
  eng.spawn("s", [&](sim::Context&) { f.nic(0).send(1, make_packet(1, 0)); });
  sim::Time t = 0;
  std::string msg;
  try {
    eng.run();
  } catch (const TransportError& e) {
    t = eng.now();
    msg = e.what();
  }
  EXPECT_EQ(t, 300'000u);
  // Retry history in the failure report: every budgeted round ran, with
  // the advertised rto being the one in force when the link was declared
  // dead, and no ack ever seen.
  EXPECT_NE(msg.find("gave up after 3 retransmission round(s)"),
            std::string::npos)
      << msg;
  EXPECT_NE(msg.find("final rto 160000ns"), std::string::npos) << msg;
  EXPECT_NE(msg.find("last cumulative ack 0"), std::string::npos) << msg;
  ASSERT_EQ(f.link_failures().size(), 1u);
  const LinkFailure& lf = f.link_failures().front();
  EXPECT_EQ(lf.attempts, 3);
  EXPECT_EQ(lf.final_rto, 160'000u);
  EXPECT_EQ(lf.detected_at, t);
}

TEST(Reliability, StreamsArePerProtocol) {
  // Loss on one protocol's stream must not stall another protocol sharing
  // the link; each (src,dst,protocol) stream recovers independently.
  sim::Engine eng(99);
  Fabric f(eng, 2, Capabilities{}, reliable_costs(0.3));
  std::vector<int> got1, got2;
  f.nic(1).register_protocol(1, [&](Packet&& p) {
    got1.push_back(get_header<TestHdr>(p).id);
  });
  f.nic(1).register_protocol(2, [&](Packet&& p) {
    got2.push_back(get_header<TestHdr>(p).id);
  });
  eng.spawn("s", [&](sim::Context& ctx) {
    for (int i = 0; i < 50; ++i) {
      f.nic(0).send(1, make_packet(1, i));
      f.nic(0).send(1, make_packet(2, i));
      ctx.delay(3000);
    }
  });
  eng.run();
  ASSERT_EQ(got1.size(), 50u);
  ASSERT_EQ(got2.size(), 50u);
  EXPECT_TRUE(std::is_sorted(got1.begin(), got1.end()));
  EXPECT_TRUE(std::is_sorted(got2.begin(), got2.end()));
}

TEST(Reliability, TotalsAccessorAggregatesEndpointsAndMatchesTrace) {
  // Fabric::reliability_totals() sums both endpoints' counters; when a
  // tracer is attached, the trace's instants tell the same story.
  sim::Engine eng(4242);
  trace::Recorder rec;
  eng.set_tracer(&rec);
  Fabric f(eng, 2, Capabilities{}, reliable_costs(0.3));
  f.nic(1).register_protocol(1, [](Packet&&) {});
  eng.spawn("s", [&](sim::Context& ctx) {
    for (int i = 0; i < 100; ++i) {
      f.nic(0).send(1, make_packet(1, i));
      ctx.delay(2000);
    }
  });
  eng.run();

  const ReliabilityStats totals = f.reliability_totals();
  const auto& tx = f.nic(0).reliability()->stats();
  const auto& rx = f.nic(1).reliability()->stats();
  EXPECT_EQ(totals.data_packets, tx.data_packets + rx.data_packets);
  EXPECT_EQ(totals.retransmits, tx.retransmits + rx.retransmits);
  EXPECT_EQ(totals.fast_retransmits,
            tx.fast_retransmits + rx.fast_retransmits);
  EXPECT_EQ(totals.acks_sent, tx.acks_sent + rx.acks_sent);
  EXPECT_EQ(totals.gap_acks, tx.gap_acks + rx.gap_acks);
  EXPECT_EQ(totals.duplicates_suppressed,
            tx.duplicates_suppressed + rx.duplicates_suppressed);
  EXPECT_GT(totals.data_packets, 0u);
  EXPECT_GT(totals.retransmits, 0u);
  EXPECT_GT(totals.fast_retransmits, 0u);
  EXPECT_GT(totals.gap_acks, 0u);
  EXPECT_LE(totals.fast_retransmits, totals.retransmits);

  // Fast copies share the retransmits counter but get their own instant.
  const std::string js = rec.chrome_json();
  std::uint64_t fast_instants = 0;
  for (std::size_t at = js.find("\"name\":\"fast_retransmit\"");
       at != std::string::npos;
       at = js.find("\"name\":\"fast_retransmit\"", at + 1)) {
    ++fast_instants;
  }
  EXPECT_EQ(fast_instants, tx.fast_retransmits);
}

// A paced 200-packet stream over an ordered 2-node fabric with 5% loss and
// a 1 ms RTO. Checks exactly-once, in-order delivery and returns each
// packet's first-send-to-delivery latency (in packet order) with the
// endpoints' counters.
struct PacedStream {
  std::vector<sim::Time> latency;
  std::uint64_t drops = 0;
  ReliabilityStats tx, rx;
};

constexpr sim::Time kSlowRto = 1'000'000;

PacedStream run_paced_stream(std::uint64_t seed) {
  constexpr int kPackets = 200;
  sim::Engine eng(seed);
  Capabilities caps;
  caps.ordered_delivery = true;
  Fabric f(eng, 2, caps, reliable_costs(0.05, 10, kSlowRto));
  std::vector<sim::Time> sent(kPackets);
  PacedStream out;
  std::vector<int> got;
  f.nic(1).register_protocol(1, [&](Packet&& p) {
    const int id = get_header<TestHdr>(p).id;
    got.push_back(id);
    out.latency.push_back(eng.now() - sent[static_cast<std::size_t>(id)]);
  });
  eng.spawn("s", [&](sim::Context& ctx) {
    for (int i = 0; i < kPackets; ++i) {
      sent[static_cast<std::size_t>(i)] = ctx.now();
      f.nic(0).send(1, make_packet(1, i));
      ctx.delay(2000);
    }
  });
  eng.run();
  EXPECT_EQ(got.size(), static_cast<std::size_t>(kPackets))
      << "every packet must be delivered exactly once";
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], static_cast<int>(i)) << "in order";
  }
  out.drops = f.dropped_packets();
  out.tx = f.nic(0).reliability()->stats();
  out.rx = f.nic(1).reliability()->stats();
  return out;
}

TEST(Reliability, FastRetransmitBeatsTheTimeout) {
  // On an ordered fabric the packet after a lost one exposes the hole, so
  // recovery costs one gap ack plus one re-injection instead of a 1 ms
  // timeout. Only the stream's last packet has no successor to expose its
  // loss; every other packet must arrive well inside one RTO. On this seed
  // every retransmission is a fast copy (no timer round re-sends anything),
  // so no fast copy was lost; LostFastCopyFallsBackToTheTimer covers that.
  const PacedStream s = run_paced_stream(1);
  EXPECT_GT(s.drops, 0u);
  EXPECT_GT(s.tx.fast_retransmits, 0u);
  EXPECT_GT(s.rx.gap_acks, 0u);
  EXPECT_EQ(s.tx.retransmits, s.tx.fast_retransmits);
  for (std::size_t i = 0; i + 1 < s.latency.size(); ++i) {
    EXPECT_LT(s.latency[i], kSlowRto) << "packet " << i;
  }
}

TEST(Reliability, LostFastCopyFallsBackToTheTimer) {
  // Each packet is fast-retransmitted at most once. On this seed one fast
  // copy is lost too, so the stream stalls behind it until the timer's
  // go-back-all round repairs it: those packets take at least one RTO, and
  // delivery stays exactly-once and in order.
  const PacedStream s = run_paced_stream(4242);
  EXPECT_GT(s.tx.fast_retransmits, 0u);
  EXPECT_GT(s.tx.retransmits, s.tx.fast_retransmits) << "timer round ran";
  const auto late = std::count_if(s.latency.begin(), s.latency.end(),
                                  [](sim::Time t) { return t >= kSlowRto; });
  EXPECT_GT(late, 0);
}

TEST(Reliability, NoGapAcksOnUnorderedFabric) {
  // Adaptive routing reorders packets routinely, so a gap proves nothing:
  // the receiver must resequence silently and the sender must never
  // re-inject on a lossless link.
  sim::Engine eng(21);
  Capabilities caps;
  caps.ordered_delivery = false;
  CostModel costs = reliable_costs(0.0);
  costs.jitter_ns = 5000;
  Fabric f(eng, 2, caps, costs);
  std::vector<int> got;
  f.nic(1).register_protocol(1, [&](Packet&& p) {
    got.push_back(get_header<TestHdr>(p).id);
  });
  eng.spawn("s", [&](sim::Context& ctx) {
    for (int i = 0; i < 100; ++i) {
      f.nic(0).send(1, make_packet(1, i));
      ctx.delay(500);
    }
  });
  eng.run();
  ASSERT_EQ(got.size(), 100u);
  EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));
  const ReliabilityStats totals = f.reliability_totals();
  EXPECT_GT(totals.out_of_order_buffered, 0u) << "jitter must reorder";
  EXPECT_EQ(totals.gap_acks, 0u);
  EXPECT_EQ(totals.fast_retransmits, 0u);
  EXPECT_EQ(totals.retransmits, 0u);
}

TEST(Reliability, DeterministicPerSeed) {
  auto run_once = [](std::uint64_t seed) {
    sim::Engine eng(seed);
    Fabric f(eng, 2, Capabilities{}, reliable_costs(0.3));
    f.nic(1).register_protocol(1, [](Packet&&) {});
    eng.spawn("s", [&](sim::Context& ctx) {
      for (int i = 0; i < 60; ++i) {
        f.nic(0).send(1, make_packet(1, i));
        ctx.delay(2500);
      }
    });
    eng.run();
    return std::tuple{eng.now(), f.dropped_packets(),
                      f.nic(0).reliability()->stats().retransmits};
  };
  EXPECT_EQ(run_once(5), run_once(5));
}

}  // namespace
}  // namespace m3rma::fabric
