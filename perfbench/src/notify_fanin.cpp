// notify_fanin_lossy: many-to-few notified writes over a lossy wire.
//
// 32 ranks on the flat crossbar: ranks 0..3 are consumers, 4..31 producers.
// Each producer sends 256 B put_notify ops with the remote_completion
// attribute, at most 8 outstanding, each to a consumer drawn from the seed.
// The reliable transport is on with 1e-3 injected loss. An op lasts from
// producer issue until the consumer dequeues its notification; the issue
// time travels in the payload. The only workload that exercises notify and
// fabric reliability. Remote completion bounds the in-flight data: without
// it latency grows with run length (see perfbench/README.md).
#include <algorithm>
#include <cstring>
#include <deque>

#include "common/rng.hpp"
#include "harness.hpp"

namespace perfbench {

using namespace m3rma;

namespace {

constexpr int kRanks = 32;
constexpr int kConsumers = 4;
constexpr int kProducers = kRanks - kConsumers;
// 28 x 3600 = 100,800 measured items. p99.9 needs 10,000 for 10 samples
// beyond it; ten times that keeps the tail percentiles steady from seed
// to seed and dilutes the closed loop's start-up transient.
constexpr int kItemsPerProducer = 3600;
constexpr std::size_t kWindow = 8;
constexpr std::uint64_t kItemBytes = 256;
// Landing slots per producer in every consumer window. Far more than the
// producer's window, so a slot is rewritten only long after its
// notification was consumed; the payload check catches it if not.
constexpr std::uint64_t kRing = 64;
constexpr double kLoss = 1e-3;

/// Head of every item's payload; the rest of the 256 B is filler.
struct Item {
  std::uint64_t producer = 0;
  std::uint64_t tag = 0;
  Time issued_at = 0;
};

std::uint64_t landing_disp(int producer, int tag) {
  return (static_cast<std::uint64_t>(producer) * kRing +
          static_cast<std::uint64_t>(tag) % kRing) *
         kItemBytes;
}

}  // namespace

Round run_notify_fanin(std::uint64_t seed, bool traced) {
  Round out;
  // Destination consumer of every item, drawn up front from the seed.
  std::vector<std::vector<int>> dest(kProducers);
  std::vector<std::uint64_t> expected(kConsumers, 0);
  for (int p = 0; p < kProducers; ++p) {
    SplitMix64 rng(mix64(seed ^ (0xFA41ull + static_cast<std::uint64_t>(p))));
    for (int i = 0; i < kItemsPerProducer; ++i) {
      const auto c = static_cast<int>(rng.next_below(kConsumers));
      dest[static_cast<std::size_t>(p)].push_back(c);
      ++expected[static_cast<std::size_t>(c)];
      out.op_digest = digest(out.op_digest,
                             static_cast<std::uint64_t>(p * kConsumers + c));
    }
  }

  Phase phase;
  Tracing tracing(traced);
  auto cfg = xt5_world(kRanks, seed);
  cfg.costs.loss_rate = kLoss;
  cfg.costs.reliability.enabled = true;
  runtime::World w(std::move(cfg));
  phase.world_built(w);
  tracing.attach(w);

  // seen[p][tag]: times (producer p, tag) was dequeued anywhere.
  std::vector<std::vector<std::uint8_t>> seen(
      kProducers, std::vector<std::uint8_t>(kItemsPerProducer, 0));
  std::uint64_t out_of_order = 0;
  std::uint64_t bad_payloads = 0;
  std::uint64_t delivered = 0;
  Time t0 = ~Time{0};
  Time t1 = 0;

  w.run([&](runtime::Rank& r) {
    const int me = r.id();
    phase.engine_begin();
    core::RmaEngine eng(r, r.comm_world());
    phase.engine_built(eng);
    runtime::Rank::Buffer win;
    core::TargetMem mine;  // invalid on producers: they expose nothing
    if (me < kConsumers) {
      win = r.alloc(kProducers * kRing * kItemBytes);
      mine = eng.attach(win);
    }
    const auto mems = eng.exchange_all(mine);

    phase.setup_barrier(r);
    if (me >= kConsumers) {
      const int p = me - kConsumers;
      auto src = r.alloc(kWindow * kItemBytes);
      std::deque<core::Request> inflight;
      const auto retire = [&] {
        inflight.front().wait();
        if (inflight.front().failed()) ++out.failed;
        inflight.pop_front();
      };
      for (int i = 0; i < kItemsPerProducer; ++i) {
        if (inflight.size() == kWindow) retire();
        const int c =
            dest[static_cast<std::size_t>(p)][static_cast<std::size_t>(i)];
        // The slot is free again: its previous op retired just above.
        const std::uint64_t off =
            (static_cast<std::uint64_t>(i) % kWindow) * kItemBytes;
        const Item item{static_cast<std::uint64_t>(me),
                        static_cast<std::uint64_t>(i), r.ctx().now()};
        std::memcpy(src.data + off, &item, sizeof item);
        t0 = std::min(t0, item.issued_at);
        inflight.push_back(eng.put_notify(
            src.addr + off, mems[static_cast<std::size_t>(c)],
            landing_disp(p, i), kItemBytes, c, static_cast<std::uint32_t>(i),
            core::Attrs(core::RmaAttr::remote_completion)));
      }
      while (!inflight.empty()) retire();
    } else {
      auto& q = eng.notify_queue(mems[static_cast<std::size_t>(me)]);
      std::vector<std::int64_t> last_tag(kProducers, -1);
      const std::uint64_t items = expected[static_cast<std::size_t>(me)];
      for (std::uint64_t n = 0; n < items; ++n) {
        const notify::Notification note = q.wait(r.ctx());
        const Time now = r.ctx().now();
        const int p = note.origin - kConsumers;
        if (p < 0 || p >= kProducers || note.tag >= kItemsPerProducer) {
          ++bad_payloads;
          continue;
        }
        Item item;
        std::memcpy(&item, win.data + note.disp, sizeof item);
        if (item.producer != static_cast<std::uint64_t>(note.origin) ||
            item.tag != note.tag || note.bytes != kItemBytes ||
            note.disp != landing_disp(p, static_cast<int>(note.tag))) {
          ++bad_payloads;
          continue;
        }
        auto& last = last_tag[static_cast<std::size_t>(p)];
        if (static_cast<std::int64_t>(note.tag) <= last) ++out_of_order;
        last = note.tag;
        ++seen[static_cast<std::size_t>(p)][note.tag];
        out.lat.push_back(now - item.issued_at);
        t1 = std::max(t1, now);
      }
      delivered += q.delivered();
    }
    phase.measured_done(r);
    eng.complete_collective();
  });

  std::uint64_t arrived_once = 0;
  for (const auto& per : seen) {
    arrived_once += static_cast<std::uint64_t>(
        std::count(per.begin(), per.end(), std::uint8_t{1}));
  }
  out.attempted = static_cast<std::uint64_t>(kProducers) * kItemsPerProducer;
  out.failed += out.attempted - arrived_once;
  out.phase_ns = t1 > t0 ? t1 - t0 : 0;
  if (arrived_once != out.attempted) {
    out.check_failures.push_back(
        std::to_string(out.attempted - arrived_once) +
        " (producer, tag) pairs did not arrive exactly once");
  }
  if (out_of_order != 0) {
    out.check_failures.push_back(std::to_string(out_of_order) +
                                 " notifications out of per-producer order");
  }
  if (bad_payloads != 0) {
    out.check_failures.push_back(std::to_string(bad_payloads) +
                                 " payloads do not match their notification");
  }
  if (!w.failed_ranks().empty()) {
    out.check_failures.push_back(std::to_string(w.failed_ranks().size()) +
                                 " ranks were killed");
  }
  phase.finish(out, out.lat.size());
  tracing.finish(out, phase.virtual_start(), phase.virtual_end());
  out.layer.push_back({"notify.delivered", static_cast<double>(delivered)});
  return out;
}

}  // namespace perfbench
