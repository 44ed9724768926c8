// Cross-layer latency attribution: per-op critical-path decomposition.
//
// Every RMA operation the core engine issues gets a globally unique op tag
// (origin rank + request id). The tag rides along everywhere work happens on
// the op's behalf — fabric packets (including reliability retransmit copies
// and replication mirror streams), topology hop reservations, portals EQ
// delivery, atomicity serializer queues — and each layer reports the
// intervals it spends on the op to the OpTimeline as (tag, segment, t0, t1).
// When the op completes, the timeline decomposes its end-to-end latency into
// named segments with a hard conservation invariant: the segments sum
// EXACTLY to the measured end-to-end time.
//
// Segments (DESIGN.md §10):
//   serialize_wait — queued at the target waiting for the atomicity
//                    serializer (comm thread backlog / progress pickup)
//   lock_wait      — waiting for a remote lock grant (coarse-grain lock
//                    serializer, passive-target epochs)
//   inject         — origin NIC injection overhead
//   wire           — request-leg transmission: serialization + link latency
//                    (per physical hop under src/topo)
//   contention     — request-leg stalls: per-link FIFO queueing, rx
//                    occupancy, in-order delivery clamps
//   retransmit     — reliability-sublayer delay: a packet was re-injected;
//                    the interval from its first send to the retransmission
//   failover       — replication failover stall: target died mid-op; from
//                    failure detection to the op's rescued completion
//   apply          — target-side execution: serializer AM processing,
//                    software accumulate/RMW application
//   delivery       — target-side EQ/delivery overhead on the request leg
//   completion     — completion propagation: the return leg (ack / reply /
//                    lock grant) in flight back to the origin, including its
//                    own stalls and delivery
//   other          — residual (origin host time not covered by any layer:
//                    software bookkeeping between segments)
//
// Overlapping reports are resolved deterministically: the op's [t0, t1] is
// cut at every reported boundary and each elementary slice is charged to the
// highest-priority segment covering it (priority = enum order above, with
// failover highest). Uncovered slices fall into `other`. Integer math
// everywhere; by construction the per-op segment vector sums exactly to
// t1 - t0, so conservation is an invariant, not a tolerance.
//
// Determinism/perturbation contract (same as the Recorder's): recording
// never advances virtual time, schedules events, or consumes rng draws. The
// engine allocates request ids unconditionally, so a run with an OpTimeline
// attached takes exactly the same virtual-time trajectory as one without.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace m3rma::trace {

using Time = std::uint64_t;

// ----- op tags ---------------------------------------------------------------

/// Compose an op tag from the origin rank and its per-engine request id.
/// Tag 0 means "untagged" (packets not issued on behalf of a tracked op),
/// hence the +1 on the rank.
inline constexpr std::uint64_t op_tag(int origin_rank, std::uint64_t id) {
  return (static_cast<std::uint64_t>(origin_rank + 1) << 40) |
         (id & ((1ULL << 40) - 1));
}
inline constexpr int op_origin(std::uint64_t tag) {
  return static_cast<int>(tag >> 40) - 1;
}

// ----- segments --------------------------------------------------------------

/// Priority order: when reported intervals overlap, the LOWEST enum value
/// wins the slice. `other` is the residual and never reported explicitly.
enum class Segment : std::uint8_t {
  failover = 0,
  retransmit,
  lock_wait,
  serialize_wait,
  apply,
  delivery,
  inject,
  contention,
  wire,
  notify,
  completion,
  other,
};
inline constexpr int kSegmentCount = 12;
const char* segment_name(Segment s);

// ----- the timeline ----------------------------------------------------------

class OpTimeline {
 public:
  /// Begin tracking an op. `name` is the op kind ("rma.put"), `attrs` the
  /// attribute set ("blocking+ordering"), `api` the issuing interface
  /// ("strawman", "armci", ...). Reports for the tag (and its aliases)
  /// between begin and end are attributed to this op.
  void op_begin(std::uint64_t tag, std::string name, std::string attrs,
                std::string api, Time t0);

  /// Complete the op: decompose [t0, t1] into segments. Ops never ended
  /// (still in flight at teardown) are excluded from breakdowns.
  void op_end(std::uint64_t tag, Time t1);

  /// Fold a child request's tag into its parent op (inner get/put of a
  /// locked op, lock-acquire round trips, RMW sub-ops, mirror streams).
  /// Must be registered before the child's work is reported.
  void alias(std::uint64_t child_tag, std::uint64_t parent_tag);

  /// Report an interval of work on the op's behalf. Safe on unknown or
  /// untagged (0) tags — the report is dropped. Inverted intervals are
  /// clamped. Callable with timestamps in the virtual future (topology
  /// reservations), like Recorder::span_at.
  void add(std::uint64_t tag, Segment s, Time t0, Time t1);

  /// True when work for `tag` would be kept — the call-site guard that
  /// keeps untracked traffic from building report strings.
  bool tracks(std::uint64_t tag) const;

  // ----- results -------------------------------------------------------------

  struct Breakdown {
    std::string name;   ///< op kind ("rma.put")
    std::string attrs;  ///< attribute set ("blocking+ordering")
    std::string api;    ///< issuing interface ("strawman")
    Time t0 = 0;
    Time t1 = 0;
    std::array<Time, kSegmentCount> seg{};  ///< sums exactly to t1 - t0
    Time total() const { return t1 - t0; }
  };
  /// Completed ops, in completion order (deterministic).
  const std::vector<Breakdown>& ops() const { return done_; }

  /// Aggregated waterfall over a group of ops.
  struct Waterfall {
    std::uint64_t count = 0;
    Time end_to_end = 0;                      ///< sum over ops
    std::array<Time, kSegmentCount> seg{};    ///< sums to end_to_end
  };
  /// Group completed ops by "name[attrs]" (the Fig. 2 axis).
  std::map<std::string, Waterfall> by_attrs() const;
  /// Group completed ops by api (the Table S6 axis).
  std::map<std::string, Waterfall> by_api() const;
  /// Aggregate a caller-selected subset (e.g. the p99.9 tail).
  template <class Pred>
  Waterfall aggregate(Pred&& keep) const {
    Waterfall w;
    for (const Breakdown& b : done_) {
      if (!keep(b)) continue;
      accumulate(w, b);
    }
    return w;
  }

  /// Conservation self-check: every completed op's segments sum exactly to
  /// its end-to-end time. Structurally guaranteed; exported so benches and
  /// tests can assert it end-to-end.
  bool conservation_ok() const;
  std::uint64_t completed_ops() const { return done_.size(); }
  std::uint64_t open_ops() const;

  /// Nearest-rank percentile of completed-op end-to-end latency, optionally
  /// restricted to ops whose "name[attrs]" key matches `key` (empty = all).
  std::optional<Time> latency_percentile(double pct,
                                         const std::string& key = {}) const;

  // ----- export --------------------------------------------------------------

  /// Segment-keyed flame export: lines of
  ///   api;name[attrs];segment total_ns count
  /// sorted by stack, byte-deterministic (same format as
  /// Recorder::write_flame).
  void write_flame(std::ostream& os) const;

  /// Machine-readable breakdown: per-group waterfalls (by attrs and by api)
  /// plus the conservation verdict, as JSON. Integer nanoseconds only.
  void write_json(std::ostream& os) const;

 private:
  struct Live {
    std::string name, attrs, api;
    Time t0 = 0;
    bool open = false;
    /// Reported raw intervals, in report order: (segment, t0, t1).
    std::vector<std::array<Time, 3>> iv;
  };

  static void accumulate(Waterfall& w, const Breakdown& b);
  std::uint64_t resolve(std::uint64_t tag) const;

  std::map<std::uint64_t, Live> live_;
  std::map<std::uint64_t, std::uint64_t> alias_;
  std::vector<Breakdown> done_;
};

class Recorder;
/// Call-site guard: the attached timeline, or nullptr when attribution is
/// off (no recorder / no timeline).
OpTimeline* timeline(Recorder* r);

}  // namespace m3rma::trace
