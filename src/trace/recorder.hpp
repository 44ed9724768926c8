// Deterministic tracing for the simulated machine.
//
// A Recorder hangs off sim::Engine (Engine::set_tracer) and collects, in
// recording order:
//   * spans    — named intervals of virtual time on a track (one track per
//                rank, comm thread, or link), e.g. an RMA put from issue to
//                remote completion, or a packet's flight on a link;
//   * instants — point events (a drop, a retransmission, an EQ post).
//
// Counts live in the per-layer stats structs (core::OpStats,
// fabric::ReliabilityStats, the Fabric's packet totals, the topology's
// per-link state), which are always on; per-op latency lives in
// trace::OpTimeline (attribution.hpp). The Recorder keeps what a trace
// viewer needs: the records, the Chrome and flame exports, and the last
// site for DeadlockError.
//
// Design constraints (see DESIGN.md §6):
//   * The simulator serializes everything, so the Recorder needs no real
//     synchronization — and must never add any. Recording never advances
//     virtual time, schedules events, or consumes rng draws: a traced run
//     takes exactly the same virtual-time trajectory as an untraced one.
//   * With no Recorder attached the only cost anywhere is a null-pointer
//     check; runs are byte-identical to a build without this subsystem.
//   * Recording order is deterministic, every container exported is either
//     insertion-ordered or sorted, and timestamps are formatted with
//     integer math only, so the same seed produces byte-identical exports.
//
// Every record carries a category, exported as the Chrome event's "cat".
//
// Timestamps are plain std::uint64_t nanoseconds (== sim::Time) so this
// library sits below simtime and depends only on m3rma_common; the engine
// binds its clock via bind_clock() when the tracer is attached.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace m3rma::trace {

class OpTimeline;

/// Virtual time in nanoseconds (mirrors sim::Time; kept as a raw integer so
/// trace does not depend on simtime).
using Time = std::uint64_t;

/// Nearest-rank percentile of `sorted` (ascending, non-empty), pct in
/// (0, 100]: the sample of rank ceil(q*n/1000), q = pct in permille. Exact
/// and integer, no interpolation; every reported percentile uses it.
Time nearest_rank(const std::vector<Time>& sorted, double pct);

enum class Category : std::uint8_t {
  fabric,       ///< raw network: per-link packet flights, drops
  reliability,  ///< reliable sublayer: retransmits, dups, acks
  portals,      ///< portals transport: EQ event posts
  rma,          ///< core::RmaEngine data ops, completion, RMW
  serializer,   ///< atomicity serializers: comm-thread occupancy, locks
  p2p,          ///< two-sided runtime messaging
  runtime,      ///< collectives and world-level milestones
};
const char* category_name(Category c);

/// Opaque handle returned by span_begin; 0 means "not recorded" and makes
/// span_end a no-op, so call sites need no branches of their own.
using SpanHandle = std::uint64_t;

class Recorder {
 public:
  Recorder();

  // ----- configuration ------------------------------------------------------

  /// Bind the virtual clock used to stamp records. Called by
  /// sim::Engine::set_tracer; points at the engine's now() storage.
  void bind_clock(const Time* now) { clock_ = now; }
  Time now() const { return clock_ != nullptr ? *clock_ : 0; }

  /// Attach (or detach, with nullptr) a per-op latency-attribution timeline
  /// (trace/attribution.hpp). Instrumented layers reach it through
  /// trace::timeline(rec); with none attached attribution costs one
  /// null-pointer check.
  void set_op_timeline(OpTimeline* t) { op_timeline_ = t; }
  OpTimeline* op_timeline() const { return op_timeline_; }

  // ----- structure ----------------------------------------------------------

  /// Start a new trace process (a Chrome `pid`): an independent group of
  /// tracks. Benches running several Worlds sequentially give each one its
  /// own process so their overlapping virtual-time axes do not collide.
  /// A default process ("m3rma") exists from construction.
  void begin_process(const std::string& name);

  /// Id of the named track (Chrome `tid`) in the current process, created
  /// on first use. One track per rank ("rank3"), comm thread
  /// ("commthread3"), or link ("net:0->1"); creation order is
  /// deterministic because the simulation is sequential.
  int track(const std::string& name);

  // ----- recording ----------------------------------------------------------

  SpanHandle span_begin(int track, Category cat, std::string name,
                        std::string args = {});
  /// Stamp the span's end with the current virtual time. Safe on handle 0.
  void span_end(SpanHandle h);
  /// Record an already-closed span with explicit timestamps. Used when the
  /// interval is known at recording time but lies (partly) in the virtual
  /// future — e.g. a physical-link transmission window the topology model
  /// just reserved. Recording it immediately keeps the no-extra-events rule:
  /// a traced run schedules exactly what an untraced one does.
  void span_at(int track, Category cat, std::string name, Time t0, Time t1,
               std::string args = {});
  void instant(int track, Category cat, std::string name,
               std::string args = {});

  // ----- introspection ------------------------------------------------------

  /// A trace site: the most recent span or instant (1-based record index,
  /// 0 = none) and the time it was recorded at. The engine keeps one per
  /// process each time it blocks, to annotate DeadlockError; it is only
  /// formatted, by site_text ("rma.complete @184200ns"), for that message.
  struct Site {
    std::size_t rec = 0;
    Time t = 0;
  };
  Site site() const { return last_site_; }
  std::string site_text(Site s) const;
  bool has_last_site() const { return last_site_.rec != 0; }
  std::string last_site() const { return site_text(last_site_); }

  std::size_t record_count() const { return recs_.size(); }
  std::size_t span_count(Category cat) const;
  std::size_t open_span_count() const;

  /// Visit every recorded span in recording order: (process name, track
  /// name, span name, category, t0, t1). Open spans report t1 extended to
  /// the last recorded timestamp, matching the Chrome export. Consumers:
  /// the congestion heatmap (bench/tab_congestion) buckets physical-link
  /// transmission spans by virtual time.
  using SpanVisitor =
      std::function<void(const std::string& process, const std::string& track,
                         const std::string& name, Category cat, Time t0,
                         Time t1)>;
  void for_each_span(const SpanVisitor& fn) const;

  // ----- export -------------------------------------------------------------

  /// Chrome trace-event JSON (load at ui.perfetto.dev or
  /// chrome://tracing): one trace process per begin_process, one thread
  /// track per registered track, spans as "X" events, instants as "i".
  void write_chrome_trace(std::ostream& os) const;
  std::string chrome_json() const;

  /// Flame-style aggregation: spans collapsed by their name stack. Each
  /// line is `name;child;... total_virtual_time_ns count`, where the stack
  /// is the chain of enclosing spans on the same track (a span nests inside
  /// the innermost earlier span on its track whose interval contains it).
  /// Totals are inclusive virtual time; lines are sorted by stack, so the
  /// export is byte-deterministic. A quick "where does virtual time go"
  /// summary without loading Perfetto.
  void write_flame(std::ostream& os) const;
  std::string flame_text() const;

 private:
  struct Process {
    std::string name;
    std::vector<std::string> tracks;          // index == track id
    std::map<std::string, int> track_by_name;
  };
  struct Rec {
    enum class Kind : std::uint8_t { span, instant };
    Kind kind = Kind::span;
    int pid = 0;
    int track = 0;
    Category cat = Category::fabric;
    std::string name;
    std::string args;
    Time t0 = 0;
    Time t1 = 0;
    bool open = false;  // span never ended (still live at export)
  };

  /// The record just pushed, stamped `t`, is the latest site.
  void note_site(Time t);

  const Time* clock_ = nullptr;
  OpTimeline* op_timeline_ = nullptr;
  std::vector<Process> procs_;
  int cur_pid_ = 0;
  std::vector<Rec> recs_;
  Site last_site_;
  Time max_ts_ = 0;  // closes still-open spans at export
};

}  // namespace m3rma::trace
