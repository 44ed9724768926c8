#include "trace/attribution.hpp"

#include <algorithm>
#include <ostream>

#include "common/diagnostics.hpp"
#include "trace/recorder.hpp"

namespace m3rma::trace {

const char* segment_name(Segment s) {
  switch (s) {
    case Segment::failover:
      return "failover";
    case Segment::retransmit:
      return "retransmit";
    case Segment::lock_wait:
      return "lock_wait";
    case Segment::serialize_wait:
      return "serialize_wait";
    case Segment::apply:
      return "apply";
    case Segment::delivery:
      return "delivery";
    case Segment::inject:
      return "inject";
    case Segment::contention:
      return "contention";
    case Segment::wire:
      return "wire";
    case Segment::notify:
      return "notify";
    case Segment::completion:
      return "completion";
    case Segment::other:
      return "other";
  }
  return "?";
}

OpTimeline* timeline(Recorder* r) {
  return r != nullptr ? r->op_timeline() : nullptr;
}

std::uint64_t OpTimeline::resolve(std::uint64_t tag) const {
  // Alias chains are shallow (child -> parent op), but a locked RMW can
  // nest two levels; follow the chain with a small bound.
  for (int depth = 0; depth < 8; ++depth) {
    auto it = alias_.find(tag);
    if (it == alias_.end()) return tag;
    tag = it->second;
  }
  return tag;
}

bool OpTimeline::tracks(std::uint64_t tag) const {
  if (tag == 0) return false;
  return live_.find(resolve(tag)) != live_.end();
}

void OpTimeline::op_begin(std::uint64_t tag, std::string name,
                          std::string attrs, std::string api, Time t0) {
  M3RMA_REQUIRE(tag != 0, "op_begin with the untagged sentinel");
  // A begun op is a root. Request ids restart in each World, so a timeline
  // that spans Worlds can hold an alias for this tag from an earlier one.
  alias_.erase(tag);
  Live& l = live_[tag];  // re-begin after a completed id wrap overwrites
  l.name = std::move(name);
  l.attrs = std::move(attrs);
  l.api = std::move(api);
  l.t0 = t0;
  l.open = true;
  l.iv.clear();
}

void OpTimeline::alias(std::uint64_t child_tag, std::uint64_t parent_tag) {
  if (child_tag == 0 || child_tag == parent_tag) return;
  alias_[child_tag] = parent_tag;
}

void OpTimeline::add(std::uint64_t tag, Segment s, Time t0, Time t1) {
  if (tag == 0) return;
  auto it = live_.find(resolve(tag));
  if (it == live_.end() || !it->second.open) return;
  if (t1 < t0) std::swap(t0, t1);
  it->second.iv.push_back(
      {static_cast<Time>(static_cast<std::uint8_t>(s)), t0, t1});
}

void OpTimeline::op_end(std::uint64_t tag, Time t1) {
  auto it = live_.find(resolve(tag));
  if (it == live_.end() || !it->second.open) return;
  Live& l = it->second;
  Breakdown b;
  b.name = std::move(l.name);
  b.attrs = std::move(l.attrs);
  b.api = std::move(l.api);
  b.t0 = l.t0;
  b.t1 = std::max(t1, l.t0);

  // Clip every reported interval to [t0, t1] and collect slice boundaries.
  std::vector<std::array<Time, 3>> iv;
  iv.reserve(l.iv.size());
  std::vector<Time> cuts;
  cuts.reserve(2 * l.iv.size() + 2);
  cuts.push_back(b.t0);
  cuts.push_back(b.t1);
  for (const auto& r : l.iv) {
    const Time a = std::clamp(r[1], b.t0, b.t1);
    const Time z = std::clamp(r[2], b.t0, b.t1);
    if (a == z) continue;
    iv.push_back({r[0], a, z});
    cuts.push_back(a);
    cuts.push_back(z);
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

  // Charge each elementary slice to the highest-priority covering segment
  // (lowest enum value); uncovered slices are residual `other`. Every
  // nanosecond of [t0, t1] lands in exactly one bucket, so the segments sum
  // to t1 - t0 by construction — the conservation invariant.
  for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
    const Time a = cuts[i];
    const Time z = cuts[i + 1];
    int best = kSegmentCount - 1;  // Segment::other
    for (const auto& r : iv) {
      if (r[1] <= a && r[2] >= z) best = std::min(best, static_cast<int>(r[0]));
    }
    b.seg[static_cast<std::size_t>(best)] += z - a;
  }
  done_.push_back(std::move(b));
  live_.erase(it);
}

bool OpTimeline::conservation_ok() const {
  for (const Breakdown& b : done_) {
    Time sum = 0;
    for (Time s : b.seg) sum += s;
    if (sum != b.t1 - b.t0) return false;
  }
  return true;
}

std::uint64_t OpTimeline::open_ops() const {
  std::uint64_t n = 0;
  for (const auto& [tag, l] : live_) {
    (void)tag;
    n += l.open ? 1 : 0;
  }
  return n;
}

void OpTimeline::accumulate(Waterfall& w, const Breakdown& b) {
  w.count += 1;
  w.end_to_end += b.total();
  for (int s = 0; s < kSegmentCount; ++s) {
    w.seg[static_cast<std::size_t>(s)] += b.seg[static_cast<std::size_t>(s)];
  }
}

std::map<std::string, OpTimeline::Waterfall> OpTimeline::by_attrs() const {
  std::map<std::string, Waterfall> out;
  for (const Breakdown& b : done_) {
    accumulate(out[b.name + "[" + b.attrs + "]"], b);
  }
  return out;
}

std::map<std::string, OpTimeline::Waterfall> OpTimeline::by_api() const {
  std::map<std::string, Waterfall> out;
  for (const Breakdown& b : done_) accumulate(out[b.api], b);
  return out;
}

std::optional<Time> OpTimeline::latency_percentile(
    double pct, const std::string& key) const {
  M3RMA_REQUIRE(pct > 0.0 && pct <= 100.0, "percentile must be in (0, 100]");
  std::vector<Time> v;
  for (const Breakdown& b : done_) {
    if (!key.empty() && b.name + "[" + b.attrs + "]" != key) continue;
    v.push_back(b.total());
  }
  if (v.empty()) return std::nullopt;
  std::sort(v.begin(), v.end());
  return nearest_rank(v, pct);
}

void OpTimeline::write_flame(std::ostream& os) const {
  struct Agg {
    Time total = 0;
    std::uint64_t count = 0;
  };
  std::map<std::string, Agg> stacks;
  for (const Breakdown& b : done_) {
    const std::string base = b.api + ";" + b.name + "[" + b.attrs + "]";
    for (int s = 0; s < kSegmentCount; ++s) {
      const Time t = b.seg[static_cast<std::size_t>(s)];
      if (t == 0) continue;
      Agg& a = stacks[base + ";" + segment_name(static_cast<Segment>(s))];
      a.total += t;
      a.count += 1;
    }
  }
  os << "# m3rma attribution flame: api;op[attrs];segment total_ns count\n";
  for (const auto& [path, a] : stacks) {
    os << path << " " << a.total << " " << a.count << "\n";
  }
}

namespace {

void write_waterfall_json(std::ostream& os, const std::string& key,
                          const OpTimeline::Waterfall& w) {
  os << "{\"key\":\"" << key << "\",\"count\":" << w.count
     << ",\"end_to_end_ns\":" << w.end_to_end << ",\"segments\":{";
  for (int s = 0; s < kSegmentCount; ++s) {
    if (s > 0) os << ",";
    os << "\"" << segment_name(static_cast<Segment>(s))
       << "\":" << w.seg[static_cast<std::size_t>(s)];
  }
  os << "}}";
}

}  // namespace

void OpTimeline::write_json(std::ostream& os) const {
  os << "{\"conservation_ok\":" << (conservation_ok() ? "true" : "false")
     << ",\"completed_ops\":" << done_.size() << ",\"open_ops\":" << open_ops()
     << ",\"by_attrs\":[";
  bool first = true;
  for (const auto& [key, w] : by_attrs()) {
    if (!first) os << ",";
    first = false;
    os << "\n";
    write_waterfall_json(os, key, w);
  }
  os << "],\"by_api\":[";
  first = true;
  for (const auto& [key, w] : by_api()) {
    if (!first) os << ",";
    first = false;
    os << "\n";
    write_waterfall_json(os, key, w);
  }
  os << "]}\n";
}

}  // namespace m3rma::trace
