#include "trace/recorder.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>
#include <utility>

#include "common/diagnostics.hpp"

namespace m3rma::trace {

const char* category_name(Category c) {
  switch (c) {
    case Category::fabric:
      return "fabric";
    case Category::reliability:
      return "reliability";
    case Category::portals:
      return "portals";
    case Category::rma:
      return "rma";
    case Category::serializer:
      return "serializer";
    case Category::p2p:
      return "p2p";
    case Category::runtime:
      return "runtime";
  }
  return "?";
}

Recorder::Recorder() { procs_.push_back(Process{"m3rma", {}, {}}); }

void Recorder::begin_process(const std::string& name) {
  // Reuse the empty default process for the first named one, so traces that
  // name every world do not carry a vacant "m3rma" group.
  if (procs_.size() == 1 && recs_.empty() && procs_[0].tracks.empty()) {
    procs_[0].name = name;
    return;
  }
  procs_.push_back(Process{name, {}, {}});
  cur_pid_ = static_cast<int>(procs_.size()) - 1;
}

int Recorder::track(const std::string& name) {
  Process& p = procs_[static_cast<std::size_t>(cur_pid_)];
  auto it = p.track_by_name.find(name);
  if (it != p.track_by_name.end()) return it->second;
  const int id = static_cast<int>(p.tracks.size());
  p.tracks.push_back(name);
  p.track_by_name.emplace(name, id);
  return id;
}

void Recorder::note_site(Time t) {
  max_ts_ = std::max(max_ts_, t);
  last_site_ = Site{recs_.size(), t};
}

SpanHandle Recorder::span_begin(int track, Category cat, std::string name,
                                std::string args) {
  const Time t = now();
  Rec r;
  r.kind = Rec::Kind::span;
  r.pid = cur_pid_;
  r.track = track;
  r.cat = cat;
  r.name = std::move(name);
  r.args = std::move(args);
  r.t0 = t;
  r.t1 = t;
  r.open = true;
  recs_.push_back(std::move(r));
  note_site(t);
  return recs_.size();  // index + 1
}

void Recorder::span_end(SpanHandle h) {
  if (h == 0) return;
  M3RMA_ENSURE(h <= recs_.size(), "span_end with a foreign handle");
  Rec& r = recs_[static_cast<std::size_t>(h - 1)];
  M3RMA_ENSURE(r.kind == Rec::Kind::span && r.open,
               "span_end on a non-span or already-ended record");
  r.t1 = now();
  r.open = false;
  max_ts_ = std::max(max_ts_, r.t1);
}

void Recorder::span_at(int track, Category cat, std::string name, Time t0,
                       Time t1, std::string args) {
  M3RMA_ENSURE(t1 >= t0, "span_at interval must not be inverted");
  Rec r;
  r.kind = Rec::Kind::span;
  r.pid = cur_pid_;
  r.track = track;
  r.cat = cat;
  r.name = std::move(name);
  r.args = std::move(args);
  r.t0 = t0;
  r.t1 = t1;
  recs_.push_back(std::move(r));
  note_site(t1);
}

void Recorder::instant(int track, Category cat, std::string name,
                       std::string args) {
  const Time t = now();
  Rec r;
  r.kind = Rec::Kind::instant;
  r.pid = cur_pid_;
  r.track = track;
  r.cat = cat;
  r.name = std::move(name);
  r.args = std::move(args);
  r.t0 = t;
  r.t1 = t;
  recs_.push_back(std::move(r));
  note_site(t);
}

std::string Recorder::site_text(Site s) const {
  if (s.rec == 0 || s.rec > recs_.size()) return {};
  return recs_[s.rec - 1].name + " @" + std::to_string(s.t) + "ns";
}

Time nearest_rank(const std::vector<Time>& sorted, double pct) {
  const auto q = static_cast<std::size_t>(pct * 10.0 + 0.5);
  const std::size_t rank = (q * sorted.size() + 999) / 1000;
  return sorted[std::min(std::max<std::size_t>(rank, 1), sorted.size()) - 1];
}

void Recorder::for_each_span(const SpanVisitor& fn) const {
  for (const Rec& r : recs_) {
    if (r.kind != Rec::Kind::span) continue;
    const Time end = r.open ? std::max(max_ts_, r.t0) : r.t1;
    const Process& p = procs_[static_cast<std::size_t>(r.pid)];
    fn(p.name, p.tracks[static_cast<std::size_t>(r.track)], r.name, r.cat,
       r.t0, end);
  }
}

std::size_t Recorder::span_count(Category cat) const {
  std::size_t n = 0;
  for (const Rec& r : recs_) {
    if (r.kind == Rec::Kind::span && r.cat == cat) ++n;
  }
  return n;
}

std::size_t Recorder::open_span_count() const {
  std::size_t n = 0;
  for (const Rec& r : recs_) n += r.open ? 1 : 0;
  return n;
}

// ---------------------------------------------------------------- exporters

namespace {

/// Nanoseconds -> Chrome's microsecond "ts"/"dur" fields, via integer math
/// only ("12345" ns -> "12.345") so output is byte-stable across runs.
std::string us_field(Time ns) {
  std::string s = std::to_string(ns / 1000);
  const Time frac = ns % 1000;
  s += '.';
  s += static_cast<char>('0' + frac / 100);
  s += static_cast<char>('0' + frac / 10 % 10);
  s += static_cast<char>('0' + frac % 10);
  return s;
}

std::string json_escape(const std::string& in) {
  std::string out;
  out.reserve(in.size());
  for (char c : in) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += ' ';
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

void Recorder::write_chrome_trace(std::ostream& os) const {
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  auto sep = [&] {
    if (!first) os << ",\n";
    first = false;
  };
  for (std::size_t pid = 0; pid < procs_.size(); ++pid) {
    const Process& p = procs_[pid];
    sep();
    os << "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":" << pid
       << ",\"tid\":0,\"args\":{\"name\":\"" << json_escape(p.name)
       << "\"}}";
    for (std::size_t tid = 0; tid < p.tracks.size(); ++tid) {
      sep();
      os << "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":" << pid
         << ",\"tid\":" << tid << ",\"args\":{\"name\":\""
         << json_escape(p.tracks[tid]) << "\"}}";
    }
  }
  for (const Rec& r : recs_) {
    sep();
    os << "{\"name\":\"" << json_escape(r.name) << "\",\"cat\":\""
       << category_name(r.cat) << "\",\"ph\":\""
       << (r.kind == Rec::Kind::span ? "X" : "i") << "\",\"ts\":"
       << us_field(r.t0);
    if (r.kind == Rec::Kind::span) {
      // Spans still open at export (e.g. a daemon blocked at shutdown) are
      // extended to the last recorded timestamp rather than dropped.
      const Time end = r.open ? std::max(max_ts_, r.t0) : r.t1;
      os << ",\"dur\":" << us_field(end - r.t0);
    } else {
      os << ",\"s\":\"t\"";
    }
    os << ",\"pid\":" << r.pid << ",\"tid\":" << r.track;
    if (!r.args.empty() || r.open) {
      os << ",\"args\":{";
      if (!r.args.empty()) {
        os << "\"info\":\"" << json_escape(r.args) << "\"";
      }
      if (r.open) {
        os << (r.args.empty() ? "" : ",") << "\"unfinished\":\"true\"";
      }
      os << "}";
    }
    os << "}";
  }
  os << "\n]}\n";
}

void Recorder::write_flame(std::ostream& os) const {
  // Group span record indices per (process, track); recording order within
  // a track is begin-time order (the virtual clock is monotone), which the
  // nesting sweep below relies on. span_at records can carry future
  // timestamps, so re-sort defensively — stable, so the export stays
  // deterministic.
  std::map<std::pair<int, int>, std::vector<std::size_t>> by_track;
  for (std::size_t i = 0; i < recs_.size(); ++i) {
    const Rec& r = recs_[i];
    if (r.kind != Rec::Kind::span) continue;
    by_track[{r.pid, r.track}].push_back(i);
  }
  struct Agg {
    Time total = 0;
    std::uint64_t count = 0;
  };
  std::map<std::string, Agg> stacks;
  for (auto& [key, idxs] : by_track) {
    (void)key;
    auto end_of = [&](const Rec& r) {
      return r.open ? std::max(max_ts_, r.t0) : r.t1;
    };
    std::stable_sort(idxs.begin(), idxs.end(),
                     [&](std::size_t a, std::size_t b) {
                       const Rec& ra = recs_[a];
                       const Rec& rb = recs_[b];
                       if (ra.t0 != rb.t0) return ra.t0 < rb.t0;
                       return end_of(ra) > end_of(rb);  // parent first
                     });
    // Sweep: a span nests inside the nearest earlier span on its track
    // whose interval contains it.
    std::vector<std::pair<Time, std::string>> open;  // (end, stack path)
    for (std::size_t i : idxs) {
      const Rec& r = recs_[i];
      const Time end = end_of(r);
      while (!open.empty() &&
             (open.back().first <= r.t0 || open.back().first < end)) {
        open.pop_back();
      }
      std::string path =
          open.empty() ? r.name : open.back().second + ";" + r.name;
      Agg& a = stacks[path];
      a.total += end - r.t0;
      a.count += 1;
      open.emplace_back(end, std::move(path));
    }
  }
  os << "# m3rma flame: stack total_virtual_time_ns count\n";
  for (const auto& [path, a] : stacks) {
    os << path << " " << a.total << " " << a.count << "\n";
  }
}

std::string Recorder::flame_text() const {
  std::ostringstream os;
  write_flame(os);
  return os.str();
}

std::string Recorder::chrome_json() const {
  std::ostringstream os;
  write_chrome_trace(os);
  return os.str();
}

}  // namespace m3rma::trace
