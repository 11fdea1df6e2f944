#include "obs/trace.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/table.hpp"
#include "obs/advisor_rules.hpp"
#include "obs/json.hpp"
#include "obs/profiler.hpp"

namespace cool::obs {

TraceCollector::TraceCollector(std::uint32_t n_procs,
                               std::size_t capacity_per_proc) {
  COOL_CHECK(n_procs >= 1, "trace collector needs at least one processor");
  bufs_.reserve(n_procs);
  for (std::uint32_t p = 0; p < n_procs; ++p) {
    bufs_.emplace_back(capacity_per_proc);
  }
}

std::vector<Event> TraceCollector::merged() const {
  std::vector<Event> out;
  out.reserve(total_size());
  for (const TraceBuffer& b : bufs_) {
    b.for_each([&](const Event& e) { out.push_back(e); });
  }
  std::sort(out.begin(), out.end(), [](const Event& x, const Event& y) {
    if (x.start != y.start) return x.start < y.start;
    if (x.proc != y.proc) return x.proc < y.proc;
    return x.end < y.end;
  });
  return out;
}

std::uint64_t TraceCollector::total_dropped() const noexcept {
  std::uint64_t n = 0;
  for (const TraceBuffer& b : bufs_) n += b.dropped();
  return n;
}

std::size_t TraceCollector::total_size() const noexcept {
  std::size_t n = 0;
  for (const TraceBuffer& b : bufs_) n += b.size();
  return n;
}

void TraceCollector::clear() noexcept {
  for (TraceBuffer& b : bufs_) b.clear();
}

std::string chrome_trace_json(const std::vector<Event>& events,
                              const ProfileSnapshot* profile) {
  json::Writer w;
  w.begin_object();
  w.key("traceEvents").begin_array();
  for (const Event& e : events) {
    w.begin_object();
    switch (e.kind) {
      case EventKind::kTaskSpan: {
        w.key("name").string("task " + std::to_string(e.a));
        w.key("cat").string("task");
        w.key("ph").string("X");
        w.key("ts").uint_value(e.start);
        w.key("dur").uint_value(e.end - e.start);
        w.key("pid").uint_value(0);
        w.key("tid").uint_value(e.proc);
        w.key("args").begin_object();
        w.key("seq").uint_value(e.a);
        w.key("stolen").bool_value((e.flags & kSpanStolen) != 0);
        const std::uint8_t end = span_end(e.flags);
        w.key("end").string(end == kSpanCompleted  ? "completed"
                            : end == kSpanBlocked ? "blocked"
                                                  : "yielded");
        w.end_object();
        break;
      }
      case EventKind::kSteal:
        w.key("name").string("steal");
        w.key("cat").string("sched");
        w.key("ph").string("i");
        w.key("s").string("t");
        w.key("ts").uint_value(e.start);
        w.key("pid").uint_value(0);
        w.key("tid").uint_value(e.proc);
        w.key("args").begin_object();
        w.key("victim").uint_value(e.a);
        w.key("tasks").uint_value(e.b);
        w.end_object();
        break;
      case EventKind::kMigration:
        w.key("name").string("migrate");
        w.key("cat").string("mem");
        w.key("ph").string("X");
        w.key("ts").uint_value(e.start);
        w.key("dur").uint_value(e.end - e.start);
        w.key("pid").uint_value(0);
        w.key("tid").uint_value(e.proc);
        w.key("args").begin_object();
        w.key("target").uint_value(e.a);
        w.key("bytes").uint_value(e.b);
        w.end_object();
        break;
      case EventKind::kIdleGap:
        w.key("name").string("idle");
        w.key("cat").string("sched");
        w.key("ph").string("X");
        w.key("ts").uint_value(e.start);
        w.key("dur").uint_value(e.end - e.start);
        w.key("pid").uint_value(0);
        w.key("tid").uint_value(e.proc);
        break;
      case EventKind::kAdaptation:
        w.key("name").string("adapt " + std::string(advice_kind_name(
                                 static_cast<AdviceKind>(e.b))));
        w.key("cat").string("adapt");
        w.key("ph").string("X");
        w.key("ts").uint_value(e.start);
        w.key("dur").uint_value(e.end - e.start);
        w.key("pid").uint_value(0);
        w.key("tid").uint_value(e.proc);
        w.key("args").begin_object();
        w.key("decision").uint_value(e.a);
        w.end_object();
        break;
      case EventKind::kBalance:
        w.key("name").string(e.flags == kBalanceReserve ? "balance reserve"
                                                        : "balance move");
        w.key("cat").string("sched");
        w.key("ph").string("i");
        w.key("s").string("t");
        w.key("ts").uint_value(e.start);
        w.key("pid").uint_value(0);
        w.key("tid").uint_value(e.proc);
        w.key("args").begin_object();
        w.key(e.flags == kBalanceReserve ? "target" : "src").uint_value(e.a);
        w.key("tasks").uint_value(e.b);
        w.end_object();
        break;
    }
    w.end_object();
  }
  if (profile != nullptr && !profile->objects.empty()) {
    // One counter sample per track at ts 0: the merged attribution has no
    // time axis, but the tracks still put the per-object breakdown next to
    // the task timeline in the viewer.
    const auto counter = [&w, profile](const char* name, auto value_of) {
      w.begin_object();
      w.key("name").string(name);
      w.key("cat").string("profile");
      w.key("ph").string("C");
      w.key("ts").uint_value(0);
      w.key("pid").uint_value(0);
      w.key("args").begin_object();
      for (const ProfileSnapshot::ObjectRow& o : profile->objects) {
        if (o.s.accesses() == 0) continue;
        w.key(o.name).uint_value(value_of(o));
      }
      w.end_object();
      w.end_object();
    };
    counter("profile.misses", [](const ProfileSnapshot::ObjectRow& o) {
      return o.s.misses();
    });
    counter("profile.remote_stall_cycles",
            [](const ProfileSnapshot::ObjectRow& o) {
              return o.s.remote_stall_cycles;
            });
  }
  w.end_array();
  w.key("displayTimeUnit").string("ns");
  w.end_object();
  return w.str();
}

std::string render_trace_report(const std::vector<Event>& events,
                                std::uint32_t n_procs, std::uint64_t finish,
                                int width) {
  width = std::max(8, width);
  std::vector<std::uint64_t> busy(n_procs, 0);
  std::vector<std::uint64_t> spans(n_procs, 0);
  std::vector<std::uint64_t> stolen(n_procs, 0);
  // Busy cycles per (proc, timeline bucket).
  std::vector<std::vector<std::uint64_t>> buckets(
      n_procs, std::vector<std::uint64_t>(static_cast<std::size_t>(width), 0));
  const std::uint64_t span_total = std::max<std::uint64_t>(finish, 1);
  const double per_bucket =
      static_cast<double>(span_total) / static_cast<double>(width);

  for (const Event& e : events) {
    if (e.kind != EventKind::kTaskSpan || e.proc >= n_procs ||
        e.end < e.start) {
      continue;
    }
    busy[e.proc] += e.end - e.start;
    spans[e.proc] += 1;
    if ((e.flags & kSpanStolen) != 0) stolen[e.proc] += 1;
    // Spread the span over the buckets it overlaps.
    std::uint64_t t = e.start;
    while (t < e.end) {
      const auto b = std::min<std::size_t>(
          static_cast<std::size_t>(static_cast<double>(t) / per_bucket),
          static_cast<std::size_t>(width) - 1);
      const std::uint64_t bucket_end = std::min<std::uint64_t>(
          e.end, static_cast<std::uint64_t>(per_bucket * (static_cast<double>(b) + 1.0)));
      const std::uint64_t step = std::max<std::uint64_t>(bucket_end, t + 1) - t;
      buckets[e.proc][b] += step;
      t += step;
    }
  }

  util::Table t({"proc", "spans", "stolen", "busy%", "timeline"});
  for (std::uint32_t p = 0; p < n_procs; ++p) {
    std::string line;
    line.reserve(static_cast<std::size_t>(width));
    for (int b = 0; b < width; ++b) {
      const double frac =
          static_cast<double>(buckets[p][static_cast<std::size_t>(b)]) /
          per_bucket;
      line += frac >= 0.75 ? '#' : frac >= 0.25 ? '+' : frac > 0.0 ? '.' : ' ';
    }
    t.row()
        .cell("p" + std::to_string(p))
        .cell(spans[p])
        .cell(stolen[p])
        .cell(100.0 * static_cast<double>(busy[p]) /
                  static_cast<double>(span_total),
              1)
        .cell(line);
  }
  return t.to_string();
}

}  // namespace cool::obs
