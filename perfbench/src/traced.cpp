// perfbench traced run: host time by layer, measured from outside.
//
// Each op of the workload runs several times, every run bracketed by spans
// around the public calls the benchmark makes (Runtime construction, app
// run(), snapshots, destruction):
//
//   plain     the op as the end-to-end run times it; gives apps.run_s and the
//             simulated counts, and times obs_snapshot()/profile_snapshot()
//   capture   the same op with a passive mem::AccessObserver recording every
//             line reference (proc, line, write, service, page home); its
//             digest must equal the plain run's
//   profile   profiler off vs on, adaptation off (both passive, digests equal)
//   reqtrace  for ops with req_trace on: the same op with it off
//
// The captured stream is then replayed through a fresh mem::MemorySystem:
// once with contiguous lines of one processor merged into one access() call
// (memsim.replay_s), and once line by line with a clock around each call
// (memsim.hit_ns / miss_ns). The line-by-line replay must service every
// reference at the captured level, and both replays must reproduce the op's
// per-service PerfMonitor totals — otherwise the memsim times are withheld
// and the run fails. The same stream drives per-call timings of the cache,
// directory, page-map and channel-backend classes; a standalone
// sched::Scheduler and a Runtime of empty tasks give the scheduler and task
// costs. Spans are kept in memory and written as Chrome trace JSON at the end.
#include "traced.hpp"

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "load/arrivals.hpp"
#include "memsim/cache.hpp"
#include "memsim/channel/backend.hpp"
#include "memsim/directory.hpp"
#include "memsim/memsystem.hpp"
#include "memsim/pagemap.hpp"
#include "sched/scheduler.hpp"

extern char** environ;

namespace perfbench {
namespace {

namespace mem = cool::mem;
namespace topo = cool::topo;

double ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

/// Keeps the results of timed loops observable so they are not optimised out.
volatile std::uint64_t g_sink = 0;

// --- spans -------------------------------------------------------------------

class SpanLog {
 public:
  SpanLog() : origin_(Clock::now()) {}

  void add(const std::string& name, const std::string& parent, int op,
           Clock::time_point a, Clock::time_point b) {
    spans_.push_back({name, parent, op, a, b});
  }

  /// Chrome trace-event JSON (one complete event per span).
  void write(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"traceEvents\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[512];
      std::snprintf(buf, sizeof buf,
                    "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                    "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                    "{\"parent\": \"%s\", \"op\": %d}}",
                    i == 0 ? "" : ",", s.name.c_str(),
                    ns_between(origin_, s.a) / 1e3, ns_between(s.a, s.b) / 1e3,
                    s.parent.c_str(), s.op);
      out << buf;
    }
    out << "\n]}\n";
  }

 private:
  struct Span {
    std::string name;
    std::string parent;
    int op;
    Clock::time_point a;
    Clock::time_point b;
  };
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// --- capture -----------------------------------------------------------------

/// One captured line reference, packed: line (40 bits) | proc (8) |
/// write (1) | service (3) | home (8).
using Ref = std::uint64_t;
constexpr int kLineBits = 40;
constexpr std::uint64_t kLineMask = (1ull << kLineBits) - 1;

inline std::uint64_t ref_line(Ref r) { return r & kLineMask; }
inline topo::ProcId ref_proc(Ref r) { return (r >> 40) & 0xff; }
inline bool ref_write(Ref r) { return ((r >> 48) & 1) != 0; }
inline int ref_service(Ref r) { return static_cast<int>((r >> 49) & 7); }
inline topo::ProcId ref_home(Ref r) { return (r >> 52) & 0xff; }
inline bool is_hit(int service) {
  return service <= static_cast<int>(mem::Service::kL2Hit);
}
inline bool is_fill(int service) {
  return service == static_cast<int>(mem::Service::kLocalMem) ||
         service == static_cast<int>(mem::Service::kRemoteMem);
}

class LineCapture final : public mem::AccessObserver {
 public:
  explicit LineCapture(std::uint32_t line_bytes) : line_bytes_(line_bytes) {}

  void on_access(const mem::AccessInfo& a) override {
    const std::uint64_t line = a.addr / line_bytes_;
    if (line > kLineMask || a.proc > 0xff || a.home > 0xff) overflow = true;
    refs.push_back((line & kLineMask) | (std::uint64_t{a.proc & 0xff} << 40) |
                   (std::uint64_t{a.is_write} << 48) |
                   (std::uint64_t{static_cast<std::uint8_t>(a.service)} << 49) |
                   (std::uint64_t{a.home & 0xff} << 52));
  }
  void on_inval(std::uint64_t, topo::ProcId, int) override {}

  std::vector<Ref> refs;
  bool overflow = false;

 private:
  std::uint32_t line_bytes_;
};

// --- one run of an op --------------------------------------------------------

/// What the traced run reads from a finished Runtime.
struct RunInfo {
  OpOutcome out;
  OpTimes t;
  mem::ProcCounters mon;
  std::size_t dir_entries = 0;
  std::uint64_t queue_full_stalls = 0;
  cool::sched::SchedStats sched;
  std::uint64_t idle_cycles = 0;
  std::uint64_t epochs = 0;
  std::uint64_t decisions = 0;
  std::vector<double> snapshot_us;          ///< obs_snapshot() samples.
  std::vector<double> profile_snapshot_us;  ///< Empty without a profiler.
};

/// Hooks for every traced run: attach the capture tap if asked, and read
/// counts and snapshot costs before the Runtime dies.
class TraceHooks final : public OpHooks {
 public:
  TraceHooks(SpanLog& spans, int op, std::string kind, LineCapture* cap,
             RunInfo& info)
      : spans_(spans), op_(op), kind_(std::move(kind)), cap_(cap),
        info_(info) {}

  void after_ctor(cool::Runtime& rt) override {
    if (cap_ != nullptr) rt.sim()->memsys().add_observer(cap_);
  }

  void before_dtor(cool::Runtime& rt) override {
    if (cap_ != nullptr) rt.sim()->memsys().remove_observer(cap_);
    mem::MemorySystem& ms = rt.sim()->memsys();
    info_.mon = ms.monitor().total();
    info_.dir_entries = ms.directory().n_entries();
    for (const mem::ChannelCounters& c : ms.channel().stats()) {
      info_.queue_full_stalls += c.queue_full_stalls;
    }
    info_.sched = rt.sched_stats();
    for (const cool::ProcUtil& u : rt.utilization()) {
      info_.idle_cycles += u.idle;
    }
    if (const auto* eng = rt.adaptive_engine()) {
      info_.epochs = eng->epochs();
      info_.decisions = eng->log().size();
    }
    constexpr int kSamples = 5;
    for (int i = 0; i < kSamples; ++i) {
      const Clock::time_point a = Clock::now();
      g_sink = g_sink + rt.obs_snapshot().values.size();
      const Clock::time_point b = Clock::now();
      spans_.add("obs.snapshot", kind_, op_, a, b);
      info_.snapshot_us.push_back(ns_between(a, b) / 1e3);
    }
    if (rt.profiler() == nullptr) return;
    for (int i = 0; i < kSamples; ++i) {
      const Clock::time_point a = Clock::now();
      g_sink = g_sink + rt.profile_snapshot().objects.size();
      const Clock::time_point b = Clock::now();
      spans_.add("obs.profile_snapshot", kind_, op_, a, b);
      info_.profile_snapshot_us.push_back(ns_between(a, b) / 1e3);
    }
  }

 private:
  SpanLog& spans_;
  int op_;
  std::string kind_;  ///< Name of the run's span, the parent of its own.
  LineCapture* cap_;
  RunInfo& info_;
};

void add_run_spans(SpanLog& spans, const std::string& kind, int op,
                   const OpTimes& t) {
  spans.add(kind, "traced_run", op, t.start, t.end);
  spans.add("runtime.ctor", kind, op, t.start, t.built);
  spans.add("app.run", kind, op, t.built, t.ran);
  spans.add("app.check", kind, op, t.ran, t.checked);
  spans.add("runtime.dtor", kind, op, t.dtor_start, t.end);
}

/// Run `spec` once under spans named `kind`; throws if the op fails.
RunInfo traced_run(SpanLog& spans, int op, const std::string& kind,
                   const OpSpec& spec, LineCapture* cap = nullptr) {
  RunInfo info;
  TraceHooks hooks(spans, op, kind, cap, info);
  info.out = run_op(spec, &info.t, &hooks);
  add_run_spans(spans, kind, op, info.t);
  return info;
}

double run_s(const RunInfo& r) { return seconds_between(r.t.built, r.t.ran); }

// --- replay ------------------------------------------------------------------

/// The captured stream prepared for replay: first-seen page homes, and the
/// access calls (runs of contiguous lines, in stream order) with migrations
/// in between.
struct ReplayPlan {
  struct Call {
    std::uint64_t line = 0;  ///< First line, or the page for a migration.
    std::uint32_t n = 0;     ///< Lines; 0 = migrate page `line` to `home`.
    std::uint16_t proc = 0;
    std::uint8_t write = 0;
    std::uint8_t home = 0;
  };
  std::vector<std::pair<std::uint64_t, topo::ProcId>> binds;
  std::vector<Call> calls;
};

/// Pages beyond this index mean the stream left the runtime's arena.
constexpr std::uint64_t kMaxPages = 1ull << 24;

bool plan_replay(const std::vector<Ref>& refs, const topo::MachineConfig& m,
                 ReplayPlan& plan) {
  const std::uint64_t lines_per_page = m.page_bytes / m.line_bytes;
  std::uint64_t max_page = 0;
  for (const Ref r : refs) {
    max_page = std::max(max_page, ref_line(r) / lines_per_page);
  }
  if (max_page >= kMaxPages) return false;
  constexpr std::uint16_t kUnseen = 0xffff;
  std::vector<std::uint16_t> home(max_page + 1, kUnseen);
  ReplayPlan::Call run;
  for (const Ref r : refs) {
    const std::uint64_t line = ref_line(r);
    const std::uint64_t page = line / lines_per_page;
    const topo::ProcId p = ref_proc(r);
    const topo::ProcId h = ref_home(r);
    bool moved = false;
    if (home[page] == kUnseen) {
      plan.binds.emplace_back(page, h);
    } else if (home[page] != h) {
      moved = true;
    }
    home[page] = static_cast<std::uint16_t>(h);
    const bool extends = run.n > 0 && !moved && run.proc == p &&
                         run.write == ref_write(r) && run.line + run.n == line;
    if (extends) {
      ++run.n;
      continue;
    }
    if (run.n > 0) plan.calls.push_back(run);
    if (moved) {
      plan.calls.push_back({page, 0, static_cast<std::uint16_t>(p), 0,
                            static_cast<std::uint8_t>(h)});
    }
    run = {line, 1, static_cast<std::uint16_t>(p),
           static_cast<std::uint8_t>(ref_write(r)), 0};
  }
  if (run.n > 0) plan.calls.push_back(run);
  return true;
}

std::unique_ptr<mem::MemorySystem> fresh_memsys(const OpSpec& spec,
                                                const ReplayPlan& plan) {
  const topo::MachineConfig& m = spec.sys.machine;
  auto ms = std::make_unique<mem::MemorySystem>(m, spec.sys.mem_channel);
  for (const auto& [page, home] : plan.binds) {
    ms->bind_range(page * m.page_bytes, m.page_bytes, home);
  }
  return ms;
}

bool same_services(const mem::ProcCounters& a, const mem::ProcCounters& b) {
  for (int s = 0; s < mem::kNumServices; ++s) {
    if (a.serviced[s] != b.serviced[s]) return false;
  }
  return true;
}

/// Cost of one pair of clock reads around an empty region, in ns.
double clock_pair_ns() {
  std::vector<double> v;
  for (int i = 0; i < 20001; ++i) {
    const Clock::time_point a = Clock::now();
    const Clock::time_point b = Clock::now();
    v.push_back(ns_between(a, b));
  }
  return median(v);
}

struct ReplayResult {
  double batched_s = 0.0;
  double ns[2] = {0.0, 0.0};  ///< Summed per-call ns: [0] hits, [1] misses.
  std::uint64_t n[2] = {0, 0};
  std::uint64_t mismatches = 0;
  bool totals_match = false;
};

ReplayResult replay(const OpSpec& spec, const std::vector<Ref>& refs,
                    const ReplayPlan& plan, const mem::ProcCounters& want,
                    SpanLog& spans, int op) {
  const topo::MachineConfig& m = spec.sys.machine;
  const std::uint64_t lb = m.line_bytes;
  ReplayResult res;

  // Batched: one access() per run of contiguous lines, timed as a whole.
  auto ms = fresh_memsys(spec, plan);
  std::vector<std::uint64_t> clk(m.n_procs, 0);
  const Clock::time_point a = Clock::now();
  for (const ReplayPlan::Call& c : plan.calls) {
    if (c.n == 0) {
      ms->migrate(c.proc, c.line * m.page_bytes, m.page_bytes, c.home);
    } else {
      clk[c.proc] += ms->access(c.proc, c.line * lb, c.n * lb, c.write != 0,
                                clk[c.proc]);
    }
  }
  const Clock::time_point b = Clock::now();
  spans.add("memsim.replay", "traced_run", op, a, b);
  res.batched_s = seconds_between(a, b);
  const bool batched_ok = same_services(ms->monitor().total(), want);

  // Line by line, each call timed and its service checked against the
  // captured one through the PerfMonitor counter it must bump.
  ms = fresh_memsys(spec, plan);
  std::fill(clk.begin(), clk.end(), 0);
  std::size_t i = 0;  // Index of the next reference in `refs`.
  const Clock::time_point c0 = Clock::now();
  for (const ReplayPlan::Call& c : plan.calls) {
    if (c.n == 0) {
      ms->migrate(c.proc, c.line * m.page_bytes, m.page_bytes, c.home);
      continue;
    }
    for (std::uint64_t line = c.line; line < c.line + c.n; ++line, ++i) {
      const int s = ref_service(refs[i]);
      const std::uint64_t& counter = ms->monitor().proc(c.proc).serviced[s];
      const std::uint64_t before = counter;
      const Clock::time_point t0 = Clock::now();
      const std::uint64_t lat =
          ms->access(c.proc, line * lb, lb, c.write != 0, clk[c.proc]);
      const Clock::time_point t1 = Clock::now();
      clk[c.proc] += lat;
      const int k = is_hit(s) ? 0 : 1;
      res.ns[k] += ns_between(t0, t1);
      ++res.n[k];
      if (counter != before + 1) ++res.mismatches;
    }
  }
  spans.add("memsim.replay_per_line", "traced_run", op, c0, Clock::now());
  res.totals_match = batched_ok && same_services(ms->monitor().total(), want);
  return res;
}

// --- per-call timings of single memsim classes -------------------------------

struct CallCost {
  double ns = 0.0;
  std::uint64_t calls = 0;
  void add(Clock::time_point a, Clock::time_point b, std::uint64_t n) {
    ns += ns_between(a, b);
    calls += n;
  }
  [[nodiscard]] double per_call() const {
    return calls == 0 ? 0.0 : ns / static_cast<double>(calls);
  }
};

struct MemCalls {
  CallCost cache;
  CallCost directory;
  CallCost pagemap;
  CallCost fill;
};

/// Drive mem::Cache, mem::Directory, mem::PageMap and the op's channel
/// backend with the op's captured lines, in the order MemorySystem calls
/// them (caches on every reference; directory, page map and backend on
/// missed lines).
void time_mem_classes(const OpSpec& spec, const std::vector<Ref>& refs,
                      const ReplayPlan& plan, std::size_t dir_entries,
                      MemCalls& mc, SpanLog& spans, int op) {
  const topo::MachineConfig& m = spec.sys.machine;
  const std::uint64_t lb = m.line_bytes;

  std::vector<mem::Cache> l1;
  std::vector<mem::Cache> l2;
  for (std::uint32_t p = 0; p < m.n_procs; ++p) {
    l1.emplace_back(m.l1_bytes, m.l1_assoc, m.line_bytes);
    l2.emplace_back(m.l2_bytes, m.l2_assoc, m.line_bytes);
  }
  std::uint64_t calls = 0;
  Clock::time_point a = Clock::now();
  for (const Ref r : refs) {
    const topo::ProcId p = ref_proc(r);
    const std::uint64_t line = ref_line(r);
    if (l1[p].access(line)) {
      l2[p].access(line);
      calls += 2;
    } else if (l2[p].access(line)) {
      g_sink = g_sink + l1[p].insert(line).has_value();
      calls += 3;
    } else {
      g_sink = g_sink + l2[p].insert(line).has_value();
      g_sink = g_sink + l1[p].insert(line).has_value();
      calls += 4;
    }
  }
  Clock::time_point b = Clock::now();
  spans.add("memsim.cache", "traced_run", op, a, b);
  mc.cache.add(a, b, calls);

  std::vector<std::pair<std::uint64_t, topo::ProcId>> misses;
  std::vector<std::pair<std::uint64_t, topo::ProcId>> fills;
  for (const Ref r : refs) {
    if (is_hit(ref_service(r))) continue;
    misses.emplace_back(ref_line(r), ref_proc(r));
    if (is_fill(ref_service(r))) fills.emplace_back(ref_line(r), ref_home(r));
  }

  // The directory holds about as many entries as the op's did at its end:
  // each miss adds a sharer and retires the one added `window` misses ago.
  const std::size_t window = std::max<std::size_t>(1, dir_entries);
  mem::Directory dir;
  a = Clock::now();
  std::uint64_t dir_calls = 0;
  for (std::size_t i = 0; i < misses.size(); ++i) {
    const auto [line, p] = misses[i];
    g_sink = g_sink + dir.peek(line).sharers;
    dir.add_sharer(line, p);
    dir_calls += 2;
    if (i >= window) {
      const auto [old_line, old_p] = misses[i - window];
      dir.remove_sharer(old_line, old_p);
      ++dir_calls;
    }
  }
  b = Clock::now();
  spans.add("memsim.directory", "traced_run", op, a, b);
  mc.directory.add(a, b, dir_calls);

  mem::PageMap pages(m);
  for (const auto& [page, home] : plan.binds) {
    pages.bind_range(page * m.page_bytes, m.page_bytes, home);
  }
  a = Clock::now();
  for (const auto& [line, p] : misses) {
    g_sink = g_sink + pages.home_of(line * lb, p);
  }
  b = Clock::now();
  spans.add("memsim.pagemap", "traced_run", op, a, b);
  mc.pagemap.add(a, b, misses.size());

  const auto backend = mem::make_channel_backend(m, spec.sys.mem_channel);
  std::uint64_t now = 0;
  a = Clock::now();
  for (const auto& [line, home] : fills) {
    now += backend->demand_fill(m.cluster_of(home), line * lb, now) +
           m.lat.local_mem;
  }
  b = Clock::now();
  g_sink = g_sink + now;
  spans.add("memsim.channel.fill", "traced_run", op, a, b);
  mc.fill.add(a, b, fills.size());
}

// --- scheduler and task costs ------------------------------------------------

/// Fake object addresses stand in for the op's affinity objects; the
/// standalone scheduler maps them to homes page by page.
constexpr std::uint64_t kFakeBase = 1ull << 40;

cool::Affinity hint_for(const OpSpec& spec, std::uint64_t i) {
  const std::uint64_t pb = spec.sys.machine.page_bytes;
  auto obj = [pb](std::uint64_t k) {
    return reinterpret_cast<const void*>(kFakeBase + k * pb);
  };
  namespace ca = cool::apps;
  switch (spec.app) {
    case AppKind::kBarnesHut:
      if (spec.bh.variant == ca::barneshut::Variant::kBase) {
        return cool::Affinity::none();
      }
      return cool::Affinity::object(obj(i % static_cast<std::uint64_t>(
                                             spec.bh.n_bodies /
                                             spec.bh.block_size)));
    case AppKind::kPanel: {
      if (spec.panel.variant == ca::cholesky::PanelVariant::kBase ||
          spec.panel.variant == ca::cholesky::PanelVariant::kDistr) {
        return cool::Affinity::none();
      }
      const auto n = static_cast<std::uint64_t>(spec.panel.n_panels);
      return cool::Affinity::task_object(obj(i % n), obj((i * 7 + 1) % n));
    }
    case AppKind::kTxn:
      if (!spec.txn.hints) return cool::Affinity::none();
      return cool::Affinity::object(obj(i % static_cast<std::uint64_t>(
                                             spec.txn.warehouses *
                                             spec.txn.districts)));
  }
  return cool::Affinity::none();
}

/// Place `tasks` descriptors with the op's hint kind on a standalone
/// scheduler (spawner 0, like the apps' root tasks and the admission pump),
/// then acquire them all round-robin over the processors.
void time_scheduler(const OpSpec& spec, std::uint64_t tasks, CallCost& place,
                    CallCost& acquire, SpanLog& spans, int op) {
  const topo::MachineConfig& m = spec.sys.machine;
  cool::sched::Scheduler sched(
      m, spec.sys.policy, [&m](std::uint64_t addr, topo::ProcId) {
        return static_cast<topo::ProcId>((addr / m.page_bytes) % m.n_procs);
      });
  constexpr std::uint64_t kBatch = 1 << 16;
  std::vector<cool::sched::TaskDesc> descs(std::min(tasks, kBatch));
  std::uint64_t seq = 0;
  for (std::uint64_t done = 0; done < tasks;) {
    const std::uint64_t n = std::min(tasks - done, kBatch);
    for (std::uint64_t i = 0; i < n; ++i) {
      descs[i] = cool::sched::TaskDesc{};
      descs[i].aff = hint_for(spec, seq);
      descs[i].seq = seq++;
    }
    Clock::time_point a = Clock::now();
    for (std::uint64_t i = 0; i < n; ++i) sched.place(&descs[i], 0);
    Clock::time_point b = Clock::now();
    spans.add("sched.place", "traced_run", op, a, b);
    place.add(a, b, n);
    std::uint64_t left = n;
    a = Clock::now();
    for (topo::ProcId p = 0; left > 0; p = (p + 1) % m.n_procs) {
      if (sched.acquire(p).task != nullptr) --left;
    }
    b = Clock::now();
    spans.add("sched.acquire", "traced_run", op, a, b);
    acquire.add(a, b, n);
    done += n;
  }
}

cool::TaskFn empty_task() { co_return; }

/// Spawns `n` empty tasks, `batch` at a time, waiting for each batch.
cool::TaskFn spawn_empty(std::uint64_t n, std::uint64_t batch) {
  auto& c = co_await cool::self();
  while (n > 0) {
    const std::uint64_t k = std::min(n, batch);
    cool::TaskGroup g;
    for (std::uint64_t i = 0; i < k; ++i) {
      c.spawn(cool::Affinity::none(), g, empty_task());
    }
    co_await c.wait(g);
    n -= k;
  }
}

/// Runtime::run of `tasks` empty tasks at the op's machine and policy,
/// spawned by one root task in batches of 8 per processor. Batches stay
/// small because stealing from a deep queue costs host time that grows with
/// the queue (an empty task costs about 19x more at 4096 per batch than at
/// 64 on P=8); this probe prices the per-task path, not that pathology.
void time_tasks(const OpSpec& spec, std::uint64_t tasks, CallCost& cost,
                SpanLog& spans, int op) {
  cool::SystemConfig sc;
  sc.machine = spec.sys.machine;
  sc.policy = spec.sys.policy;
  cool::Runtime rt(sc);
  const Clock::time_point a = Clock::now();
  rt.run(spawn_empty(tasks, 8ull * sc.machine.n_procs));
  const Clock::time_point b = Clock::now();
  COOL_CHECK(rt.tasks_completed() >= tasks, "empty-task run lost tasks");
  spans.add("core.empty_tasks", "traced_run", op, a, b);
  cost.add(a, b, tasks);
}

// --- race-check slices (child processes) -------------------------------------

struct RaceSlice {
  double ns_per_ref = 0.0;
  double rss_mb = 0.0;
};

/// Run this binary in --race-slice mode and read its result and peak RSS.
bool race_slice(const Args& a, std::uint64_t requests, RaceSlice& out) {
  int fds[2];
  if (pipe(fds) != 0) return false;
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_adddup2(&fa, fds[1], 1);
  posix_spawn_file_actions_addclose(&fa, fds[0]);
  posix_spawn_file_actions_addclose(&fa, fds[1]);
  const std::string n = std::to_string(requests);
  const std::string seed = std::to_string(a.seed);
  const char* exe = "/proc/self/exe";
  std::vector<char*> argv = {const_cast<char*>(exe),
                             const_cast<char*>("--race-slice"),
                             const_cast<char*>(n.c_str()),
                             const_cast<char*>("--seed"),
                             const_cast<char*>(seed.c_str()), nullptr};
  pid_t pid = 0;
  const int rc = posix_spawn(&pid, exe, &fa, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  close(fds[1]);
  std::string text;
  char buf[256];
  for (ssize_t k; (k = read(fds[0], buf, sizeof buf)) > 0;) {
    text.append(buf, static_cast<std::size_t>(k));
  }
  close(fds[0]);
  if (rc != 0) return false;
  int status = 0;
  if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    return false;
  }
  unsigned long long refs = 0;
  double off_s = 0.0;
  double on_s = 0.0;
  if (std::sscanf(text.c_str(), "race %llu %lf %lf %lf", &refs, &off_s, &on_s,
                  &out.rss_mb) != 4 ||
      refs == 0) {
    return false;
  }
  out.ns_per_ref = (on_s - off_s) * 1e9 / static_cast<double>(refs);
  return true;
}

// --- the traced run ----------------------------------------------------------

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double per(std::uint64_t num, std::uint64_t den) {
  return ratio(static_cast<double>(num), static_cast<double>(den));
}

}  // namespace

int run_traced(const Args& a) {
  const Workload w = make_workload(a.workload, a.seed, a.tiny);
  OpChecker checker(w, a);
  SpanLog spans;
  const double clock_ns = clock_pair_ns();

  // Sums over the workload's ops.
  double ctor_s = 0, dtor_s = 0, apps_s = 0, capture_s = 0;
  double reqtrace_s = 0, sensor_s = 0, prof_extra_s = 0, arrivals_s = 0;
  std::uint64_t tasks = 0, prof_refs = 0, requests = 0;
  std::uint64_t epochs = 0, decisions = 0;
  std::uint64_t mismatches = 0, queue_full = 0, idle = 0;
  std::size_t dir_entries = 0;
  mem::ProcCounters mon;
  cool::sched::SchedStats st;
  ReplayResult rep_sum;
  MemCalls mc;
  CallCost place, acquire, task_cost;
  std::vector<double> snap_us, prof_snap_us;
  bool gate_ok = true;

  std::vector<OpOutcome> done;
  for (std::size_t i = 0; i < w.ops.size(); ++i) {
    const int op = static_cast<int>(i);

    // Plain: checked like every end-to-end op.
    RunInfo plain;
    TraceHooks plain_hooks(spans, op, "plain", nullptr, plain);
    const bool ok = checker.run(i, done, plain.out, &plain.t, &plain_hooks);
    done.push_back(plain.out);
    if (!ok) {
      gate_ok = false;
      continue;
    }
    add_run_spans(spans, "plain", op, plain.t);
    const OpSpec spec = resolve(w.ops[i], done);
    ctor_s += seconds_between(plain.t.start, plain.t.built);
    dtor_s += seconds_between(plain.t.dtor_start, plain.t.end);
    apps_s += run_s(plain);
    tasks += plain.out.tasks;
    mon.add(plain.mon);
    dir_entries = std::max(dir_entries, plain.dir_entries);
    queue_full += plain.queue_full_stalls;
    idle += plain.idle_cycles;
    epochs += plain.epochs;
    decisions += plain.decisions;
    st.steals += plain.sched.steals;
    st.failed_steal_scans += plain.sched.failed_steal_scans;
    snap_us.insert(snap_us.end(), plain.snapshot_us.begin(),
                   plain.snapshot_us.end());
    if (spec.app == AppKind::kTxn) {
      requests += spec.txn.arrivals.n_requests;
      const Clock::time_point t0 = Clock::now();
      g_sink = g_sink + cool::load::generate_arrivals(spec.txn.arrivals).size();
      const Clock::time_point t1 = Clock::now();
      spans.add("load.generate_arrivals", "traced_run", op, t0, t1);
      arrivals_s += seconds_between(t0, t1);
    }
    auto passive = [&](const RunInfo& r, const char* what) {
      if (r.out.digest == plain.out.digest) return;
      checker.fail(spec.name + ": " + what + " changed the simulation (" +
                   first_difference(plain.out.fields, r.out.fields) + ")");
    };

    // Profiler cost per reference, with adaptation off so that the profiler
    // is the only difference between the two runs.
    OpSpec off = spec;
    off.sys.adapt = false;
    off.sys.profile = false;
    OpSpec on = off;
    on.sys.profile = true;
    const RunInfo base =
        spec.sys.adapt ? traced_run(spans, op, "profile_off", off) : plain;
    const RunInfo prof = traced_run(spans, op, "profile_on", on);
    if (prof.out.digest != base.out.digest) {
      checker.fail(spec.name + ": the profiler changed the simulation (" +
                   first_difference(base.out.fields, prof.out.fields) + ")");
    }
    prof_extra_s += run_s(prof) - run_s(base);
    prof_refs += base.out.line_refs;
    const std::vector<double>& ps = plain.profile_snapshot_us.empty()
                                        ? prof.profile_snapshot_us
                                        : plain.profile_snapshot_us;
    prof_snap_us.insert(prof_snap_us.end(), ps.begin(), ps.end());
    sensor_s += static_cast<double>(plain.epochs) *
                (median(plain.snapshot_us) + median(ps)) * 1e-6;

    // Request tracing: the same op with the recorder off.
    if (spec.sys.req_trace) {
      OpSpec untraced = spec;
      untraced.sys.req_trace = false;
      const RunInfo r = traced_run(spans, op, "reqtrace_off", untraced);
      passive(r, "the request tracer");
      reqtrace_s += run_s(plain) - run_s(r);
    }

    // Capture, replay, and per-class timings on the captured lines.
    LineCapture cap(spec.sys.machine.line_bytes);
    const RunInfo captured = traced_run(spans, op, "capture", spec, &cap);
    passive(captured, "the capture tap");
    capture_s += run_s(captured);
    ReplayPlan plan;
    const bool planned = !cap.overflow &&
                         cap.refs.size() == plain.mon.accesses() &&
                         plan_replay(cap.refs, spec.sys.machine, plan);
    if (!planned) {
      checker.fail(spec.name + ": the captured stream cannot be replayed");
      gate_ok = false;
    } else {
      const ReplayResult r = replay(spec, cap.refs, plan, plain.mon, spans, op);
      rep_sum.batched_s += r.batched_s;
      for (int k = 0; k < 2; ++k) {
        rep_sum.ns[k] += r.ns[k] - clock_ns * static_cast<double>(r.n[k]);
        rep_sum.n[k] += r.n[k];
      }
      mismatches += r.mismatches;
      if (r.mismatches != 0 || !r.totals_match) {
        // The tap shows a migration only as a new page home at the page's
        // next reference; a flush that keeps the home is invisible to it.
        std::size_t moves = 0;
        for (const ReplayPlan::Call& c : plan.calls) moves += c.n == 0 ? 1 : 0;
        checker.fail(spec.name + ": replay serviced " +
                     std::to_string(r.mismatches) +
                     " references at another level than captured" +
                     (r.totals_match ? "" : "; per-service totals differ") +
                     " (op migrated " +
                     std::to_string(plain.mon.pages_migrated) +
                     " pages, the tap saw " + std::to_string(moves) +
                     " home changes)");
        gate_ok = false;
      }
      time_mem_classes(spec, cap.refs, plan, plain.dir_entries, mc, spans, op);
    }
    cap.refs = {};
    time_scheduler(spec, plain.out.tasks, place, acquire, spans, op);
    time_tasks(spec, plain.out.tasks, task_cost, spans, op);
  }

  RaceSlice small, large;
  const bool race = w.name == "txn_serve" && !a.tiny;
  if (race && (!race_slice(a, 4096, small) || !race_slice(a, 16384, large))) {
    checker.fail("race-check slice failed");
  }
  if (!a.trace_out.empty()) {
    spans.write(a.trace_out + "/spans-" + w.name + "-" +
                std::to_string(a.seed) + ".json");
  }

  auto num = [](std::uint64_t v) { return static_cast<double>(v); };
  const std::uint64_t refs = mon.accesses();
  const std::uint64_t hits = mon.serviced[0] + mon.serviced[1];
  const std::uint64_t fills = mon.serviced[2] + mon.serviced[3];
  Metrics m;
  m.add("core.runtime_ctor_s", ctor_s, "s");
  m.add("core.runtime_dtor_s", dtor_s, "s");
  m.add("core.tasks", num(tasks), "count");
  m.add("core.task_ns", task_cost.per_call(), "ns");
  m.add("apps.run_s", apps_s, "s");
  m.add("memsim.refs", num(refs), "count");
  m.add("memsim.hit_ratio", per(hits, refs), "ratio");
  m.add("memsim.misses", num(mon.misses()), "count");
  m.add("memsim.remote_ratio", per(mon.remote_misses(), mon.misses()), "ratio");
  m.add("memsim.invals", num(mon.invals_sent), "count");
  m.add("memsim.writebacks", num(mon.writebacks), "count");
  m.add("memsim.dir_entries", num(dir_entries), "count");
  m.add("memsim.stall_cycles", num(mon.latency_cycles), "cycles");
  m.add("memsim.replay_mismatch", num(mismatches), "count");
  if (gate_ok) {
    // Withheld when the replay does not reproduce the op (the run fails).
    m.add("core.nonmem_s",
          apps_s - rep_sum.batched_s - sensor_s - reqtrace_s, "s");
    m.add("memsim.replay_s", rep_sum.batched_s, "s");
    m.add("memsim.hit_ns", ratio(rep_sum.ns[0], num(rep_sum.n[0])), "ns");
    m.add("memsim.miss_ns", ratio(rep_sum.ns[1], num(rep_sum.n[1])), "ns");
    m.add("memsim.cache_ns", mc.cache.per_call(), "ns");
    m.add("memsim.directory_ns", mc.directory.per_call(), "ns");
    m.add("memsim.pagemap_ns", mc.pagemap.per_call(), "ns");
    m.add("memsim.channel.fill_ns", mc.fill.per_call(), "ns");
  }
  m.add("memsim.channel.fills", num(fills), "count");
  m.add("memsim.channel.contention_cycles", num(mon.contention_cycles),
        "cycles");
  m.add("memsim.channel.queue_full_stalls", num(queue_full), "count");
  m.add("sched.steals", num(st.steals), "count");
  m.add("sched.failed_steal_scans", num(st.failed_steal_scans), "count");
  m.add("sched.steal_success",
        per(st.steals, st.steals + st.failed_steal_scans), "ratio");
  m.add("sched.idle_cycles", num(idle), "cycles");
  m.add("sched.place_ns", place.per_call(), "ns");
  m.add("sched.acquire_ns", acquire.per_call(), "ns");
  m.add("load.requests", num(requests), "count");
  m.add("load.arrivals_s", arrivals_s, "s");
  m.add("obs.snapshot_us", median(snap_us), "us");
  m.add("obs.profile_snapshot_us", median(prof_snap_us), "us");
  m.add("obs.reqtrace_s", reqtrace_s, "s");
  m.add("obs.profile_ns_per_ref", ratio(prof_extra_s * 1e9, num(prof_refs)),
        "ns");
  m.add("adaptive.epochs", num(epochs), "count");
  m.add("adaptive.decisions", num(decisions), "count");
  m.add("adaptive.sensor_s", sensor_s, "s");
  m.add("analysis.race_ns_per_ref.4096", small.ns_per_ref, "ns");
  m.add("analysis.race_rss_mb.4096", small.rss_mb, "MB");
  m.add("analysis.race_ns_per_ref.16384", large.ns_per_ref, "ns");
  m.add("analysis.race_rss_mb.16384", large.rss_mb, "MB");
  m.add("trace.overhead_pct", 100.0 * ratio(capture_s - apps_s, apps_s), "%");
  std::printf("workload %s seed %llu traced\n", w.name.c_str(),
              static_cast<unsigned long long>(a.seed));
  return checker.finish(m);
}

int run_race_slice(const Args& a) {
  try {
    Workload w = make_workload("txn_serve", a.seed, false);
    for (OpSpec& op : w.ops) op.txn.arrivals.n_requests = a.race_slice;
    std::vector<OpOutcome> done = {run_op(w.ops[0])};
    OpSpec open = resolve(w.ops[1], done);
    OpTimes off_t;
    OpTimes on_t;
    const OpOutcome off = run_op(open, &off_t);
    open.sys.race_check = true;
    const OpOutcome on = run_op(open, &on_t);
    COOL_CHECK(on.digest == off.digest, "race detector changed the simulation");
    std::printf("race %llu %.9f %.9f %.6f\n",
                static_cast<unsigned long long>(off.line_refs),
                seconds_between(off_t.built, off_t.ran),
                seconds_between(on_t.built, on_t.ran), peak_rss_mb());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: race slice: %s\n", e.what());
    return 1;
  }
}

}  // namespace perfbench
