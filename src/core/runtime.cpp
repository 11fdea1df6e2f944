#include "core/runtime.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "common/bitops.hpp"
#include "core/sync.hpp"

namespace cool {

Runtime::Runtime(SystemConfig cfg) : cfg_(cfg) {
  cfg_.machine.validate();
  // The Reserve balancer needs profiled heat. Only the simulation engine
  // builds the profiler, for --profile or as --adapt's sensor.
  const bool profiled = cfg_.mode == SystemConfig::Mode::kSim &&
                        (cfg_.profile || cfg_.adapt);
  sched::validate_policy(cfg_.policy, cfg_.machine, profiled);
  if (cfg_.mode == SystemConfig::Mode::kSim) {
    sim_ = std::make_unique<SimEngine>(cfg_.machine, cfg_.policy, cfg_.trace,
                                       cfg_.trace_ring_capacity,
                                       cfg_.mem_channel);
    eng_ = sim_.get();
  } else {
    thr_ = std::make_unique<ThreadEngine>(cfg_.machine, cfg_.policy,
                                          cfg_.trace, cfg_.trace_ring_capacity);
    eng_ = thr_.get();
  }
  if (profiled) {
    prof_ = std::make_unique<obs::LocalityProfiler>(cfg_.machine);
    sim_->attach_profiler(prof_.get());
    // Close the profiler -> scheduler loop for the Reserve balancer: its heat
    // source is the profiler's per-object stall attribution, translated from
    // arena-relative addresses back to the raw pointers place() sees. The
    // cluster homing the most serviced misses owns the object's hot pages.
    sim_->scheduler().set_hotness_source([this] {
      std::vector<sched::DataHotness> out;
      const obs::ProfileSnapshot snap = prof_->snapshot();
      const std::uint64_t base = reinterpret_cast<std::uint64_t>(arena_);
      for (const obs::ProfileSnapshot::ObjectRow& o : snap.objects) {
        if (o.anonymous || o.s.stall_cycles == 0) continue;
        std::uint64_t best_misses = 0;
        topo::ClusterId best_cluster = 0;
        for (std::size_t c = 0; c < o.miss_home_cluster.size(); ++c) {
          if (o.miss_home_cluster[c] > best_misses) {  // ties: lowest cluster
            best_misses = o.miss_home_cluster[c];
            best_cluster = static_cast<topo::ClusterId>(c);
          }
        }
        if (best_misses == 0) continue;  // no serviced misses yet: cold
        out.push_back({o.addr + base, o.bytes, best_cluster, o.s.stall_cycles});
      }
      std::sort(out.begin(), out.end(),
                [](const sched::DataHotness& a, const sched::DataHotness& b) {
                  if (a.heat != b.heat) return a.heat > b.heat;
                  return a.addr < b.addr;
                });
      constexpr std::size_t kTop = 16;
      if (out.size() > kTop) out.resize(kTop);
      return out;
    });
  }
  if (cfg_.race_check && sim_) {
    race_ = std::make_unique<analysis::RaceDetector>(cfg_.machine);
    sim_->attach_race(race_.get(), race_.get());
  }
  if (cfg_.req_trace && sim_) {
    // 2^14 spans per processor ring (on overflow the oldest are dropped and
    // counted in obs.reqtrace.dropped; the breakdown histograms stay exact),
    // and the 8 slowest measured requests keep their span chains as
    // exemplars for the Chrome-trace export.
    reqtrace_ = std::make_unique<obs::RequestTraceRecorder>(
        cfg_.machine.n_procs, std::size_t{1} << 14, 8);
    sim_->attach_request_trace(reqtrace_.get());
  }
  // Reserve the allocation arena (lazily backed; pages materialise on touch).
  void* mem = ::mmap(nullptr, cfg_.arena_bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  COOL_CHECK(mem != MAP_FAILED, "failed to reserve the runtime arena");
  arena_ = static_cast<char*>(mem);
  eng_->set_addr_base(reinterpret_cast<std::uint64_t>(arena_));
  if (cfg_.adapt && sim_) {
    adaptive::Hooks h;
    h.profile = [this](obs::ProfileDelta& out) { prof_->read_epoch(out); };
    h.signals = [this] { return advisor_signals(); };
    h.migrate = [this](topo::ProcId caller, std::uint64_t addr,
                       std::uint64_t bytes, topo::ProcId target,
                       std::uint64_t now) {
      return sim_->adaptive_migrate(caller, addr, bytes, target, now);
    };
    // The profiler keys sets by arena-relative object address; the scheduler
    // promotion table matches raw Affinity::object_obj values, so translate.
    h.promote = [this](std::uint64_t set_key, bool on) {
      sim_->scheduler().set_task_promotion(
          set_key + reinterpret_cast<std::uint64_t>(arena_), on);
    };
    h.mutate_policy = [this](const std::function<void(sched::Policy&)>& fn) {
      sim_->scheduler().adapt_policy(fn);
    };
    h.policy = [this] { return sim_->scheduler().policy(); };
    adapt_ = std::make_unique<adaptive::AdaptiveEngine>(
        cfg_.machine, cfg_.adapt_policy, std::move(h));
    sim_->attach_adaptive(adapt_.get());
  }
}

Runtime::~Runtime() {
  // Engines (and any leftover task frames) die before the arena they use.
  sim_.reset();
  thr_.reset();
  if (arena_ != nullptr) ::munmap(arena_, cfg_.arena_bytes);
}

void Runtime::run(TaskFn&& root) {
  if (sim_) {
    sim_->run(std::move(root));
  } else {
    thr_->run(std::move(root), cfg_.thread_timeout_ms);
  }
}

void* Runtime::alloc_bytes(std::size_t bytes, std::int64_t home) {
  COOL_CHECK(bytes > 0, "alloc_bytes: empty allocation");
  const std::size_t page = cfg_.machine.page_bytes;
  const std::size_t rounded = static_cast<std::size_t>(
      util::align_up(bytes, page));
  // Pad each allocation by 1..13 pages, cycling deterministically. Without
  // padding, a bump allocator hands out power-of-two (or long-range
  // periodic) strides and corresponding pieces of different arrays collide
  // pathologically in the direct-mapped DASH caches; SPLASH codes padded
  // their arrays for the same reason. The pad varies because a fixed pad
  // still re-aligns with the cache sets over long allocation sequences (k
  // allocations x fixed stride can be a multiple of the cache size).
  constexpr std::size_t kMaxPadPages = 13;
  const std::size_t stagger = page * (1 + (n_allocs_ * 5) % kMaxPadPages);
  ++n_allocs_;
  COOL_CHECK(arena_used_ + rounded + stagger <= cfg_.arena_bytes,
             "runtime arena exhausted — raise SystemConfig::arena_bytes");
  void* p = arena_ + arena_used_;
  arena_used_ += rounded + stagger;
  if (home >= 0) {
    const auto target = static_cast<topo::ProcId>(
        static_cast<std::uint64_t>(home) % cfg_.machine.n_procs);
    eng_->bind_range(reinterpret_cast<std::uint64_t>(p), rounded, target);
  }
  return p;
}

void Runtime::migrate(const void* p, std::int64_t target, std::size_t bytes) {
  COOL_CHECK(p != nullptr, "migrate: null pointer");
  const auto t = static_cast<topo::ProcId>(
      static_cast<std::uint64_t>(target < 0 ? 0 : target) %
      cfg_.machine.n_procs);
  eng_->bind_range(reinterpret_cast<std::uint64_t>(p),
                   bytes == 0 ? 1 : bytes, t);
}

topo::ProcId Runtime::home(const void* p) {
  return eng_->home(reinterpret_cast<std::uint64_t>(p), 0);
}

bool Runtime::profile_register(const std::string& name, const void* p,
                               std::size_t bytes) {
  if ((!prof_ && !race_) || p == nullptr || bytes == 0) return false;
  const std::uint64_t addr =
      reinterpret_cast<std::uint64_t>(p) - reinterpret_cast<std::uint64_t>(arena_);
  // Home for display only, and only if already bound — home_of() would
  // first-touch-bind the page, which must not happen from a passive observer.
  topo::ProcId home_proc = 0;
  if (sim_ && sim_->memsys().pages().is_bound(addr)) {
    home_proc = sim_->memsys().pages().home_of_bound(addr);
  }
  bool ok = true;
  if (prof_) ok = prof_->register_object(name, addr, bytes, home_proc);
  if (race_) {
    const bool rok = race_->registry().add(name, addr, bytes, home_proc);
    if (!prof_) ok = rok;
  }
  return ok;
}

obs::ProfileSnapshot Runtime::profile_snapshot() const {
  return prof_ ? prof_->snapshot() : obs::ProfileSnapshot{};
}

std::uint64_t Runtime::sim_time() const {
  return sim_ ? sim_->finish_time() : 0;
}

const mem::PerfMonitor* Runtime::monitor() const {
  return sim_ ? &sim_->memsys().monitor() : nullptr;
}

sched::SchedStats Runtime::sched_stats() const {
  return sim_ ? sim_->scheduler().stats() : thr_->scheduler().stats();
}

std::vector<ProcUtil> Runtime::utilization() const {
  return sim_ ? sim_->utilization() : std::vector<ProcUtil>(cfg_.machine.n_procs);
}

std::uint64_t Runtime::tasks_completed() const {
  return sim_ ? sim_->tasks_completed() : thr_->tasks_completed();
}

std::vector<obs::Event> Runtime::trace_events() const {
  const obs::TraceCollector* tc =
      sim_ ? sim_->trace_collector() : thr_->trace_collector();
  return tc != nullptr ? tc->merged() : std::vector<obs::Event>{};
}

std::string Runtime::chrome_trace() const {
  if (prof_) {
    const obs::ProfileSnapshot p = prof_->snapshot();
    return obs::chrome_trace_json(trace_events(), &p);
  }
  return obs::chrome_trace_json(trace_events());
}

obs::Snapshot Runtime::obs_snapshot() const {
  obs::Snapshot s;
  auto put = [&s](const char* name, std::uint64_t v) { s.values[name] = v; };

  put("tasks.completed", tasks_completed());
  if (sim_) {
    put("engine.parks", sim_->parks());
  } else {
    put("sched.idle.sleeps", thr_->idle_gates().sleeps());
    put("sched.idle.wakeups", thr_->idle_gates().wakeups());
  }

  const sched::SchedStats ss = sched_stats();
  put("sched.spawned", ss.spawned);
  put("sched.pops", ss.pops);
  put("sched.steals", ss.steals);
  put("sched.set_steals", ss.set_steals);
  put("sched.tasks_stolen", ss.tasks_stolen);
  put("sched.remote_cluster_steals", ss.remote_cluster_steals);
  put("sched.failed_steal_scans", ss.failed_steal_scans);
  put("sched.resumes", ss.resumes);
  put("sched.balance.commands", ss.balance_commands);
  put("sched.balance.moves", ss.balance_moves);
  put("sched.balance.reserve_hits", ss.reserve_hits);

  const sched::Scheduler& sch =
      sim_ ? sim_->scheduler() : thr_->scheduler();
  const sched::SchedDetail sd = sch.detail();
  s.hists["sched.steal_scan_victims"] = sd.steal_scan_victims;
  s.hists["sched.affinity_run_length"] = sd.affinity_run_length;
  for (std::size_t c = 0; c < sd.reserve_hits_by_cluster.size(); ++c) {
    s.values["sched.balance.reserve_hits.cluster" + std::to_string(c)] =
        sd.reserve_hits_by_cluster[c];
  }
  std::uint64_t max_depth = 0;
  std::uint64_t max_now = 0;
  for (std::uint32_t p = 0; p < cfg_.machine.n_procs; ++p) {
    max_depth = std::max<std::uint64_t>(max_depth, sch.queues(p).max_depth());
    max_now = std::max<std::uint64_t>(max_now, sch.queues(p).size());
  }
  put("sched.queue.max_depth", max_depth);
  put("sched.queue.max_now", max_now);
  put("sched.queue.now", sch.total_queued());

  if (sim_) {
    put("sim.time", sim_time());
    const auto mem = monitor()->total();
    put("mem.accesses", mem.accesses());
    put("mem.misses", mem.misses());
    put("mem.local_misses", mem.local_misses());
    put("mem.remote_misses", mem.remote_misses());
    put("mem.upgrades", mem.upgrades);
    put("mem.invals_sent", mem.invals_sent);
    put("mem.writebacks", mem.writebacks);
    put("mem.latency_cycles", mem.latency_cycles);
    put("mem.contention_cycles", mem.contention_cycles);
    put("mem.pages_migrated", mem.pages_migrated);
    put("mem.prefetches", mem.prefetches);
    std::uint64_t busy = 0;
    std::uint64_t idle = 0;
    std::uint64_t sched_cycles = 0;
    for (const ProcUtil& u : sim_->utilization()) {
      busy += u.busy;
      idle += u.idle;
      sched_cycles += u.sched;
    }
    put("proc.busy_cycles", busy);
    put("proc.idle_cycles", idle);
    put("proc.sched_cycles", sched_cycles);

    // Per-channel memory-backend gauges (empty under the default flat model,
    // so default snapshots stay byte-identical). Keys sort numerically —
    // mem.chan.2 before mem.chan.10 — via Snapshot's natural key order.
    const auto chans = sim_->memsys().channel().stats();
    if (!chans.empty()) {
      std::uint64_t chan_busy = 0;
      std::uint64_t hits = 0;
      std::uint64_t misses = 0;
      std::uint64_t conflicts = 0;
      std::uint64_t hwm = 0;
      std::uint64_t full = 0;
      std::uint64_t drops = 0;
      std::uint64_t requests = 0;
      char key[64];
      for (std::size_t i = 0; i < chans.size(); ++i) {
        const mem::ChannelCounters& cc = chans[i];
        std::snprintf(key, sizeof key, "mem.chan.%zu.busy_cycles", i);
        s.values[key] = cc.busy_cycles;
        std::snprintf(key, sizeof key, "mem.chan.%zu.requests", i);
        s.values[key] = cc.requests;
        std::snprintf(key, sizeof key, "mem.chan.%zu.queue_hwm", i);
        s.values[key] = cc.queue_hwm;
        std::snprintf(key, sizeof key, "mem.chan.%zu.row_hits", i);
        s.values[key] = cc.row_hits;
        std::snprintf(key, sizeof key, "mem.chan.%zu.row_misses", i);
        s.values[key] = cc.row_misses;
        std::snprintf(key, sizeof key, "mem.chan.%zu.row_conflicts", i);
        s.values[key] = cc.row_conflicts;
        chan_busy += cc.busy_cycles;
        hits += cc.row_hits;
        misses += cc.row_misses;
        conflicts += cc.row_conflicts;
        hwm = std::max(hwm, cc.queue_hwm);
        full += cc.queue_full_stalls;
        drops += cc.prefetch_drops;
        requests += cc.requests;
      }
      put("mem.chan.count", chans.size());
      put("mem.chan.busy_cycles", chan_busy);
      put("mem.chan.requests", requests);
      put("mem.chan.queue_hwm", hwm);
      put("mem.chan.row_hits", hits);
      put("mem.chan.row_misses", misses);
      put("mem.chan.row_conflicts", conflicts);
      put("mem.chan.queue_full_stalls", full);
      put("mem.chan.prefetch_drops", drops);
      // Saturation over the run so far, in parts per million: total service
      // cycles drained vs total channel-cycles available. sim_time() is only
      // set once a run() completes; mid-run snapshots skip the gauge.
      if (sim_time() > 0)
        put("mem.chan.saturation_ppm",
            chan_busy * 1000000 / (chans.size() * sim_time()));
    }
  }

  const obs::TraceCollector* tc =
      sim_ ? sim_->trace_collector() : thr_->trace_collector();
  if (tc != nullptr) {
    put("obs.trace.events", tc->total_size());
    put("obs.trace.dropped", tc->total_dropped());
    // Per-ring drop counters: the aggregate alone can't say *which*
    // processor's timeline is truncated (runner --compare warns on any).
    char key[48];
    for (std::uint32_t p = 0; p < tc->n_procs(); ++p) {
      std::snprintf(key, sizeof key, "obs.trace.dropped.p%u", p);
      s.values[key] = tc->buf(static_cast<topo::ProcId>(p)).dropped();
    }
  }
  if (reqtrace_ != nullptr) {
    put("obs.reqtrace.completed", reqtrace_->completed());
    put("obs.reqtrace.spans", reqtrace_->total_spans());
    put("obs.reqtrace.dropped", reqtrace_->total_dropped());
    char key[48];
    for (std::uint32_t p = 0; p < reqtrace_->n_procs(); ++p) {
      std::snprintf(key, sizeof key, "obs.reqtrace.dropped.p%u", p);
      s.values[key] = reqtrace_->dropped(static_cast<topo::ProcId>(p));
    }
  }
  return s;
}

obs::advisor::Signals Runtime::advisor_signals() const {
  obs::advisor::Signals s;
  const sched::SchedStats ss = sched_stats();
  s.failed_steal_scans = ss.failed_steal_scans;
  s.steals = ss.steals;
  const sched::Scheduler& sch = sim_ ? sim_->scheduler() : thr_->scheduler();
  for (std::uint32_t p = 0; p < cfg_.machine.n_procs; ++p) {
    s.queue_max_now =
        std::max<std::uint64_t>(s.queue_max_now, sch.queues(p).size());
  }
  if (!sim_) return s;
  s.span = sim_time();
  for (const ProcUtil& u : sim_->utilization()) {
    s.busy_cycles += u.busy;
    s.idle_cycles += u.idle;
  }
  const std::vector<mem::ChannelCounters> chans =
      sim_->memsys().channel().stats();
  s.chan_busy.reserve(chans.size());
  for (const mem::ChannelCounters& cc : chans) {
    s.chan_busy.push_back(cc.busy_cycles);
    s.chan_busy_total += cc.busy_cycles;
    s.chan_queue_full_stalls += cc.queue_full_stalls;
    s.chan_row_hits += cc.row_hits;
    s.chan_row_misses += cc.row_misses;
    s.chan_row_conflicts += cc.row_conflicts;
  }
  return s;
}

// --- Ctx spawn glue ----------------------------------------------------------

void Ctx::spawn(const Affinity& aff, TaskGroup& group, TaskFn&& fn) {
  COOL_CHECK(fn.valid(), "spawn of empty TaskFn");
  auto* rec = new TaskRecord;
  rec->handle = fn.release();
  rec->desc.aff = aff;
  rec->group = &group;
  group.add_task();
  eng_->spawn_record(rec, this);
}

void Ctx::spawn_request(const Affinity& aff, TaskGroup& group,
                        std::uint32_t req, TaskFn&& fn) {
  COOL_CHECK(fn.valid(), "spawn of empty TaskFn");
  COOL_CHECK(req != sched::kNoRequest, "spawn_request: reserved request id");
  auto* rec = new TaskRecord;
  rec->handle = fn.release();
  rec->desc.aff = aff;
  rec->desc.req = req;
  rec->group = &group;
  group.add_task();
  eng_->spawn_record(rec, this);
}

void Ctx::spawn(const Affinity& aff, TaskFn&& fn) {
  COOL_CHECK(fn.valid(), "spawn of empty TaskFn");
  auto* rec = new TaskRecord;
  rec->handle = fn.release();
  rec->desc.aff = aff;
  eng_->spawn_record(rec, this);
}

std::uint64_t Ctx::migrate(const void* p, std::int64_t target,
                           std::size_t bytes) {
  COOL_CHECK(p != nullptr, "migrate: null pointer");
  // Paper semantics: the processor number is taken modulo the number of
  // server processes.
  return eng_->migrate(*this, reinterpret_cast<std::uint64_t>(p),
                       bytes == 0 ? 1 : bytes, eng_->resolve_proc(target));
}

}  // namespace cool
