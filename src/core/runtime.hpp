// cool::Runtime — the public entry point of the library.
//
// Construct one with a SystemConfig (execution mode, machine description,
// scheduling policy), allocate your shared objects through it so
// the page map knows their homes, then `run()` a root task. All figures in
// the paper are produced with Mode::kSim (the DASH model); Mode::kThreads
// executes the identical program on real threads for functional testing.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "adaptive/engine.hpp"
#include "analysis/race_detector.hpp"
#include "core/sim_engine.hpp"
#include "core/taskfn.hpp"
#include "core/thread_engine.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sched/scheduler.hpp"
#include "topology/machine.hpp"

namespace cool {

struct SystemConfig {
  enum class Mode { kSim, kThreads };
  Mode mode = Mode::kSim;
  topo::MachineConfig machine = topo::MachineConfig::dash();
  sched::Policy policy;
  /// Memory-timing backend for kSim (see memsim/channel/backend.hpp): the
  /// default flat model reproduces the paper's figures byte-for-byte;
  /// Kind::kDdr adds channel/bank contention, open-row state and bounded
  /// queues so bandwidth saturation and queueing tails become visible.
  mem::ChannelConfig mem_channel;
  std::uint64_t thread_timeout_ms = 60000;  ///< kThreads deadlock guard.
  /// Record typed trace events (task spans, steals, migrations, idle gaps)
  /// into per-processor ring buffers. Works under both engines; kSim stamps
  /// simulated cycles, kThreads stamps wall-clock microseconds.
  bool trace = false;
  /// Capacity of each per-processor trace ring; on overflow the oldest
  /// events are dropped (and counted — see obs.trace.dropped).
  std::size_t trace_ring_capacity = 1 << 16;
  /// Attach the per-request trace recorder (kSim only, like race_check): tag
  /// served requests (load::Driver spawns) with their ids, chain their
  /// dispatch spans into per-processor rings, and decompose every request's
  /// latency into queue_wait / service / memory_stall / steal_penalty (see
  /// obs/request_trace.hpp). Passive — simulated cycle counts are identical
  /// with it on — and when off nothing is constructed: the memory system
  /// never sees the observer and the engine pays one null check per dispatch.
  bool req_trace = false;
  /// Attach the locality profiler (kSim only, like race_check): attribute
  /// every simulated memory access to the object/region and affinity set it
  /// hits (see obs/profiler.hpp). The tap is passive — simulated cycle counts
  /// are identical with it on — and when off no profiler is even
  /// constructed. Under kThreads there is no memory reference to attribute,
  /// so it is ignored there, and the Reserve balancer is refused.
  bool profile = false;
  /// Attach the happens-before race detector (kSim only — it needs the sim
  /// engine's deterministic interleaving; silently ignored under kThreads,
  /// where TSan covers the same ground). Passive like the profiler: cycle
  /// counts are identical with it on, and when off nothing is constructed.
  bool race_check = false;
  /// Attach the online adaptive locality runtime (kSim only — its policy
  /// mutations assume the sim engine's single-threaded dispatch loop;
  /// silently ignored under kThreads, like race_check). Constructs the
  /// profiler as its sensor even without `profile`. Unlike the passive
  /// observers, adaptation charges simulated cycles for its epoch
  /// evaluations and migrations — that cost is the point being modelled.
  /// With `adapt` off, nothing is constructed and cycle counts are
  /// byte-identical to a build without the subsystem.
  bool adapt = false;
  /// Knobs for the adaptation engine (epoch length, cooldown, actions per
  /// epoch, the balancer actuator and the latency objective); see
  /// adaptive/policy.hpp. Loaded from `--adapt=policy.json` by benches.
  adaptive::AdaptPolicy adapt_policy;
  /// Size of the runtime's allocation arena (virtual memory, touched lazily).
  /// Allocations are bump-allocated from it so simulated addresses are
  /// arena-relative and every run is bit-reproducible.
  std::size_t arena_bytes = 1ull << 30;
};

class Runtime {
 public:
  explicit Runtime(SystemConfig cfg);
  ~Runtime();
  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Execute `root` and everything it spawns to completion. May be called
  /// repeatedly (clocks and counters accumulate) — but not after a run threw
  /// (deadlock / task exception): tasks left blocked by the failed run would
  /// make every later run appear deadlocked. Build a fresh Runtime instead.
  void run(TaskFn&& root);

  /// Allocate a zero-initialised array of `n` T, page-aligned so its pages
  /// belong to this object alone. `home >= 0` binds the pages to that
  /// processor's local memory (COOL's placed `new`, modulo n_procs);
  /// `home < 0` leaves them to first-touch. Freed when the Runtime dies.
  template <typename T>
  T* alloc_array(std::size_t n, std::int64_t home = -1) {
    return static_cast<T*>(alloc_bytes(n * sizeof(T), home));
  }

  /// Untyped variant of alloc_array. NOT safe to call from tasks running
  /// under the threads engine (the arena bump pointer is unsynchronised);
  /// allocate before run(), as every bundled application does.
  void* alloc_bytes(std::size_t bytes, std::int64_t home = -1);

  /// Setup-time migrate (no cycle charge): rebind the pages spanned by
  /// [p, p+bytes) to `target % n_procs`.
  void migrate(const void* p, std::int64_t target, std::size_t bytes);

  /// Home processor of `p` (first-touch binds to processor 0).
  topo::ProcId home(const void* p);

  // --- results & instrumentation ------------------------------------------
  /// Parallel completion time in simulated cycles (kSim; 0 under kThreads).
  [[nodiscard]] std::uint64_t sim_time() const;
  /// DASH performance-monitor counters (null under kThreads).
  [[nodiscard]] const mem::PerfMonitor* monitor() const;
  /// Snapshot of the scheduler counters (aggregated across server shards).
  [[nodiscard]] sched::SchedStats sched_stats() const;
  [[nodiscard]] std::vector<ProcUtil> utilization() const;
  [[nodiscard]] std::uint64_t tasks_completed() const;

  /// Full typed event stream, merged across processors and sorted by start
  /// time (empty unless SystemConfig::trace).
  [[nodiscard]] std::vector<obs::Event> trace_events() const;
  /// The merged trace rendered as Chrome trace-event JSON (load it in
  /// chrome://tracing or Perfetto). Empty-trace JSON when tracing is off.
  [[nodiscard]] std::string chrome_trace() const;

  /// Every counter of the run by name: the engine's (engine.parks,
  /// sched.idle.*), the scheduler's (sched.*, its histograms), the memory
  /// system's (mem.*, mem.chan.*), utilisation (proc.*), sim.time,
  /// tasks.completed and the trace drop counts, so one call captures the
  /// whole observable state of a run. The one place a counter gets its key.
  [[nodiscard]] obs::Snapshot obs_snapshot() const;
  /// The counters the advisor rules read, typed and built directly from
  /// their sources (SchedStats, utilization(), the queues, the channel
  /// backend). The adaptive engine reads it every epoch; the offline
  /// advisor (obs::advise) reads it once.
  [[nodiscard]] obs::advisor::Signals advisor_signals() const;

  // --- locality profiler (SystemConfig::profile) ---------------------------
  /// The attached profiler, or null when profiling is off.
  [[nodiscard]] obs::LocalityProfiler* profiler() noexcept {
    return prof_.get();
  }
  [[nodiscard]] const obs::LocalityProfiler* profiler() const noexcept {
    return prof_.get();
  }
  /// Name the region [p, p+bytes) in profile reports. No-op (returns false)
  /// when profiling is off or the range overlaps an earlier registration.
  bool profile_register(const std::string& name, const void* p,
                        std::size_t bytes);
  /// Merged attribution snapshot (empty snapshot when profiling is off).
  [[nodiscard]] obs::ProfileSnapshot profile_snapshot() const;

  // --- adaptive runtime (SystemConfig::adapt) ------------------------------
  /// The attached adaptation engine, or null when --adapt is off.
  [[nodiscard]] adaptive::AdaptiveEngine* adaptive_engine() noexcept {
    return adapt_.get();
  }
  [[nodiscard]] const adaptive::AdaptiveEngine* adaptive_engine()
      const noexcept {
    return adapt_.get();
  }
  /// The adaptation decision log as a JSON array ("[]" when off).
  [[nodiscard]] std::string adaptation_json() const {
    return adapt_ ? adapt_->log_json() : "[]";
  }

  // --- request tracing (SystemConfig::req_trace) ---------------------------
  /// The attached request-trace recorder, or null when --req-trace is off.
  [[nodiscard]] obs::RequestTraceRecorder* request_trace() noexcept {
    return reqtrace_.get();
  }
  [[nodiscard]] const obs::RequestTraceRecorder* request_trace()
      const noexcept {
    return reqtrace_.get();
  }

  // --- race detector (SystemConfig::race_check) ----------------------------
  /// The attached detector, or null when race checking is off.
  [[nodiscard]] analysis::RaceDetector* race_detector() noexcept {
    return race_.get();
  }
  [[nodiscard]] const analysis::RaceDetector* race_detector() const noexcept {
    return race_.get();
  }

  [[nodiscard]] const topo::MachineConfig& machine() const noexcept {
    return cfg_.machine;
  }
  [[nodiscard]] const SystemConfig& config() const noexcept { return cfg_; }

  [[nodiscard]] Engine& engine() noexcept { return *eng_; }
  [[nodiscard]] const Engine& engine() const noexcept { return *eng_; }
  /// Simulation back-end access (null under kThreads).
  [[nodiscard]] SimEngine* sim() noexcept { return sim_.get(); }
  [[nodiscard]] const SimEngine* sim() const noexcept { return sim_.get(); }

 private:
  SystemConfig cfg_;
  std::unique_ptr<SimEngine> sim_;
  std::unique_ptr<ThreadEngine> thr_;
  std::unique_ptr<obs::LocalityProfiler> prof_;  ///< Null unless profiling.
  std::unique_ptr<analysis::RaceDetector> race_;  ///< Null unless race_check.
  std::unique_ptr<obs::RequestTraceRecorder> reqtrace_;  ///< Null unless
                                                         ///< req_trace.
  std::unique_ptr<adaptive::AdaptiveEngine> adapt_;  ///< Null unless adapt.
  Engine* eng_ = nullptr;
  char* arena_ = nullptr;       ///< mmap'd allocation arena.
  std::size_t arena_used_ = 0;  ///< Bump pointer (page multiples).
  std::size_t n_allocs_ = 0;    ///< Drives the varying inter-allocation pad.
};

}  // namespace cool
