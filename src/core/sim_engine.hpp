// SimEngine — deterministic execution-driven simulation of the COOL runtime
// on the DASH memory hierarchy.
//
// Each simulated processor owns a clock; the engine always resumes the
// runnable processor with the smallest clock (processor id breaks ties), so
// execution interleaving is approximately time-ordered and fully
// deterministic. Application code runs natively inside coroutines; memory
// references charge the MemorySystem; scheduling operations charge the
// constants of core/costs.hpp; idle processors park until new work is
// signalled.
#pragma once

#include <cstdint>
#include <exception>
#include <memory>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "core/record.hpp"
#include "core/taskfn.hpp"
#include "memsim/memsystem.hpp"
#include "obs/profiler.hpp"
#include "obs/request_trace.hpp"
#include "obs/trace.hpp"
#include "sched/scheduler.hpp"
#include "topology/machine.hpp"

namespace cool::adaptive {
class AdaptiveEngine;
}  // namespace cool::adaptive

namespace cool {

/// Per-processor utilisation, reported after a run.
struct ProcUtil {
  std::uint64_t busy = 0;   ///< Cycles spent executing tasks.
  std::uint64_t idle = 0;   ///< Cycles waiting for work.
  std::uint64_t sched = 0;  ///< Cycles in dispatch/steal/spawn overhead.
  std::uint64_t tasks = 0;  ///< Tasks executed to completion here.
  std::uint64_t steals = 0; ///< Tasks acquired by stealing.
};

class SimEngine final : public Engine {
 public:
  SimEngine(const topo::MachineConfig& machine, const sched::Policy& policy,
            bool trace_enabled = false,
            std::size_t trace_capacity = 1 << 16,
            const mem::ChannelConfig& mem_channel = {});
  ~SimEngine() override;

  /// Drive `root` (and everything it spawns) to completion. Throws on task
  /// exceptions and on deadlock.
  void run(TaskFn&& root);

  [[nodiscard]] std::uint64_t finish_time() const noexcept {
    return finish_time_;
  }
  mem::MemorySystem& memsys() noexcept { return mem_; }
  [[nodiscard]] const mem::MemorySystem& memsys() const noexcept { return mem_; }
  sched::Scheduler& scheduler() noexcept { return sched_; }
  [[nodiscard]] const sched::Scheduler& scheduler() const noexcept {
    return sched_;
  }
  [[nodiscard]] const std::vector<ProcUtil>& utilization() const noexcept {
    return util_;
  }
  [[nodiscard]] std::uint64_t tasks_completed() const noexcept {
    return tasks_completed_;
  }
  /// Ring-buffer trace collector (null unless tracing was enabled).
  [[nodiscard]] const obs::TraceCollector* trace_collector() const noexcept {
    return trace_.get();
  }
  /// Times a processor parked for want of work (the snapshot's
  /// engine.parks).
  [[nodiscard]] std::uint64_t parks() const noexcept { return parks_; }
  /// Attach (or with nullptr, detach) the locality profiler: taps every
  /// simulated memory access and is told the running task's hint class at
  /// each dispatch. Purely passive — simulated cycle counts are unchanged.
  void attach_profiler(obs::LocalityProfiler* prof);
  /// Attach the race detector's two taps: `so` receives spawn/dispatch and
  /// every synchronisation edge, `tap` the byte-ranged access stream. Both
  /// usually point at the same analysis::RaceDetector. Passive, like the
  /// profiler; coexists with it (the memory system fans out to all observers).
  void attach_race(analysis::SyncObserver* so, mem::AccessObserver* tap);
  /// Attach the adaptive runtime: notified once per task dispatch, and unlike
  /// the passive observers its epoch evaluations and actuator work charge
  /// simulated cycles to the dispatching processor.
  void attach_adaptive(adaptive::AdaptiveEngine* a) { adapt_ = a; }
  /// Attach the per-request trace recorder (--req-trace): stamped at every
  /// dispatch and span end of a request-tagged task, and installed as a
  /// memory-system observer so execution time splits into compute vs memory
  /// stall. Passive like the profiler — cycle counts are unchanged — and
  /// when detached the engine pays one null check per dispatch.
  void attach_request_trace(obs::RequestTraceRecorder* rt);
  /// Migrate without a task context (the adaptive engine acts from the
  /// dispatch path, not from inside a running task). Returns the cycle cost;
  /// the caller decides which clock to charge.
  std::uint64_t adaptive_migrate(topo::ProcId caller, std::uint64_t sim_addr,
                                 std::uint64_t bytes, topo::ProcId target,
                                 std::uint64_t now);

  // --- Engine interface ----------------------------------------------------
  void mem_access(Ctx& c, std::uint64_t addr, std::uint64_t bytes,
                  bool is_write) override;
  void work(Ctx& c, std::uint64_t cycles) override;
  void charge(Ctx& c, std::uint64_t cycles) override;
  [[nodiscard]] std::uint64_t now(const Ctx& c) const override;
  std::uint64_t migrate(Ctx& c, std::uint64_t addr, std::uint64_t bytes,
                        topo::ProcId target) override;
  topo::ProcId home(std::uint64_t addr, topo::ProcId toucher) override;
  [[nodiscard]] topo::ProcId resolve_proc(std::int64_t n) const override {
    return static_cast<topo::ProcId>(
        static_cast<std::uint64_t>(n < 0 ? 0 : n) % machine_.n_procs);
  }
  void spawn_record(TaskRecord* rec, Ctx* spawner) override;
  void unblock(TaskRecord* rec, Ctx* unblocker) override;
  void on_complete(Ctx& c) override;
  void on_block(Ctx& c) override;
  void on_yield(Ctx& c) override;
  void bind_range(std::uint64_t addr, std::uint64_t bytes,
                  topo::ProcId home_proc) override;
  void set_addr_base(std::uint64_t base) override { addr_base_ = base; }

 private:
  enum class Disposition : std::uint8_t { kNone, kCompleted, kBlocked, kYielded };

  struct Proc {
    std::uint64_t clock = 0;
    TaskRecord* current = nullptr;
    bool parked = false;
  };

  /// Normalise a raw pointer value to an arena-relative simulated address.
  [[nodiscard]] std::uint64_t tr(std::uint64_t addr) const noexcept {
    return addr - addr_base_;
  }

  void step(topo::ProcId p);
  void park(topo::ProcId p);
  void wake_parked();
  void reinsert(topo::ProcId p);
  void destroy_record(TaskRecord* rec);

  topo::MachineConfig machine_;
  mem::MemorySystem mem_;
  sched::Scheduler sched_;
  std::vector<Proc> procs_;
  std::uint32_t n_parked_ = 0;  ///< Processors with `parked` set.
  std::vector<ProcUtil> util_;
  /// Runnable processors as a binary min-heap on (clock, id): the simulation
  /// frontier. A processor is queued at most once, so keys are unique and
  /// pops come out in (clock, id) order.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> runq_;
  util::IntrusiveList<TaskRecord, &TaskRecord::live_hook> live_recs_;
  std::uint64_t live_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t finish_time_ = 0;
  std::uint64_t tasks_completed_ = 0;
  Disposition disp_ = Disposition::kNone;
  std::exception_ptr err_;
  bool running_ = false;
  std::uint64_t addr_base_ = 0;
  std::unique_ptr<obs::TraceCollector> trace_;  ///< Null when tracing is off.
  std::uint64_t parks_ = 0;  ///< Idle transitions.
  obs::LocalityProfiler* prof_ = nullptr;  ///< Null unless profiling.
  adaptive::AdaptiveEngine* adapt_ = nullptr;  ///< Null unless --adapt.
  obs::RequestTraceRecorder* reqtrace_ = nullptr;  ///< Null unless --req-trace.
};

}  // namespace cool
