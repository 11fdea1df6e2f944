// ThreadEngine — executes COOL tasks on real OS threads (one worker per
// simulated server) over the same scheduler structure as the simulation.
//
// Purpose: functional and concurrency validation of the programming model
// (spawn/waitfor/mutex/cond semantics race for real here), and a base for
// running on an actual NUMA machine. There is no timing model: read/write/
// work are no-ops, now() is 0, and migrate()/home() only update the page map
// so affinity placement still works.
//
// Tracing: with trace_enabled, each worker records task-span events into its
// own obs ring buffer (single writer, no locks) with microsecond wall-clock
// timestamps, so real-thread runs get the same span/steal observability as
// the simulator (Runtime::trace_events(), chrome_trace()).
//
// Locking: every scheduling operation (place/acquire/enqueue/steal) goes
// straight to the internally-sharded Scheduler with NO engine lock — workers
// contend only on individual per-server queue mutexes. `big_` survives only
// as the guard for the page map and the live-record set; idle workers sleep
// on the engine's own gates (`idle_`, see core/idle_gates.hpp), signalled
// after every enqueue the engine makes; run()'s completion wait uses its own
// `done_m_`/`done_cv_`.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <memory>
#include <thread>
#include <vector>

#include "common/thread_annotations.hpp"
#include "core/engine.hpp"
#include "core/idle_gates.hpp"
#include "core/record.hpp"
#include "core/taskfn.hpp"
#include "memsim/pagemap.hpp"
#include "obs/trace.hpp"
#include "sched/scheduler.hpp"
#include "topology/machine.hpp"

namespace cool {

class ThreadEngine final : public Engine {
 public:
  ThreadEngine(const topo::MachineConfig& machine, const sched::Policy& policy,
               bool trace_enabled = false, std::size_t trace_capacity = 1 << 16);
  ~ThreadEngine() override;

  /// Drive `root` to completion using n_procs worker threads. Throws the
  /// first task exception, or on timeout (likely deadlock).
  void run(TaskFn&& root, std::uint64_t timeout_ms = 60000);

  sched::Scheduler& scheduler() noexcept { return sched_; }
  [[nodiscard]] const sched::Scheduler& scheduler() const noexcept {
    return sched_;
  }
  [[nodiscard]] std::uint64_t tasks_completed() const noexcept {
    return tasks_completed_.load();
  }
  /// Ring-buffer trace collector (null unless tracing was enabled). Read only
  /// after run() returned — workers write concurrently during a run.
  [[nodiscard]] const obs::TraceCollector* trace_collector() const noexcept {
    return trace_.get();
  }
  /// The sleep gates, for their sleep/wakeup counts.
  [[nodiscard]] const IdleGates& idle_gates() const noexcept { return idle_; }

  // --- Engine interface ----------------------------------------------------
  void mem_access(Ctx&, std::uint64_t, std::uint64_t, bool) override {}
  void work(Ctx&, std::uint64_t) override {}
  void charge(Ctx&, std::uint64_t) override {}
  [[nodiscard]] std::uint64_t now(const Ctx&) const override { return 0; }
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

  void worker_loop(topo::ProcId id);
  void execute(topo::ProcId id, TaskRecord* rec);

  topo::MachineConfig machine_;
  util::Mutex big_;  ///< Guards pages_ and live_recs_ only — never scheduling.
  mem::PageMap pages_ COOL_GUARDED_BY(big_);
  sched::Scheduler sched_;
  IdleGates idle_;  ///< Sleep gates; signalled after every enqueue.
  /// Records spawned but not yet completed; walked at destruction (workers
  /// joined) to free tasks a failed run left blocked.
  util::IntrusiveList<TaskRecord, &TaskRecord::live_hook> live_recs_
      COOL_GUARDED_BY(big_);
  std::atomic<bool> stop_{false};

  util::Mutex done_m_;  ///< Pairs with done_cv_ for run()'s completion wait.
  util::CondVar done_cv_;

  std::atomic<std::uint64_t> live_{0};
  std::atomic<std::uint64_t> tasks_completed_{0};
  std::atomic<std::uint64_t> seq_{0};  ///< Spawn sequence numbers for tracing.
  std::vector<Disposition> disp_;  ///< Per worker; touched only by that worker.
  util::Mutex err_m_;
  std::exception_ptr err_ COOL_GUARDED_BY(err_m_);

  std::unique_ptr<obs::TraceCollector> trace_;  ///< Null when tracing is off.
  // cool-lint: allow(determinism): kThreads trace timebase is wall-clock
  std::chrono::steady_clock::time_point trace_t0_;
  /// Arena base: pages_ is keyed by arena offset, as SimEngine's is.
  std::uint64_t addr_base_ = 0;

  /// Microseconds since engine construction (the trace timebase).
  [[nodiscard]] std::uint64_t now_us() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            // cool-lint: allow(determinism): kThreads trace timebase
            std::chrono::steady_clock::now() - trace_t0_)
            .count());
  }
};

}  // namespace cool
