// Engine — the execution back-end behind a cool::Runtime.
//
// Two implementations:
//   * SimEngine    — deterministic execution-driven simulation of the DASH
//                    memory hierarchy (all paper figures use this);
//   * ThreadEngine — real OS threads over the same scheduler structure, for
//                    functional and concurrency testing (no timing model).
//
// Application code never sees this interface directly; it talks to cool::Ctx.
#pragma once

#include <cstdint>

#include "topology/machine.hpp"

namespace cool::analysis {
class SyncObserver;
}

namespace cool {

class Ctx;
struct TaskRecord;

class Engine {
 public:
  virtual ~Engine() = default;

  /// Happens-before edge tap for the race detector; null (the default) means
  /// no analysis, and every emission site is a single pointer test. Only the
  /// sim engine ever attaches one — its deterministic interleaving is what
  /// makes the edge stream exact.
  [[nodiscard]] analysis::SyncObserver* sync_observer() const noexcept {
    return sync_obs_;
  }

  /// --- called by Ctx on behalf of the running task -----------------------
  virtual void mem_access(Ctx& c, std::uint64_t addr, std::uint64_t bytes,
                          bool is_write) = 0;
  virtual void work(Ctx& c, std::uint64_t cycles) = 0;
  virtual void charge(Ctx& c, std::uint64_t cycles) = 0;
  [[nodiscard]] virtual std::uint64_t now(const Ctx& c) const = 0;
  virtual std::uint64_t migrate(Ctx& c, std::uint64_t addr,
                                std::uint64_t bytes, topo::ProcId target) = 0;
  virtual topo::ProcId home(std::uint64_t addr, topo::ProcId toucher) = 0;

  /// Map an arbitrary processor number to a server id (modulo n_procs, as the
  /// paper specifies for PROCESSOR affinity and migrate()).
  [[nodiscard]] virtual topo::ProcId resolve_proc(std::int64_t n) const = 0;

  /// Hand a freshly created task to the scheduler. `spawner` is null for the
  /// root task.
  virtual void spawn_record(TaskRecord* rec, Ctx* spawner) = 0;

  /// --- called by synchronisation objects ---------------------------------
  /// Make a blocked task runnable again (`unblocker` performed the signal).
  virtual void unblock(TaskRecord* rec, Ctx* unblocker) = 0;

  /// --- disposition protocol, called from inside coroutine awaiters -------
  /// (while the resuming thread still owns the frame; the engine inspects the
  /// disposition after resume() returns and must not touch a blocked record
  /// afterwards — it may already be running elsewhere.)
  virtual void on_complete(Ctx& c) = 0;
  virtual void on_block(Ctx& c) = 0;
  virtual void on_yield(Ctx& c) = 0;

  /// --- allocation support -------------------------------------------------
  virtual void bind_range(std::uint64_t addr, std::uint64_t bytes,
                          topo::ProcId home_proc) = 0;

  /// Base address of the runtime's arena. The simulation engine subtracts it
  /// from every address so simulated layouts (cache sets, page homes) are
  /// independent of where the OS happened to place the arena — this is what
  /// makes every experiment bit-reproducible across processes.
  virtual void set_addr_base(std::uint64_t base) { (void)base; }

 protected:
  analysis::SyncObserver* sync_obs_ = nullptr;
};

}  // namespace cool
