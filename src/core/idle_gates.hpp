// IdleGates — ThreadEngine's idle/wakeup protocol: one sleep gate per server
// plus a global work version, so a worker with nothing to run can sleep
// without missing a wakeup.
//
// A worker that fails to acquire must not spin on "some queue is non-empty"
// (queued tasks may be pinned to other servers) and must not sleep past a new
// enqueue. Protocol: snapshot version() BEFORE the failed acquire, then call
// wait() with that snapshot. The engine calls signal(server) after each
// enqueue it makes, so a version mismatch means new work arrived somewhere
// after the snapshot and the wait returns immediately.
//
// Only the thread engine sleeps, so the scheduler knows nothing of this: the
// simulation engine enqueues through the same scheduler and pays for no
// wakeups.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>

#include "common/thread_annotations.hpp"
#include "topology/machine.hpp"

namespace cool {

class IdleGates {
 public:
  explicit IdleGates(std::uint32_t n_procs);

  /// Global work counter; every signal() and notify_all() bumps it.
  [[nodiscard]] std::uint64_t version() const noexcept {
    return version_.load();
  }

  /// Block `proc` until the version moves past `seen` or `give_up()` returns
  /// true. `give_up` is evaluated under the gate mutex and must be safe to
  /// call from any thread (read atomics only).
  template <typename Pred>
  void wait(topo::ProcId proc, std::uint64_t seen, Pred give_up) {
    Gate& g = gates_[proc];
    g.sleeps.fetch_add(1, std::memory_order_relaxed);
    util::MutexLock l(g.m);
    g.sleeping.store(true);
    g.cv.wait(l, [&] { return version_.load() != seen || give_up(); });
    g.sleeping.store(false);
    g.wakeups.fetch_add(1, std::memory_order_relaxed);
  }

  /// Work landed on `server`'s queue: bump the version and wake `server`'s
  /// worker if it sleeps, else the next sleeping worker (any idle processor
  /// may steal the new task).
  void signal(topo::ProcId server);

  /// Wake every sleeping worker (shutdown / completion). Bumps the version so
  /// a worker between snapshot and wait does not go back to sleep.
  void notify_all();

  /// Assert the version has not moved backwards since the last check (or,
  /// under paranoid checking, the last bump). Safe to call concurrently with
  /// the protocol; throws util::Error on violation.
  void check_monotonic() const;

  /// Calls of wait() so far, summed over every worker.
  [[nodiscard]] std::uint64_t sleeps() const noexcept;
  /// Returns from wait() so far, summed over every worker.
  [[nodiscard]] std::uint64_t wakeups() const noexcept;

 private:
  struct alignas(64) Gate {
    util::Mutex m;  ///< CV companion only; `sleeping` is its own atomic.
    util::CondVar cv;
    std::atomic<bool> sleeping{false};
    std::atomic<std::uint64_t> sleeps{0};   ///< Bumped by this gate's worker.
    std::atomic<std::uint64_t> wakeups{0};  ///< Bumped by this gate's worker.
  };

  /// Increment the version; under paranoid checking also advance the
  /// monotonicity floor.
  void bump();
  static void wake(Gate& g);

  std::deque<Gate> gates_;  // deque: Gate is not movable
  std::atomic<std::uint64_t> version_{0};
  /// Monotonicity floor, advanced (CAS-max) after each bump under paranoid
  /// checking; check_monotonic() asserts the version never reads below it.
  mutable std::atomic<std::uint64_t> floor_{0};
};

}  // namespace cool
