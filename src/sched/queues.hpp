// Per-server task-queue structure, following paper §5:
//
//   "There are two kinds of task queues per server": an object-affinity queue
//   (which also holds default-affinity and resumed tasks), plus an array of
//   task-affinity queues. A task with TASK affinity hashes its affinity
//   object's address into the array ("two modulo operations": one to pick the
//   server, one to pick the queue), so tasks of the same task-affinity set
//   land on the same queue and are serviced back to back. The non-empty
//   queues in the array are linked into a doubly-linked list for O(1)
//   enqueue/dequeue, and a suitably large array minimises collisions of
//   distinct affinity sets on one queue.
//
// Concurrency: each ServerQueues carries its own mutex and every public
// operation is internally synchronised, so per-server queues run concurrently
// with no scheduler-wide lock. The owner's push/pop take the lock
// unconditionally (it is almost always uncontended); thieves and balancer
// moves use the `try_*` operations, which `try_lock` and report kBusy instead
// of convoying behind the owner. `empty()`/`size()` read an atomic counter
// without the lock, so victim scans stay wait-free.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/check.hpp"
#include "common/intrusive_list.hpp"
#include "common/thread_annotations.hpp"
#include "sched/task.hpp"

namespace cool::sched {

/// Outcome of a non-blocking steal attempt.
enum class TrySteal : std::uint8_t {
  kGot,    ///< Stole something.
  kEmpty,  ///< Lock taken, nothing stealable.
  kBusy,   ///< Queue lock held by someone else; caller should move on.
};

class ServerQueues {
 public:
  using TaskList = util::IntrusiveList<TaskDesc, &TaskDesc::hook>;

  explicit ServerQueues(std::size_t affinity_array_size);

  /// Queue index for a task-affinity key (the paper's second modulo
  /// operation). The key is an object address scaled by the line size, and
  /// objects are page-aligned, so the low bits carry no entropy — mix the
  /// key first or every affinity set lands in slot 0.
  [[nodiscard]] std::size_t slot_of(std::uint64_t aff_key) const noexcept {
    const std::uint64_t mixed = (aff_key * 0x9e3779b97f4a7c15ull) >> 17;
    return static_cast<std::size_t>(mixed % slots_.size());
  }

  /// Enqueue at the back (normal spawn order).
  void push(TaskDesc* t);

  /// Enqueue at the front of the object queue (resumed / unblocked tasks).
  void push_resumed(TaskDesc* t);

  /// Dequeue for local execution. Services the current task-affinity set to
  /// exhaustion (back-to-back execution), then the next non-empty affinity
  /// queue, then the object-affinity queue. Returns nullptr when empty.
  TaskDesc* pop();

  /// Steal an entire task-affinity set (paper §4.2: "tasks scheduled with
  /// task-affinity can be stolen as a set"). Takes the least-recently-touched
  /// non-empty affinity queue. With `allow_pinned == false`, sets whose tasks
  /// also carry PROCESSOR or OBJECT placement are skipped — the programmer
  /// pinned them deliberately (e.g. LocusRoute's per-region processor hints).
  /// With `allow_reserved == false`, sets holding Reserve-balancer
  /// reservations are skipped too (cross-cluster thieves must not undo a
  /// reservation; same-cluster thieves pass true). Never blocks: kBusy means
  /// the queue lock was held. On kGot the set is in `out`; kEmpty means no
  /// set to steal.
  TrySteal try_steal_set(std::vector<TaskDesc*>& out, bool allow_pinned = true,
                         bool allow_reserved = true);

  /// Steal the youngest task of the object-affinity queue. With
  /// `allow_pinned == false`, tasks carrying OBJECT or PROCESSOR affinity are
  /// skipped ("tasks scheduled with object-affinity should preferably not be
  /// stolen", paper §4.2) and only hint-free tasks are taken; with
  /// `allow_reserved == false`, Reserve-balancer reservations are skipped.
  /// Never blocks, like try_steal_set(). On kGot the task is in `out`;
  /// kEmpty means nothing stealable.
  TrySteal try_steal_object_task(TaskDesc*& out, bool allow_pinned = true,
                                 bool allow_reserved = true);

  /// Non-blocking balancer-move extraction: `try_lock` and pop up to
  /// `max_tasks` tasks — youngest-first from the object queue, then from the
  /// tail of the first non-empty affinity slot (the active set, when one is
  /// set), slot after slot — marking each `moved`. Moves serve the Average
  /// balancer's equalization and deliberately ignore affinity pins and
  /// reservations (the balancer decided balance beats locality here). The
  /// caller adopts the batch onto the destination server.
  TrySteal try_move_tasks(std::vector<TaskDesc*>& out,
                          std::uint32_t max_tasks);

  /// Adopt a stolen set — its tasks keep their affinity key and queue
  /// back-to-back on this server — and immediately dequeue the first
  /// runnable task, all under one lock hold, so a concurrent thief cannot
  /// empty the queue between the adopt and the pop. Never returns nullptr
  /// for a non-empty set. This is the only whole-set-steal path that touches
  /// two servers' queues, and it takes the two locks strictly one at a time
  /// (victim lock released inside try_steal_set before this acquires the
  /// thief's own lock), so no lock order between servers is ever needed.
  TaskDesc* adopt_and_pop(const std::vector<TaskDesc*>& set,
                          topo::ProcId new_server);

  [[nodiscard]] bool empty() const noexcept {
    return size_.load(std::memory_order_relaxed) == 0;
  }
  [[nodiscard]] std::size_t size() const noexcept {
    return size_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t affinity_array_size() const noexcept {
    return slots_.size();
  }
  [[nodiscard]] std::size_t n_nonempty_affinity_queues() const;
  /// High-water mark of queued tasks (diagnostics).
  [[nodiscard]] std::size_t max_depth() const noexcept {
    return max_depth_.load(std::memory_order_relaxed);
  }

  // --- Invariant checking (analysis/invariants.hpp drives these) ------------

  /// "No owner recorded" sentinel for the owner invariant.
  static constexpr topo::ProcId kNoOwner = static_cast<topo::ProcId>(~0u);

  /// Record which server these queues belong to; once set, every queued
  /// task's `server` field must name this processor.
  void set_owner(topo::ProcId p) noexcept { owner_ = p; }

  /// Validate every structural invariant (throws util::Error on violation):
  /// the non-empty list covers exactly the slots holding tasks, slot tasks
  /// hash to their slot and carry TASK affinity, the active pointer is sane,
  /// the size counter and push/pop ledger balance the actual contents, and
  /// every queued task names this server. Safe to call concurrently with
  /// queue operations (takes the queue lock).
  void validate() const;

  /// Visit every queued task under the queue lock (affinity slots in index
  /// order, then the object queue).
  void for_each_task(const std::function<void(const TaskDesc*)>& fn) const;

  /// Lifetime enqueue/dequeue ledger (pushed - popped == size).
  [[nodiscard]] std::uint64_t pushed() const;
  [[nodiscard]] std::uint64_t popped() const;

 private:
  struct AffSlot {
    TaskList tasks;
    util::ListHook hook;  ///< Links this slot into the non-empty list.
  };

  void on_slot_push(AffSlot& slot) COOL_REQUIRES(mu_);
  void on_slot_pop(AffSlot& slot) COOL_REQUIRES(mu_);
  void push_locked(TaskDesc* t) COOL_REQUIRES(mu_);
  TaskDesc* pop_locked() COOL_REQUIRES(mu_);
  std::vector<TaskDesc*> steal_set_locked(bool allow_pinned,
                                          bool allow_reserved)
      COOL_REQUIRES(mu_);
  TaskDesc* steal_object_task_locked(bool allow_pinned, bool allow_reserved)
      COOL_REQUIRES(mu_);
  void check_locked() const COOL_REQUIRES(mu_);
  /// Paranoid mode: re-validate after every mutation, while still holding
  /// the lock the mutation ran under.
  void maybe_check_locked() const COOL_REQUIRES(mu_) {
    if (util::check_level() == util::CheckLevel::kParanoid) check_locked();
  }

  mutable util::Mutex mu_;  ///< Guards every queue structure below.
  TaskList object_q_ COOL_GUARDED_BY(mu_);
  /// Sized once at construction and never resized, so slot_of() and
  /// affinity_array_size() may read slots_.size() lock-free; the *elements*
  /// are queue state and every helper touching them carries REQUIRES(mu_).
  std::vector<AffSlot> slots_;
  util::IntrusiveList<AffSlot, &AffSlot::hook> nonempty_ COOL_GUARDED_BY(mu_);
  /// Affinity set currently being drained.
  AffSlot* active_ COOL_GUARDED_BY(mu_) = nullptr;
  topo::ProcId owner_ = kNoOwner;  ///< Set once before concurrent use.
  /// Lifetime ledger, maintained under mu_: conservation check fodder.
  std::uint64_t pushed_ COOL_GUARDED_BY(mu_) = 0;
  std::uint64_t popped_ COOL_GUARDED_BY(mu_) = 0;
  /// Task count, maintained under mu_ but readable without it so victim
  /// scans and emptiness checks never touch the lock.
  std::atomic<std::size_t> size_{0};
  std::atomic<std::size_t> max_depth_{0};
};

}  // namespace cool::sched
