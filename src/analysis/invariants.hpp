// Scheduler invariant checking — the "structural" half of cool-check.
//
// The sharded scheduler trades a global lock for per-server locks and an
// intrusive non-empty list; this module states the invariants that refactor
// must preserve and validates them on demand:
//
//   * Queue structure: each server's non-empty list covers exactly the
//     affinity slots holding tasks, slot tasks carry TASK affinity and hash
//     to their slot, the active-set pointer never rests on a drained slot.
//   * Conservation: per queue, pushed - popped == current size, and the size
//     counter matches the actual contents (ServerQueues::validate()).
//   * Ownership/uniqueness: every queued task names its queue's server, and
//     (at quiesce) no task is resident in two queues at once.
//
// The idle protocol's invariant (the work version only moves forward) lives
// with its counter: IdleGates::check_monotonic() in core/idle_gates.hpp,
// which ThreadEngine checks after its run.
//
// Two entry points with different concurrency contracts:
//   check_scheduler_concurrent() holds only one queue lock at a time and is
//   safe at any moment, even mid-steal; cross-queue uniqueness cannot be
//   checked this way (a task legitimately in flight between queues would
//   trip it), so that part lives in check_scheduler_quiescent(), which the
//   engines call once all workers have stopped.
//
// Per-mutation checking (COOL_CHECK_LEVEL=paranoid) is inside ServerQueues
// itself — it must run under the queue lock the mutation ran under.
#pragma once

#include "sched/scheduler.hpp"

namespace cool::analysis {

/// Validate every invariant checkable while the scheduler is live.
/// Throws util::Error on violation.
void check_scheduler_concurrent(const sched::Scheduler& s);

/// Everything check_scheduler_concurrent() validates, plus cross-queue task
/// uniqueness and the queued-total ledger. Callers must guarantee no
/// concurrent scheduler mutation (engines call this after their run loops).
void check_scheduler_quiescent(const sched::Scheduler& s);

/// Open-loop admission conservation (the load::Driver ledger): every
/// generated request admitted exactly once, every admitted request completed
/// exactly once. Quiescent-only (call after the run). Throws util::Error
/// naming the first violated equality.
void check_admission_ledger(std::uint64_t generated, std::uint64_t admitted,
                            std::uint64_t completed);

}  // namespace cool::analysis
