// TaskRecord — the runtime's per-task bookkeeping, wrapping the scheduler's
// TaskDesc with the coroutine frame, group membership, and execution state.
#pragma once

#include <cstdint>

#include "common/intrusive_list.hpp"
#include "core/ctx.hpp"
#include "core/taskfn.hpp"
#include "sched/task.hpp"

namespace cool {

class TaskGroup;

enum class TaskState : std::uint8_t {
  kReady,    ///< In a queue, waiting for a processor.
  kRunning,  ///< Being executed.
  kBlocked,  ///< Waiting on a Mutex / Cond / TaskGroup.
  kYielded,  ///< Voluntarily gave up the processor; will be re-queued.
};

struct TaskRecord {
  sched::TaskDesc desc;   ///< Scheduler view; desc.owner points back here.
  TaskFn::Handle handle;  ///< Suspended coroutine frame (owned).
  TaskGroup* group = nullptr;
  TaskState state = TaskState::kReady;
  Ctx ctx;  ///< Persistent context; the engine rebinds proc on each dispatch.
  Mutex* reacquire = nullptr;  ///< Condition-wait: mutex to re-take on signal.
  /// Links the record into its engine's list of live records (spawned, not
  /// yet completed), which frees what a failed run leaves behind.
  util::ListHook live_hook;

  TaskRecord() { desc.owner = this; }
  TaskRecord(const TaskRecord&) = delete;
  TaskRecord& operator=(const TaskRecord&) = delete;
  /// Unlink from any queue/wait-list so teardown (e.g. after a deadlock or a
  /// task exception) leaves no dangling nodes behind.
  ~TaskRecord() { desc.hook.unlink(); }

  static TaskRecord* of(sched::TaskDesc* d) noexcept {
    return static_cast<TaskRecord*>(d->owner);
  }
};

}  // namespace cool
