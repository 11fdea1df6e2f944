// COOL synchronisation primitives as coroutine awaitables.
//
//   Mutex     — monitor-style exclusive access; the library analogue of a
//               COOL `mutex` member function is `auto g = co_await c.lock(mu)`
//               at the top of the task body.
//   Cond      — condition variables with signal/broadcast (paper §2: "event
//               synchronization is expressed through operations on condition
//               variables").
//   TaskGroup — the `waitfor` construct: tasks spawned into a group; the
//               waiter resumes when all of them have completed.
//
// Thread-safety: every structure protects its state with an annotated host
// mutex (util::Mutex, common/thread_annotations.hpp) so the same code runs
// under both engines. Under the simulation engine (single OS thread) the
// locks are uncontended and effectively free.
//
// Blocking protocol (shared with the engines): an awaiter that decides to
// block (1) marks the record, (2) calls engine->on_block(ctx) — which stamps
// the block time and the engine-local disposition — and (3) registers the
// record on the structure's wait list, then returns true to suspend. From the
// moment of registration the resuming thread must not touch the record again:
// another processor may legally unblock and resume it. Wake-ups go through
// engine->unblock(), which re-enqueues the task on its server's queue.
#pragma once

#include <vector>

#include "analysis/sync_observer.hpp"
#include "common/thread_annotations.hpp"
#include "common/error.hpp"
#include "common/intrusive_list.hpp"
#include "core/costs.hpp"
#include "core/ctx.hpp"
#include "core/record.hpp"
#include "core/taskfn.hpp"

namespace cool {

using WaitList = util::IntrusiveList<sched::TaskDesc, &sched::TaskDesc::hook>;

// ---------------------------------------------------------------------------
// Mutex
// ---------------------------------------------------------------------------

class LockGuard;

class Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  [[nodiscard]] bool locked() const {
    util::MutexLock g(m_);
    return held_;
  }

 private:
  friend class LockGuard;
  friend class Cond;
  friend struct LockAwaiter;
  friend struct CondWaitAwaiter;

  /// Release; hands off directly to the next FIFO waiter, if any.
  void unlock(Ctx& c);

  mutable util::Mutex m_;
  bool held_ COOL_GUARDED_BY(m_) = false;
  TaskRecord* holder_ COOL_GUARDED_BY(m_) = nullptr;
  WaitList waiters_ COOL_GUARDED_BY(m_);
};

/// RAII ownership of a Mutex, released at scope exit (or explicitly).
class LockGuard {
 public:
  LockGuard() = default;
  LockGuard(Ctx* c, Mutex* mu) : c_(c), mu_(mu) {}
  LockGuard(LockGuard&& o) noexcept
      : c_(std::exchange(o.c_, nullptr)), mu_(std::exchange(o.mu_, nullptr)) {}
  LockGuard& operator=(LockGuard&& o) noexcept {
    if (this != &o) {
      unlock();
      c_ = std::exchange(o.c_, nullptr);
      mu_ = std::exchange(o.mu_, nullptr);
    }
    return *this;
  }
  LockGuard(const LockGuard&) = delete;
  LockGuard& operator=(const LockGuard&) = delete;
  ~LockGuard() { unlock(); }

  void unlock() {
    if (mu_ != nullptr) {
      // Detach before unlocking so a throwing unlock (misuse) is not
      // re-attempted from the destructor during unwinding.
      Mutex* m = std::exchange(mu_, nullptr);
      m->unlock(*c_);
    }
  }

  [[nodiscard]] bool owns() const noexcept { return mu_ != nullptr; }
  [[nodiscard]] Mutex* mutex() const noexcept { return mu_; }

 private:
  friend class Cond;
  Ctx* c_ = nullptr;
  Mutex* mu_ = nullptr;
};

struct LockAwaiter {
  Ctx& c;
  Mutex& mu;

  bool await_ready() const noexcept { return false; }
  bool await_suspend(TaskFn::Handle) {
    TaskRecord* rec = c.record();
    c.engine()->charge(c, costs::kMutexAcquire);
    {
      util::MutexLock g(mu.m_);
      if (mu.held_) {
        rec->state = TaskState::kBlocked;
        c.engine()->on_block(c);
        mu.waiters_.push_back(&rec->desc);
        return true;
      }
      mu.held_ = true;
      mu.holder_ = rec;
    }
    // Acquired without blocking: joins whatever the previous holder released.
    // (The blocked path's edge is emitted by Mutex::unlock at handoff.)
    if (auto* so = c.engine()->sync_observer()) {
      so->on_acquire(&mu, rec->desc.seq);
    }
    return false;
  }
  LockGuard await_resume() const noexcept { return LockGuard(&c, &mu); }
};

// ---------------------------------------------------------------------------
// TaskGroup (waitfor)
// ---------------------------------------------------------------------------

class TaskGroup {
 public:
  TaskGroup() = default;
  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  [[nodiscard]] std::uint64_t outstanding() const {
    util::MutexLock g(m_);
    return outstanding_;
  }

  /// Runtime-internal: a task was spawned into this group.
  void add_task() {
    util::MutexLock g(m_);
    ++outstanding_;
  }

  /// Runtime-internal: a member task completed (called by the engines).
  void task_done(Ctx& completer);

 private:
  friend struct GroupWaitAwaiter;
  mutable util::Mutex m_;
  std::uint64_t outstanding_ COOL_GUARDED_BY(m_) = 0;
  WaitList waiters_ COOL_GUARDED_BY(m_);
};

struct GroupWaitAwaiter {
  Ctx& c;
  TaskGroup& grp;

  bool await_ready() const noexcept { return false; }
  bool await_suspend(TaskFn::Handle) {
    TaskRecord* rec = c.record();
    {
      util::MutexLock g(grp.m_);
      if (grp.outstanding_ != 0) {
        rec->state = TaskState::kBlocked;
        c.engine()->on_block(c);
        grp.waiters_.push_back(&rec->desc);
        return true;
      }
    }
    // Nothing to wait for — but members that already completed still ordered
    // themselves before this waitfor, so join their edges.
    if (auto* so = c.engine()->sync_observer()) {
      so->on_group_wait(&grp, rec->desc.seq);
    }
    return false;
  }
  void await_resume() const noexcept {}
};

// ---------------------------------------------------------------------------
// Cond
// ---------------------------------------------------------------------------

class Cond {
 public:
  Cond() = default;
  Cond(const Cond&) = delete;
  Cond& operator=(const Cond&) = delete;

  /// Wake one waiter. The caller should hold the associated Mutex (monitor
  /// discipline); the woken task re-acquires that mutex before resuming.
  void signal(Ctx& c);
  /// Wake all waiters.
  void broadcast(Ctx& c);

  [[nodiscard]] std::size_t n_waiting() const {
    util::MutexLock g(m_);
    return waiters_.size();
  }

 private:
  friend struct CondWaitAwaiter;
  void wake(Ctx& c, TaskRecord* rec);

  mutable util::Mutex m_;
  WaitList waiters_ COOL_GUARDED_BY(m_);
};

struct CondWaitAwaiter {
  Ctx& c;
  Cond& cv;
  Mutex& mu;

  bool await_ready() const noexcept { return false; }
  bool await_suspend(TaskFn::Handle) {
    TaskRecord* rec = c.record();
    {
      util::MutexLock g(mu.m_);
      COOL_CHECK(mu.holder_ == rec, "cond wait requires holding the mutex");
    }
    rec->state = TaskState::kBlocked;
    rec->reacquire = &mu;
    c.engine()->on_block(c);
    {
      util::MutexLock g(cv.m_);
      cv.waiters_.push_back(&rec->desc);
    }
    // Release the monitor while waiting; on signal the mutex is re-acquired
    // on our behalf before we are resumed, so the caller's LockGuard remains
    // valid across the wait.
    mu.unlock(c);
    return true;
  }
  void await_resume() const noexcept {}
};

// ---------------------------------------------------------------------------
// Yield
// ---------------------------------------------------------------------------

struct YieldAwaiter {
  Ctx& c;
  bool await_ready() const noexcept { return false; }
  bool await_suspend(TaskFn::Handle) {
    c.record()->state = TaskState::kYielded;
    c.engine()->on_yield(c);
    return true;
  }
  void await_resume() const noexcept {}
};

// ---------------------------------------------------------------------------
// Ctx awaitable factories (declared in ctx.hpp)
// ---------------------------------------------------------------------------

inline auto Ctx::lock(Mutex& m) { return LockAwaiter{*this, m}; }
inline auto Ctx::wait(TaskGroup& g) { return GroupWaitAwaiter{*this, g}; }
inline auto Ctx::wait(Cond& cv, Mutex& m) { return CondWaitAwaiter{*this, cv, m}; }
inline auto Ctx::yield() { return YieldAwaiter{*this}; }

// The final awaiter notifies the engine while the resuming thread still owns
// the frame (see taskfn.hpp).
inline void TaskFn::promise_type::FinalAwaiter::await_suspend(
    std::coroutine_handle<promise_type> h) noexcept {
  Ctx* c = h.promise().ctx;
  c->engine()->on_complete(*c);
}

}  // namespace cool
