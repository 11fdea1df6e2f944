#include "core/sync.hpp"

namespace cool {

void Mutex::unlock(Ctx& c) {
  c.engine()->charge(c, costs::kMutexRelease);
  analysis::SyncObserver* so = c.engine()->sync_observer();
  if (so != nullptr) so->on_release(this, c.record()->desc.seq);
  TaskRecord* next = nullptr;
  {
    util::MutexLock g(m_);
    COOL_CHECK(held_, "unlock of an unheld mutex");
    if (sched::TaskDesc* d = waiters_.pop_front()) {
      next = TaskRecord::of(d);
      holder_ = next;  // Direct FIFO handoff: no barging, deterministic.
    } else {
      held_ = false;
      holder_ = nullptr;
    }
  }
  if (next != nullptr) {
    // The handoff IS the next holder's acquisition.
    if (so != nullptr) so->on_acquire(this, next->desc.seq);
    c.engine()->unblock(next, &c);
  }
}

void TaskGroup::task_done(Ctx& completer) {
  analysis::SyncObserver* so = completer.engine()->sync_observer();
  // Every member's completion is ordered before the waitfor return, not just
  // the last one's, so each contributes a source edge.
  if (so != nullptr) so->on_group_done(this, completer.record()->desc.seq);
  std::vector<TaskRecord*> to_wake;
  {
    util::MutexLock g(m_);
    COOL_CHECK(outstanding_ > 0, "task_done without outstanding tasks");
    if (--outstanding_ != 0) return;
    while (sched::TaskDesc* d = waiters_.pop_front()) {
      to_wake.push_back(TaskRecord::of(d));
    }
  }
  for (TaskRecord* rec : to_wake) {
    if (so != nullptr) so->on_group_wait(this, rec->desc.seq);
    completer.engine()->unblock(rec, &completer);
  }
}

void Cond::wake(Ctx& c, TaskRecord* rec) {
  analysis::SyncObserver* so = c.engine()->sync_observer();
  if (so != nullptr) so->on_cond_wake(this, rec->desc.seq);
  Mutex* mu = rec->reacquire;
  COOL_CHECK(mu != nullptr, "cond waiter lost its monitor mutex");
  rec->reacquire = nullptr;
  bool acquired = false;
  {
    util::MutexLock g(mu->m_);
    if (!mu->held_) {
      mu->held_ = true;
      mu->holder_ = rec;
      acquired = true;
    } else {
      // Monitor still busy: queue on the mutex; the eventual unlock hands it
      // off and unblocks the task then.
      mu->waiters_.push_back(&rec->desc);
    }
  }
  if (acquired) {
    if (so != nullptr) so->on_acquire(mu, rec->desc.seq);
    c.engine()->unblock(rec, &c);
  }
}

void Cond::signal(Ctx& c) {
  c.engine()->charge(c, costs::kCondOp);
  TaskRecord* rec = nullptr;
  {
    util::MutexLock g(m_);
    if (sched::TaskDesc* d = waiters_.pop_front()) rec = TaskRecord::of(d);
  }
  if (rec != nullptr) {
    if (auto* so = c.engine()->sync_observer()) {
      so->on_cond_signal(this, c.record()->desc.seq);
    }
    wake(c, rec);
  }
}

void Cond::broadcast(Ctx& c) {
  c.engine()->charge(c, costs::kCondOp);
  std::vector<TaskRecord*> recs;
  {
    util::MutexLock g(m_);
    while (sched::TaskDesc* d = waiters_.pop_front()) {
      recs.push_back(TaskRecord::of(d));
    }
  }
  if (!recs.empty()) {
    if (auto* so = c.engine()->sync_observer()) {
      so->on_cond_signal(this, c.record()->desc.seq);
    }
  }
  for (TaskRecord* rec : recs) wake(c, rec);
}

}  // namespace cool
