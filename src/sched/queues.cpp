#include "sched/queues.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace cool::sched {

ServerQueues::ServerQueues(std::size_t affinity_array_size)
    : slots_(affinity_array_size) {
  COOL_CHECK(affinity_array_size >= 1, "affinity array needs at least one slot");
}

void ServerQueues::on_slot_push(AffSlot& slot) {
  if (!slot.hook.is_linked()) nonempty_.push_back(&slot);
}

void ServerQueues::on_slot_pop(AffSlot& slot) {
  if (slot.tasks.empty()) {
    slot.hook.unlink();
    if (active_ == &slot) active_ = nullptr;
  }
}

void ServerQueues::push_locked(TaskDesc* t) {
  COOL_DCHECK(t != nullptr, "null task");
  if (t->aff.has_task()) {
    AffSlot& slot = slots_[slot_of(t->aff_key)];
    slot.tasks.push_back(t);
    on_slot_push(slot);
  } else {
    object_q_.push_back(t);
  }
  ++pushed_;
  const std::size_t n = size_.load(std::memory_order_relaxed) + 1;
  size_.store(n, std::memory_order_relaxed);
  if (n > max_depth_.load(std::memory_order_relaxed)) {
    max_depth_.store(n, std::memory_order_relaxed);
  }
}

void ServerQueues::push(TaskDesc* t) {
  util::MutexLock g(mu_);
  push_locked(t);
  maybe_check_locked();
}

void ServerQueues::push_resumed(TaskDesc* t) {
  COOL_DCHECK(t != nullptr, "null task");
  util::MutexLock g(mu_);
  object_q_.push_front(t);
  ++pushed_;
  const std::size_t n = size_.load(std::memory_order_relaxed) + 1;
  size_.store(n, std::memory_order_relaxed);
  if (n > max_depth_.load(std::memory_order_relaxed)) {
    max_depth_.store(n, std::memory_order_relaxed);
  }
  maybe_check_locked();
}

TaskDesc* ServerQueues::pop_locked() {
  // Keep draining the active affinity set: this is the back-to-back execution
  // that gives the paper's cache reuse.
  if (active_ != nullptr && !active_->tasks.empty()) {
    TaskDesc* t = active_->tasks.pop_front();
    on_slot_pop(*active_);
    ++popped_;
    size_.fetch_sub(1, std::memory_order_relaxed);
    return t;
  }
  active_ = nullptr;
  if (AffSlot* slot = nonempty_.front()) {
    active_ = slot;
    TaskDesc* t = slot->tasks.pop_front();
    on_slot_pop(*slot);
    ++popped_;
    size_.fetch_sub(1, std::memory_order_relaxed);
    return t;
  }
  if (TaskDesc* t = object_q_.pop_front()) {
    ++popped_;
    size_.fetch_sub(1, std::memory_order_relaxed);
    return t;
  }
  return nullptr;
}

TaskDesc* ServerQueues::pop() {
  util::MutexLock g(mu_);
  TaskDesc* t = pop_locked();
  maybe_check_locked();
  return t;
}

std::vector<TaskDesc*> ServerQueues::steal_set_locked(bool allow_pinned,
                                                      bool allow_reserved) {
  // Steal the set least likely to be serviced soon: the eligible set nearest
  // the back, and the active set (which the owner is draining) only when no
  // other is eligible. Pinned sets are skipped unless allowed.
  auto eligible = [&](AffSlot* s) {
    if (allow_pinned && allow_reserved) return true;
    // Check every queued task: hash collisions can put a pinned set and an
    // unpinned set in the same slot, and the whole slot moves on a steal.
    for (const TaskDesc* t : s->tasks) {
      if (!allow_pinned &&
          (t->aff.has_processor() || t->aff.has_object())) {
        return false;
      }
      if (!allow_reserved && t->reserved) return false;
    }
    return !s->tasks.empty();
  };
  AffSlot* victim = nonempty_.find_last(
      [&](AffSlot* s) { return s != active_ && eligible(s); });
  if (victim == nullptr && active_ != nullptr && eligible(active_)) {
    victim = active_;
  }
  if (victim == nullptr) return {};
  std::vector<TaskDesc*> set;
  while (TaskDesc* t = victim->tasks.pop_front()) {
    t->stolen = true;
    set.push_back(t);
    ++popped_;
    size_.fetch_sub(1, std::memory_order_relaxed);
  }
  on_slot_pop(*victim);
  return set;
}

TrySteal ServerQueues::try_steal_set(std::vector<TaskDesc*>& out,
                                     bool allow_pinned, bool allow_reserved) {
  if (!mu_.try_lock()) return TrySteal::kBusy;
  util::MutexLock l(mu_, util::kAdoptLock);
  out = steal_set_locked(allow_pinned, allow_reserved);
  maybe_check_locked();
  return out.empty() ? TrySteal::kEmpty : TrySteal::kGot;
}

TaskDesc* ServerQueues::steal_object_task_locked(bool allow_pinned,
                                                 bool allow_reserved) {
  TaskDesc* t = nullptr;
  if (allow_pinned && allow_reserved) {
    t = object_q_.pop_back();
  } else {
    // The youngest eligible task, scanning from the back: hint-free unless
    // pins are allowed, unreserved unless reservations are up for grabs.
    t = object_q_.find_last([&](const TaskDesc* cand) {
      return (allow_pinned || cand->aff.is_none()) &&
             (allow_reserved || !cand->reserved);
    });
    if (t != nullptr) TaskList::erase(t);
  }
  if (t != nullptr) {
    t->stolen = true;
    ++popped_;
    size_.fetch_sub(1, std::memory_order_relaxed);
  }
  return t;
}

TrySteal ServerQueues::try_steal_object_task(TaskDesc*& out, bool allow_pinned,
                                             bool allow_reserved) {
  if (!mu_.try_lock()) return TrySteal::kBusy;
  util::MutexLock l(mu_, util::kAdoptLock);
  out = steal_object_task_locked(allow_pinned, allow_reserved);
  maybe_check_locked();
  return out != nullptr ? TrySteal::kGot : TrySteal::kEmpty;
}

TrySteal ServerQueues::try_move_tasks(std::vector<TaskDesc*>& out,
                                      std::uint32_t max_tasks) {
  if (!mu_.try_lock()) return TrySteal::kBusy;
  util::MutexLock l(mu_, util::kAdoptLock);
  out.clear();
  auto take = [&](TaskDesc* t) {
    t->moved = true;
    out.push_back(t);
    ++popped_;
    size_.fetch_sub(1, std::memory_order_relaxed);
  };
  // Youngest object-queue tasks first (least likely to be popped soon), then
  // whole affinity slots from the back so moved sets stay contiguous on the
  // destination.
  while (out.size() < max_tasks) {
    TaskDesc* t = object_q_.pop_back();
    if (t == nullptr) break;
    take(t);
  }
  while (out.size() < max_tasks) {
    AffSlot* s = nonempty_.front();
    if (s == nullptr) break;
    TaskDesc* t = s->tasks.pop_back();
    take(t);
    on_slot_pop(*s);
  }
  maybe_check_locked();
  return out.empty() ? TrySteal::kEmpty : TrySteal::kGot;
}

TaskDesc* ServerQueues::adopt_and_pop(const std::vector<TaskDesc*>& set,
                                      topo::ProcId new_server) {
  util::MutexLock g(mu_);
  for (TaskDesc* t : set) {
    t->server = new_server;
    push_locked(t);
  }
  TaskDesc* t = pop_locked();
  maybe_check_locked();
  return t;
}

std::size_t ServerQueues::n_nonempty_affinity_queues() const {
  util::MutexLock g(mu_);
  return nonempty_.size();
}

// --- Invariant checking ------------------------------------------------------

void ServerQueues::check_locked() const {
  std::size_t in_slots = 0;
  std::size_t nonempty_count = 0;
  bool active_in_range = active_ == nullptr;
  for (const AffSlot& s : slots_) {
    const std::size_t n = s.tasks.size();
    COOL_CHECK(s.hook.is_linked() == (n != 0),
               "invariant: slot on the non-empty list iff it holds tasks");
    if (&s == active_) active_in_range = true;
    if (n == 0) continue;
    ++nonempty_count;
    in_slots += n;
    const auto idx = static_cast<std::size_t>(&s - slots_.data());
    for (const TaskDesc* t : s.tasks) {
      COOL_CHECK(t->aff.has_task(),
                 "invariant: affinity-slot task without TASK affinity");
      COOL_CHECK(slot_of(t->aff_key) == idx,
                 "invariant: task hashed into the wrong affinity slot");
      COOL_CHECK(owner_ == kNoOwner || t->server == owner_,
                 "invariant: queued task's server is not the queue owner");
    }
  }
  COOL_CHECK(active_in_range,
             "invariant: active set pointer outside the slot array");
  COOL_CHECK(active_ == nullptr || !active_->tasks.empty(),
             "invariant: active set pointer left on a drained slot");
  // The owner takes a set from the front, and sets join at the back.
  COOL_CHECK(active_ == nullptr || active_ == nonempty_.front(),
             "invariant: active set is not the first non-empty slot");
  COOL_CHECK(nonempty_.size() == nonempty_count,
             "invariant: non-empty list out of sync with slot contents");
  for (const AffSlot* s : nonempty_) {
    COOL_CHECK(!s->tasks.empty(), "invariant: empty slot on non-empty list");
  }
  for (const TaskDesc* t : object_q_) {
    COOL_CHECK(owner_ == kNoOwner || t->server == owner_,
               "invariant: queued task's server is not the queue owner");
  }
  const std::size_t total = in_slots + object_q_.size();
  COOL_CHECK(size_.load(std::memory_order_relaxed) == total,
             "invariant: size counter out of sync with queue contents");
  COOL_CHECK(pushed_ - popped_ == total,
             "invariant: enqueue/dequeue ledger does not balance");
  COOL_CHECK(max_depth_.load(std::memory_order_relaxed) >= total,
             "invariant: high-water mark below the current depth");
}

void ServerQueues::validate() const {
  util::MutexLock g(mu_);
  check_locked();
}

void ServerQueues::for_each_task(
    const std::function<void(const TaskDesc*)>& fn) const {
  util::MutexLock g(mu_);
  for (const AffSlot& s : slots_) {
    for (const TaskDesc* t : s.tasks) fn(t);
  }
  for (const TaskDesc* t : object_q_) fn(t);
}

std::uint64_t ServerQueues::pushed() const {
  util::MutexLock g(mu_);
  return pushed_;
}

std::uint64_t ServerQueues::popped() const {
  util::MutexLock g(mu_);
  return popped_;
}

}  // namespace cool::sched
