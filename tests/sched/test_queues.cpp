#include "sched/queues.hpp"

#include <gtest/gtest.h>

#include <deque>
#include <string>
#include <vector>

namespace cool::sched {
namespace {

TaskDesc make_task(std::uint64_t seq, Affinity aff = Affinity::none()) {
  TaskDesc t;
  t.seq = seq;
  t.aff = aff;
  if (aff.has_task()) t.aff_key = aff.task_obj / 16;
  return t;
}

TEST(ServerQueues, EmptyPopsNull) {
  ServerQueues q(8);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.pop(), nullptr);
  TaskDesc* t = nullptr;
  EXPECT_EQ(q.try_steal_object_task(t), TrySteal::kEmpty);
  EXPECT_EQ(t, nullptr);
  std::vector<TaskDesc*> set;
  EXPECT_EQ(q.try_steal_set(set), TrySteal::kEmpty);
  EXPECT_TRUE(set.empty());
}

TEST(ServerQueues, ObjectQueueFifo) {
  ServerQueues q(8);
  TaskDesc a = make_task(1), b = make_task(2), c = make_task(3);
  q.push(&a);
  q.push(&b);
  q.push(&c);
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.pop()->seq, 1u);
  EXPECT_EQ(q.pop()->seq, 2u);
  EXPECT_EQ(q.pop()->seq, 3u);
  EXPECT_TRUE(q.empty());
}

TEST(ServerQueues, ResumedTasksJumpTheLine) {
  ServerQueues q(8);
  TaskDesc a = make_task(1), b = make_task(2);
  q.push(&a);
  q.push_resumed(&b);
  EXPECT_EQ(q.pop()->seq, 2u);
  EXPECT_EQ(q.pop()->seq, 1u);
}

TEST(ServerQueues, AffinitySetsServicedBackToBack) {
  ServerQueues q(64);
  alignas(64) int objA = 0;
  alignas(64) int objB = 0;
  // Interleave spawns from two affinity sets.
  std::vector<TaskDesc> tasks;
  tasks.reserve(6);
  for (int i = 0; i < 3; ++i) {
    tasks.push_back(make_task(2 * static_cast<std::uint64_t>(i),
                              Affinity::task(&objA)));
    tasks.push_back(make_task(2 * static_cast<std::uint64_t>(i) + 1,
                              Affinity::task(&objB)));
  }
  ServerQueues q2(64);
  for (auto& t : tasks) q2.push(&t);

  // Dequeue order must drain one whole set before the other.
  std::vector<std::uint64_t> keys;
  while (TaskDesc* t = q2.pop()) keys.push_back(t->aff_key);
  ASSERT_EQ(keys.size(), 6u);
  EXPECT_EQ(keys[0], keys[1]);
  EXPECT_EQ(keys[1], keys[2]);
  EXPECT_EQ(keys[3], keys[4]);
  EXPECT_EQ(keys[4], keys[5]);
  EXPECT_NE(keys[0], keys[3]);
  (void)q;
}

TEST(ServerQueues, AffinityBeforeObjectQueue) {
  ServerQueues q(8);
  int obj = 0;
  TaskDesc plain = make_task(1);
  TaskDesc aff = make_task(2, Affinity::task(&obj));
  q.push(&plain);
  q.push(&aff);
  EXPECT_EQ(q.pop()->seq, 2u);  // Affinity sets drain first.
  EXPECT_EQ(q.pop()->seq, 1u);
}

TEST(ServerQueues, StealSetTakesWholeSet) {
  ServerQueues q(64);
  alignas(64) int objA = 0;
  alignas(64) int objB = 0;
  std::vector<TaskDesc> tasks;
  tasks.reserve(4);
  tasks.push_back(make_task(0, Affinity::task(&objA)));
  tasks.push_back(make_task(1, Affinity::task(&objA)));
  tasks.push_back(make_task(2, Affinity::task(&objB)));
  tasks.push_back(make_task(3, Affinity::task(&objB)));
  ServerQueues v(64);
  for (auto& t : tasks) v.push(&t);

  std::vector<TaskDesc*> set;
  ASSERT_EQ(v.try_steal_set(set), TrySteal::kGot);
  ASSERT_EQ(set.size(), 2u);
  EXPECT_EQ(set[0]->aff_key, set[1]->aff_key);
  EXPECT_TRUE(set[0]->stolen);
  EXPECT_EQ(v.size(), 2u);
  (void)q;
}

TEST(ServerQueues, StealSetAvoidsActiveSet) {
  ServerQueues q(64);
  alignas(64) int objA = 0;
  alignas(64) int objB = 0;
  TaskDesc a1 = make_task(0, Affinity::task(&objA));
  TaskDesc a2 = make_task(1, Affinity::task(&objA));
  TaskDesc b1 = make_task(2, Affinity::task(&objB));
  q.push(&a1);
  q.push(&a2);
  q.push(&b1);
  // Owner starts draining set A.
  TaskDesc* first = q.pop();
  ASSERT_EQ(first, &a1);
  // Thief should get set B, not the remainder of A.
  std::vector<TaskDesc*> set;
  ASSERT_EQ(q.try_steal_set(set), TrySteal::kGot);
  ASSERT_EQ(set.size(), 1u);
  EXPECT_EQ(set[0], &b1);
  // Owner continues with a2 back-to-back.
  EXPECT_EQ(q.pop(), &a2);
}

// A thief that may not take pinned work steals the eligible set nearest the
// back of the non-empty list, and the owner's active set only when no other
// set is eligible. Each layout lists the slots in the order they filled:
// 'a' is the set the owner is draining (always first: the owner takes sets
// from the front, and sets join at the back), 'e' an unpinned set, and 'p' a
// slot where an unpinned set and a pinned one collide, which a thief must
// skip since the whole slot moves. The eligible sets sit before, between and
// after the others; `victim` is the position of the slot stolen.
TEST(ServerQueues, StealSetTakesLastEligibleSet) {
  struct Case {
    const char* layout;
    std::size_t victim;
  };
  for (const Case& c : {Case{"aepep", 3}, Case{"apep", 2}, Case{"aee", 2},
                        Case{"aep", 1}, Case{"app", 0}, Case{"eepe", 3},
                        Case{"epp", 0}}) {
    const std::string layout = c.layout;
    ServerQueues q(8);
    std::deque<TaskDesc> tasks;
    std::vector<std::uint64_t> keys;  // each slot's unpinned set
    std::uint64_t next = 1;
    const auto key_in = [&](std::size_t slot) {
      while (q.slot_of(next) != slot) ++next;
      return next++;
    };
    const auto add = [&](std::uint64_t key, bool pinned) {
      TaskDesc& t = tasks.emplace_back();
      const void* obj = reinterpret_cast<const void*>(key * 16);
      t.aff = pinned ? Affinity::processor_task(3, obj) : Affinity::task(obj);
      t.aff_key = key;
      q.push(&t);
    };
    for (std::size_t i = 0; i < layout.size(); ++i) {
      keys.push_back(key_in(i));
      add(keys.back(), false);
      if (layout[i] == 'a') add(keys.back(), false);
      if (layout[i] == 'p') add(key_in(i), true);
    }
    if (layout[0] == 'a') {
      ASSERT_EQ(q.pop()->aff_key, keys[0]) << layout;
    }
    std::vector<TaskDesc*> set;
    ASSERT_EQ(q.try_steal_set(set, /*allow_pinned=*/false), TrySteal::kGot)
        << layout;
    ASSERT_EQ(set.size(), 1u) << layout;
    EXPECT_EQ(set[0]->aff_key, keys[c.victim]) << layout;
    q.validate();
  }
}

// An Average move takes the object queue youngest first, then the first
// non-empty affinity slot from its tail, slot after slot. The first slot is
// the set the owner is draining, so the move strips it before the sets
// queued behind it, unlike a set steal.
TEST(ServerQueues, MoveTakesObjectQueueThenFrontSlotFromItsTail) {
  ServerQueues q(8);
  std::uint64_t next = 1;
  const auto key_in = [&](std::size_t slot) {
    while (q.slot_of(next) != slot) ++next;
    return next++;
  };
  const std::uint64_t key_a = key_in(0);
  const std::uint64_t key_b = key_in(1);
  std::deque<TaskDesc> tasks;
  const auto add = [&](std::uint64_t seq, std::uint64_t key) {
    TaskDesc& t = tasks.emplace_back();
    t.seq = seq;
    if (key != 0) {
      t.aff = Affinity::task(reinterpret_cast<const void*>(key * 16));
      t.aff_key = key;
    }
    q.push(&t);
  };
  add(1, key_a);  // a1 a2 a3: set A, pushed first
  add(2, key_a);
  add(3, key_a);
  add(4, key_b);  // b1 b2: set B
  add(5, key_b);
  add(6, 0);      // o1 o2: the object queue
  add(7, 0);
  ASSERT_EQ(q.pop()->seq, 1u);  // The owner starts draining set A.

  std::vector<TaskDesc*> out;
  ASSERT_EQ(q.try_move_tasks(out, 5), TrySteal::kGot);
  std::vector<std::uint64_t> seqs;
  for (const TaskDesc* t : out) {
    EXPECT_TRUE(t->moved);
    seqs.push_back(t->seq);
  }
  EXPECT_EQ(seqs, (std::vector<std::uint64_t>{7, 6, 3, 2, 5}));
  EXPECT_EQ(q.pop()->seq, 4u);
  EXPECT_TRUE(q.empty());
  q.validate();
}

TEST(ServerQueues, StealObjectTaskFromBack) {
  ServerQueues q(8);
  TaskDesc a = make_task(1), b = make_task(2);
  q.push(&a);
  q.push(&b);
  TaskDesc* t = nullptr;
  ASSERT_EQ(q.try_steal_object_task(t), TrySteal::kGot);
  EXPECT_EQ(t->seq, 2u);  // Steal the youngest; owner keeps the oldest.
  EXPECT_TRUE(t->stolen);
  EXPECT_EQ(q.pop()->seq, 1u);
}

// With pins and reservations off limits, a thief takes the youngest task that
// is hint-free and unreserved, skipping younger pinned or reserved ones, and
// leaves every other task in order.
TEST(ServerQueues, StealObjectTaskTakesYoungestEligible) {
  ServerQueues q(8);
  int obj = 0;
  TaskDesc free_old = make_task(1);
  TaskDesc pinned_obj = make_task(2, Affinity::object(&obj));
  TaskDesc free_young = make_task(3);
  TaskDesc reserved = make_task(4);
  reserved.reserved = true;
  TaskDesc pinned_proc = make_task(5, Affinity::processor(3));
  for (TaskDesc* t :
       {&free_old, &pinned_obj, &free_young, &reserved, &pinned_proc}) {
    q.push(t);
  }
  TaskDesc* t = nullptr;
  ASSERT_EQ(q.try_steal_object_task(t, /*allow_pinned=*/false,
                                    /*allow_reserved=*/false),
            TrySteal::kGot);
  EXPECT_EQ(t, &free_young);
  EXPECT_TRUE(t->stolen);
  // Reservations allowed: the reserved task is now the youngest eligible.
  ASSERT_EQ(q.try_steal_object_task(t, false, true), TrySteal::kGot);
  EXPECT_EQ(t, &reserved);
  ASSERT_EQ(q.try_steal_object_task(t, false, false), TrySteal::kGot);
  EXPECT_EQ(t, &free_old);
  // Only pinned tasks remain: nothing eligible, and nothing disturbed.
  EXPECT_EQ(q.try_steal_object_task(t, false, false), TrySteal::kEmpty);
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.pop(), &pinned_obj);
  EXPECT_EQ(q.pop(), &pinned_proc);
}

TEST(ServerQueues, AdoptKeepsSetTogether) {
  ServerQueues victim(64), thief(64);
  int obj = 0;
  std::vector<TaskDesc> tasks;
  tasks.reserve(3);
  for (int i = 0; i < 3; ++i) {
    tasks.push_back(make_task(static_cast<std::uint64_t>(i),
                              Affinity::task(&obj)));
  }
  for (auto& t : tasks) victim.push(&t);
  std::vector<TaskDesc*> set;
  ASSERT_EQ(victim.try_steal_set(set), TrySteal::kGot);
  // FIFO order preserved inside the set: the thief runs the oldest first.
  EXPECT_EQ(thief.adopt_and_pop(set, 5)->seq, 0u);
  EXPECT_EQ(thief.size(), 2u);
  for (auto* t : set) EXPECT_EQ(t->server, 5u);
  EXPECT_EQ(thief.pop()->seq, 1u);
  EXPECT_EQ(thief.pop()->seq, 2u);
}

TEST(ServerQueues, CollisionsShareOneQueue) {
  // Array of size 1: every affinity set collides on the same queue.
  ServerQueues q(1);
  int objA = 0, objB = 0;
  TaskDesc a = make_task(0, Affinity::task(&objA));
  TaskDesc b = make_task(1, Affinity::task(&objB));
  q.push(&a);
  q.push(&b);
  EXPECT_EQ(q.n_nonempty_affinity_queues(), 1u);
  EXPECT_EQ(q.pop()->seq, 0u);
  EXPECT_EQ(q.pop()->seq, 1u);
}

TEST(ServerQueues, NonemptyTracking) {
  ServerQueues q(64);
  int obj = 0;
  TaskDesc a = make_task(0, Affinity::task(&obj));
  EXPECT_EQ(q.n_nonempty_affinity_queues(), 0u);
  q.push(&a);
  EXPECT_EQ(q.n_nonempty_affinity_queues(), 1u);
  q.pop();
  EXPECT_EQ(q.n_nonempty_affinity_queues(), 0u);
}

TEST(ServerQueues, ZeroSlotArrayThrows) {
  EXPECT_THROW(ServerQueues(0), util::Error);
}

}  // namespace
}  // namespace cool::sched
