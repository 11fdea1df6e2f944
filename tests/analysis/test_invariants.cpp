// Tests for the scheduler invariant checker: the queue ledger, structural
// validation, paranoid per-mutation checking, and the concurrent/quiescent
// entry points (including one under real multi-threaded load).
#include "analysis/invariants.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "common/error.hpp"
#include "sched/queues.hpp"

namespace cool::analysis {
namespace {

sched::TaskDesc make_task(std::uint64_t seq,
                          sched::Affinity aff = sched::Affinity::none()) {
  sched::TaskDesc t;
  t.seq = seq;
  t.aff = aff;
  if (aff.has_task()) t.aff_key = aff.task_obj / 16;
  return t;
}

sched::Scheduler make_sched(const topo::MachineConfig& machine,
                            sched::Policy policy = sched::Policy{}) {
  return sched::Scheduler(machine, policy,
                          [](std::uint64_t, topo::ProcId toucher) {
                            return toucher;
                          });
}

TEST(Invariants, LedgerBalancesPushesAndPops) {
  sched::ServerQueues q(8);
  auto a = make_task(1);
  auto b = make_task(2);
  auto c = make_task(3);
  q.push(&a);
  q.push(&b);
  q.push_resumed(&c);
  EXPECT_EQ(q.pushed(), 3u);
  EXPECT_EQ(q.popped(), 0u);
  q.validate();
  (void)q.pop();
  (void)q.pop();
  EXPECT_EQ(q.pushed(), 3u);
  EXPECT_EQ(q.popped(), 2u);
  q.validate();
  (void)q.pop();
  EXPECT_EQ(q.popped(), 3u);
  EXPECT_TRUE(q.empty());
  q.validate();
}

TEST(Invariants, LedgerCountsStolenTasks) {
  sched::ServerQueues q(64);
  alignas(64) int obj = 0;
  std::vector<sched::TaskDesc> tasks;
  tasks.reserve(4);
  for (std::uint64_t i = 0; i < 4; ++i) {
    tasks.push_back(make_task(i + 1, sched::Affinity::task(&obj)));
  }
  for (auto& t : tasks) q.push(&t);
  std::vector<sched::TaskDesc*> set;
  ASSERT_EQ(q.try_steal_set(set), sched::TrySteal::kGot);
  EXPECT_EQ(set.size(), 4u);
  EXPECT_EQ(q.popped(), 4u);
  q.validate();
}

TEST(Invariants, ValidateCatchesOwnerMismatch) {
  sched::ServerQueues q(8);
  q.set_owner(3);
  auto t = make_task(1);
  t.server = 3;
  q.push(&t);
  q.validate();
  t.server = 5;  // corrupt: the queue's tasks must name server 3
  EXPECT_THROW(q.validate(), util::Error);
  t.server = 3;    // undo the corruption...
  (void)q.pop();   // ...and unlink the stack-owned task before it dies
}

TEST(Invariants, ParanoidChecksEveryMutation) {
  util::ScopedCheckLevel lvl(util::CheckLevel::kParanoid);
  sched::ServerQueues q(64);
  alignas(64) int obj = 0;
  auto plain = make_task(1);
  auto aff = make_task(2, sched::Affinity::task(&obj));
  q.push(&plain);
  q.push(&aff);
  sched::TaskDesc* first = q.pop();
  ASSERT_NE(first, nullptr);
  q.push_resumed(first);  // unblocked task jumps the line, re-checked
  (void)q.pop();
  (void)q.pop();
  EXPECT_TRUE(q.empty());
  q.validate();
}

TEST(Invariants, QuiescentCheckPassesOnCleanScheduler) {
  const topo::MachineConfig machine = topo::MachineConfig::dash(8);
  auto s = make_sched(machine);
  std::vector<sched::TaskDesc> tasks(16);
  for (std::uint64_t i = 0; i < tasks.size(); ++i) {
    tasks[i] = make_task(i + 1);
    s.place(&tasks[i], static_cast<topo::ProcId>(i % machine.n_procs));
  }
  check_scheduler_concurrent(s);
  check_scheduler_quiescent(s);
  // Drain everything and re-check the empty state.
  std::size_t got = 0;
  for (topo::ProcId p = 0; p < machine.n_procs; ++p) {
    while (s.acquire(p).task != nullptr) ++got;
  }
  EXPECT_EQ(got, tasks.size());
  check_scheduler_quiescent(s);
  EXPECT_EQ(s.total_queued(), 0u);
}

TEST(Invariants, QuiescentCountsEveryQueuedTaskOnce) {
  const topo::MachineConfig machine = topo::MachineConfig::dash(4);
  auto s = make_sched(machine);
  alignas(64) int obj = 0;
  std::vector<sched::TaskDesc> tasks(8);
  for (std::uint64_t i = 0; i < tasks.size(); ++i) {
    tasks[i] = make_task(i + 1, i % 2 == 0 ? sched::Affinity::task(&obj)
                                           : sched::Affinity::none());
    s.place(&tasks[i], 0);
  }
  EXPECT_EQ(s.total_queued(), tasks.size());
  std::size_t visited = 0;
  s.for_each_queued([&](const sched::TaskDesc*) { ++visited; });
  EXPECT_EQ(visited, tasks.size());
  check_scheduler_quiescent(s);
}

TEST(Invariants, MovedTasksLandInExactlyOneQueue) {
  // Fill processor 0's queue under the Average balancer, trigger a move via
  // an idle acquire, and validate the quiescent walk: every balancer-moved
  // task is resident in exactly one queue (and counted once in the ledger).
  const topo::MachineConfig machine = topo::MachineConfig::dash(4);
  sched::Policy policy;
  policy.balancer = sched::BalancerKind::kAverage;
  auto s = make_sched(machine, policy);
  std::vector<sched::TaskDesc> tasks(24);
  for (std::uint64_t i = 0; i < tasks.size(); ++i) {
    tasks[i] = make_task(i + 1);
    s.place(&tasks[i], 0);
  }
  const auto acq = s.acquire(2);
  ASSERT_NE(acq.task, nullptr);
  EXPECT_TRUE(acq.moved);
  EXPECT_GT(s.stats().balance_moves, 0u);
  check_scheduler_quiescent(s);
  std::size_t moved_queued = 0;
  s.for_each_queued([&](const sched::TaskDesc* t) {
    if (t->moved) ++moved_queued;
  });
  EXPECT_GT(moved_queued, 0u);  // the batch minus the one the mover took
  // Drain and re-validate the empty state.
  std::size_t got = 1;
  for (topo::ProcId p = 0; got < tasks.size();
       p = static_cast<topo::ProcId>((p + 1) % machine.n_procs)) {
    if (s.acquire(p).task != nullptr) ++got;
  }
  check_scheduler_quiescent(s);
  EXPECT_EQ(s.total_queued(), 0u);
}

TEST(Invariants, ConcurrentCheckIsSafeUnderLoad) {
  // Workers churn place/acquire while a checker thread validates: the
  // concurrent entry point must hold only one queue lock at a time and
  // never trip on mid-flight tasks. Stealing is off so each worker's
  // stack-owned descriptors stay in its own queue.
  const topo::MachineConfig machine = topo::MachineConfig::dash(4);
  sched::Policy policy;
  policy.steal_enabled = false;
  auto s = make_sched(machine, policy);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> seq{1};
  std::vector<std::thread> workers;
  workers.reserve(machine.n_procs);
  for (topo::ProcId p = 0; p < machine.n_procs; ++p) {
    workers.emplace_back([&, p] {
      std::vector<sched::TaskDesc> pool(64);
      for (int round = 0; round < 50; ++round) {
        for (auto& t : pool) {
          t = make_task(seq.fetch_add(1));
          s.place(&t, p);
        }
        std::size_t got = 0;
        while (got < pool.size()) {
          if (s.acquire(p).task != nullptr) ++got;
        }
      }
    });
  }
  std::thread checker([&] {
    while (!stop.load()) check_scheduler_concurrent(s);
  });
  for (auto& w : workers) w.join();
  stop.store(true);
  checker.join();
  check_scheduler_quiescent(s);
}

}  // namespace
}  // namespace cool::analysis
