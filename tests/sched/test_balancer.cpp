// The steal loop in Scheduler::acquire under each balancer: ring order and
// cluster passes, Average's moves, reserve-directed placement with
// cross-cluster protection, the adaptive balancer switch, and schedule
// determinism across repeated runs.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <deque>
#include <vector>

#include "core/cool.hpp"
#include "sched/scheduler.hpp"

namespace cool::sched {
namespace {

topo::ProcId flat_home(std::uint64_t addr, std::uint32_t n_procs) {
  return static_cast<topo::ProcId>((addr >> 12) % n_procs);
}

/// Puts one hint-free task on every server but `thief` (each lands on its
/// spawner's queue), then checks that `thief`'s acquires take them from
/// `want` in order, probing the emptied servers again each time, and that
/// the failed scan after them probes every other server once.
void expect_scan(Scheduler& s, topo::ProcId thief,
                 const std::vector<topo::ProcId>& want) {
  const std::uint32_t P = s.machine().n_procs;
  std::deque<TaskDesc> tasks;
  for (topo::ProcId p = 0; p < P; ++p) {
    if (p != thief) s.place(&tasks.emplace_back(), p);
  }
  std::uint64_t probes = 0;
  for (std::size_t i = 0; i < want.size(); ++i) {
    const auto acq = s.acquire(thief);
    ASSERT_TRUE(acq.stolen) << "acquire " << i;
    EXPECT_EQ(acq.victim, want[i]) << "acquire " << i;
    probes += i + 1;
    EXPECT_EQ(s.stats().balance_commands, probes) << "acquire " << i;
    EXPECT_EQ(s.detail().steal_scan_victims.sum(), probes) << "acquire " << i;
  }
  EXPECT_EQ(s.acquire(thief).task, nullptr);
  EXPECT_EQ(s.stats().failed_steal_scans, 1u);
  EXPECT_EQ(s.stats().balance_commands, probes + P - 1);
  EXPECT_EQ(s.detail().steal_scan_victims.sum(), probes + P - 1);
}

TEST(StealLoop, ProbesInRingOrderAfterTheThief) {
  const topo::MachineConfig m = topo::MachineConfig::dash(8);
  Scheduler s(m, Policy{}, [&](std::uint64_t a, topo::ProcId) {
    return flat_home(a, m.n_procs);
  });
  expect_scan(s, 3, {4, 5, 6, 7, 0, 1, 2});
}

TEST(StealLoop, ClusterFirstProbesTheClusterThenEachOtherServerOnce) {
  const topo::MachineConfig m = topo::MachineConfig::dash(8);
  Policy pol;
  pol.cluster_first = true;
  Scheduler s(m, pol, [&](std::uint64_t a, topo::ProcId) {
    return flat_home(a, m.n_procs);
  });
  // Thief 1's cluster is {0, 1, 2, 3}: its pass runs first, and the machine
  // pass probes only the other cluster.
  expect_scan(s, 1, {2, 3, 0, 4, 5, 6, 7});
}

TEST(StealLoop, AverageClusterOnlyMovesWorkOnlyWithinTheCluster) {
  const topo::MachineConfig m = topo::MachineConfig::dash(8);
  Policy pol;
  pol.balancer = BalancerKind::kAverage;
  pol.cluster_only = true;
  Scheduler s(m, pol, [&](std::uint64_t a, topo::ProcId) {
    return flat_home(a, m.n_procs);
  });
  // 40 pinned tasks on server 5 (cluster 1) and 8 on server 1 (cluster 0).
  std::vector<TaskDesc> tasks(48);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const topo::ProcId server = i < 40 ? 5 : 1;
    tasks[i].aff = Affinity::processor(static_cast<int>(server));
    s.place(&tasks[i], server);
  }

  // Thief 2's cluster holds 8 tasks, a ceiling average of 2, so the thief
  // pulls server 1 down to 2. Over the machine the average would be 6 and
  // server 5 would come first in ring order (3, 4, 5, ...).
  const auto acq = s.acquire(2);
  ASSERT_NE(acq.task, nullptr);
  EXPECT_TRUE(acq.moved);
  EXPECT_EQ(acq.victim, 1u);
  EXPECT_EQ(s.stats().balance_moves, 6u);

  // Cluster 0 drains its own 8 tasks; cluster 1's work never moves.
  std::size_t got = 1;
  for (int round = 0; round < 100 && got < 8; ++round) {
    for (topo::ProcId p = 0; p < m.procs_per_cluster; ++p) {
      if (s.acquire(p).task != nullptr) ++got;
    }
  }
  EXPECT_EQ(got, 8u);
  const std::uint64_t before = s.stats().balance_commands;
  EXPECT_EQ(s.acquire(2).task, nullptr);
  EXPECT_EQ(s.stats().balance_commands - before, m.procs_per_cluster - 1)
      << "the failed scan probes only the thief's cluster";
  EXPECT_EQ(s.queues(5).size(), 40u);
  EXPECT_EQ(s.stats().remote_cluster_steals, 0u);
}

TEST(StealLoop, AdaptPolicySwitchChangesWhatAcquireReturns) {
  const topo::MachineConfig m = topo::MachineConfig::dash(8);
  Scheduler s(m, Policy{}, [&](std::uint64_t a, topo::ProcId) {
    return flat_home(a, m.n_procs);
  });
  std::vector<TaskDesc> tasks(40);
  for (auto& t : tasks) {
    t.aff = Affinity::processor(0);
    s.place(&t, 0);
  }
  // Stealing leaves pinned work where it is.
  EXPECT_EQ(s.acquire(5).task, nullptr);

  // Average moves it regardless of the pins: ceil(40/8) = 5 stay.
  s.adapt_policy([](Policy& p) { p.balancer = BalancerKind::kAverage; });
  const auto acq = s.acquire(5);
  ASSERT_NE(acq.task, nullptr);
  EXPECT_TRUE(acq.moved);
  EXPECT_EQ(acq.victim, 0u);
  EXPECT_EQ(s.stats().balance_moves, 35u);

  // Back on Stealing, the pinned tasks on servers 0 and 5 stay put again.
  s.adapt_policy([](Policy& p) { p.balancer = BalancerKind::kStealing; });
  EXPECT_EQ(s.acquire(6).task, nullptr);
  EXPECT_EQ(s.stats().balance_moves, 35u);
}

TEST(AverageBalancer, DrainsOverAverageQueuesInOneGrab) {
  const topo::MachineConfig m = topo::MachineConfig::dash(8);
  Policy pol;
  pol.balancer = BalancerKind::kAverage;
  Scheduler s(m, pol, [&](std::uint64_t a, topo::ProcId) {
    return flat_home(a, m.n_procs);
  });

  // Pile 40 pinned tasks onto processor 0's queue.
  std::vector<TaskDesc> tasks(40);
  for (auto& t : tasks) {
    t.aff = Affinity::processor(0);
    s.place(&t, 0);
  }

  // One idle acquire from processor 5 makes one move that pulls queue 0
  // down to the ceiling average in a single grab.
  const auto acq = s.acquire(5);
  ASSERT_NE(acq.task, nullptr);
  EXPECT_TRUE(acq.moved);
  EXPECT_FALSE(acq.stolen);
  EXPECT_EQ(acq.victim, 0u);
  const SchedStats st = s.stats();
  EXPECT_GE(st.balance_commands, 1u);
  // ceil(40/8) = 5 stay on the victim; the mover got the rest.
  EXPECT_EQ(st.balance_moves, 35u);

  // Work conservation: every task still runs exactly once.
  std::size_t got = 1;
  for (topo::ProcId p = 0; got < tasks.size(); p = (p + 1) % m.n_procs) {
    if (s.acquire(p).task != nullptr) ++got;
  }
  EXPECT_FALSE(s.any_work());
}

TEST(ReserveBalancer, PlacesHotKeysOnTheOwningClusterAndProtectsThem) {
  const topo::MachineConfig m = topo::MachineConfig::dash(8);
  Policy pol;
  pol.balancer = BalancerKind::kReserve;
  pol.steal_object_tasks = true;  // Reservation, not exemption, must protect.
  Scheduler s(m, pol, [&](std::uint64_t, topo::ProcId) {
    return static_cast<topo::ProcId>(0);  // Everything homes on proc 0.
  });

  // Static heat: the object at [0x100000, 0x101000) is hot in cluster 1.
  s.set_hotness_source([] {
    return std::vector<DataHotness>{{0x100000, 0x1000, 1, 1000}};
  });

  // A task keyed inside the hot object is redirected into cluster 1 and
  // marked reserved; a task keyed elsewhere keeps its home placement.
  TaskDesc hot;
  hot.aff = Affinity::object(reinterpret_cast<void*>(0x100400));
  s.place(&hot, 0);
  EXPECT_TRUE(hot.reserved);
  EXPECT_EQ(m.cluster_of(hot.server), 1u);

  TaskDesc cold;
  cold.aff = Affinity::object(reinterpret_cast<void*>(0x900000));
  s.place(&cold, 0);
  EXPECT_FALSE(cold.reserved);
  EXPECT_EQ(cold.server, 0u);
  EXPECT_EQ(s.stats().reserve_hits, 1u);

  // Cross-cluster thieves must leave the reserved task alone; a same-cluster
  // processor may take it.
  const auto theft = s.acquire(1);  // cluster 0 thief
  ASSERT_NE(theft.task, nullptr);
  EXPECT_EQ(theft.task, &cold) << "cross-cluster thief took a reserved task";
  const auto local = s.acquire(hot.server);
  ASSERT_NE(local.task, nullptr);
  EXPECT_EQ(local.task, &hot);
}

TEST(ReserveBalancer, ColdSourceLeavesPlacementUntouched) {
  const topo::MachineConfig m = topo::MachineConfig::dash(8);
  Policy pol;
  pol.balancer = BalancerKind::kReserve;
  Scheduler s(m, pol, [&](std::uint64_t a, topo::ProcId) {
    return flat_home(a, m.n_procs);
  });
  // No hotness source installed at all: placement must behave as stealing.
  TaskDesc t;
  t.aff = Affinity::object(reinterpret_cast<void*>(0x100400));
  s.place(&t, 0);
  EXPECT_FALSE(t.reserved);
  EXPECT_EQ(t.server, flat_home(0x100400, m.n_procs));
  EXPECT_EQ(s.stats().reserve_hits, 0u);
}

}  // namespace
}  // namespace cool::sched

namespace cool {
namespace {

TaskFn matrix_task(std::vector<std::atomic<int>>* slots, int i, double* blob) {
  auto& c = co_await self();
  c.read(&blob[i * 32], 256);
  c.work(150);
  (*slots)[static_cast<std::size_t>(i)].fetch_add(1);
}

struct RunDigest {
  std::uint64_t sim_time;
  std::uint64_t steals;
  std::uint64_t balance_commands;
  std::uint64_t balance_moves;
  std::uint64_t reserve_hits;
};

/// One full simulated run of a mixed-affinity workload under `pol`.
RunDigest run_once(const sched::Policy& pol, bool profile) {
  SystemConfig sc;
  sc.machine = topo::MachineConfig::dash(16);
  sc.policy = pol;
  sc.profile = profile;
  Runtime rt(sc);
  const int n = 200;
  double* blob = rt.alloc_array<double>(32 * static_cast<std::size_t>(n), 0);
  std::vector<std::atomic<int>> slots(static_cast<std::size_t>(n));
  rt.profile_register("blob", blob, 32 * sizeof(double) *
                                        static_cast<std::size_t>(n));
  rt.run([](std::vector<std::atomic<int>>* s, double* b, int count) -> TaskFn {
    auto& c = co_await self();
    TaskGroup waitfor;
    for (int i = 0; i < count; ++i) {
      const Affinity aff = i % 2 == 0 ? Affinity::object(&b[i * 32])
                                      : Affinity::task(&b[(i % 7) * 32]);
      c.spawn(aff, waitfor, matrix_task(s, i, b));
    }
    co_await c.wait(waitfor);
  }(&slots, blob, n));
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(slots[static_cast<std::size_t>(i)].load(), 1) << "task " << i;
  }
  const auto ss = rt.sched_stats();
  return {rt.sim_time(), ss.steals, ss.balance_commands, ss.balance_moves,
          ss.reserve_hits};
}

/// Identical runs must produce identical schedules — no balancer adds
/// nondeterminism under the single-threaded simulation engine.
TEST(BalancerDeterminism, RepeatedRunsProduceIdenticalSchedules) {
  for (const sched::BalancerKind kind :
       {sched::BalancerKind::kStealing, sched::BalancerKind::kAverage,
        sched::BalancerKind::kReserve}) {
    sched::Policy pol;
    pol.balancer = kind;
    pol.steal_object_tasks = true;
    const bool profile = kind == sched::BalancerKind::kReserve;
    const RunDigest a = run_once(pol, profile);
    const RunDigest b = run_once(pol, profile);
    const char* name = sched::balancer_kind_name(kind);
    EXPECT_EQ(a.sim_time, b.sim_time) << name;
    EXPECT_EQ(a.steals, b.steals) << name;
    EXPECT_EQ(a.balance_commands, b.balance_commands) << name;
    EXPECT_EQ(a.balance_moves, b.balance_moves) << name;
    EXPECT_EQ(a.reserve_hits, b.reserve_hits) << name;
  }
}

}  // namespace
}  // namespace cool
