// Property test across the scheduling-policy space: whatever the policy,
// every spawned task must execute exactly once, the program result must be
// unchanged, and policy-specific invariants (cluster confinement, pin
// respect) must hold.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "core/cool.hpp"

namespace cool {
namespace {

struct PolicyCase {
  std::string name;
  sched::Policy pol;
};

std::vector<PolicyCase> policy_matrix() {
  std::vector<PolicyCase> cases;
  sched::Policy base;
  cases.push_back({"default", base});
  {
    auto p = base;
    p.steal_enabled = false;
    p.steal_whole_sets = false;  // validate_policy: no steal flags without
                                 // steal_enabled.
    cases.push_back({"no_steal", p});
  }
  {
    auto p = base;
    p.steal_whole_sets = false;
    cases.push_back({"no_set_steal", p});
  }
  {
    auto p = base;
    p.steal_object_tasks = true;
    p.steal_pinned_sets = true;
    cases.push_back({"steal_everything", p});
  }
  {
    auto p = base;
    p.cluster_first = true;
    cases.push_back({"cluster_first", p});
  }
  {
    auto p = base;
    p.steal_object_tasks = true;
    p.steal_pinned_sets = true;
    p.cluster_only = true;
    cases.push_back({"cluster_only", p});
  }
  {
    auto p = base;
    p.honor_affinity = false;
    cases.push_back({"base_mode", p});
  }
  {
    auto p = base;
    p.affinity_array_size = 1;
    cases.push_back({"tiny_array", p});
  }
  {
    auto p = base;
    p.affinity_array_size = 509;
    cases.push_back({"huge_array", p});
  }
  {
    auto p = base;
    p.balancer = sched::BalancerKind::kAverage;
    cases.push_back({"average_balancer", p});
  }
  {
    auto p = base;
    p.balancer = sched::BalancerKind::kAverage;
    p.cluster_only = true;
    cases.push_back({"average_clustered", p});
  }
  {
    auto p = base;
    p.balancer = sched::BalancerKind::kReserve;  // Runtime built with the
                                                 // profiler attached below.
    cases.push_back({"reserve_balancer", p});
  }
  return cases;
}

TaskFn mixed_task(std::vector<std::atomic<int>>* slots, int i, double* blob) {
  auto& c = co_await self();
  c.read(&blob[i * 32], 256);
  c.work(200);
  (*slots)[static_cast<std::size_t>(i)].fetch_add(1);
}

class PolicyMatrix : public ::testing::TestWithParam<int> {};

TEST_P(PolicyMatrix, EveryTaskRunsOnceUnderEveryPolicy) {
  const PolicyCase pc =
      policy_matrix()[static_cast<std::size_t>(GetParam())];
  SystemConfig sc;
  sc.machine = topo::MachineConfig::dash(16);
  sc.policy = pc.pol;
  // The reserve balancer needs the profiler as its hotness sensor.
  sc.profile = pc.pol.balancer == sched::BalancerKind::kReserve;
  Runtime rt(sc);
  const int n = 300;
  double* blob = rt.alloc_array<double>(32 * static_cast<std::size_t>(n), 0);
  // Spread homes.
  for (int i = 0; i < n; ++i) {
    rt.migrate(&blob[i * 32], i % 16, 256);
  }
  std::vector<std::atomic<int>> slots(static_cast<std::size_t>(n));

  rt.run([](std::vector<std::atomic<int>>* s, double* b, int count) -> TaskFn {
    auto& c = co_await self();
    TaskGroup waitfor;
    for (int i = 0; i < count; ++i) {
      Affinity aff;
      switch (i % 4) {
        case 0:
          aff = Affinity::none();
          break;
        case 1:
          aff = Affinity::object(&b[i * 32]);
          break;
        case 2:
          aff = Affinity::task(&b[(i % 9) * 32]);
          break;
        default:
          aff = Affinity::processor(i);
          break;
      }
      c.spawn(aff, waitfor, mixed_task(s, i, b));
    }
    co_await c.wait(waitfor);
  }(&slots, blob, n));

  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(slots[static_cast<std::size_t>(i)].load(), 1)
        << pc.name << " task " << i;
  }
  EXPECT_EQ(rt.tasks_completed(), static_cast<std::uint64_t>(n) + 1)
      << pc.name;

  const auto& ss = rt.sched_stats();
  if (!pc.pol.steal_enabled) {
    EXPECT_EQ(ss.tasks_stolen, 0u) << pc.name;
  }
  if (pc.pol.cluster_only) {
    EXPECT_EQ(ss.remote_cluster_steals, 0u) << pc.name;
  }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, PolicyMatrix,
                         ::testing::Range(0, 12), [](const auto& pinfo) {
                           return policy_matrix()
                               [static_cast<std::size_t>(pinfo.param)]
                                   .name;
                         });

}  // namespace
}  // namespace cool
