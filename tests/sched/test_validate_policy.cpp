// validate_policy: meaningless Policy flag combinations are rejected at
// Runtime init with a clear error instead of being silently ignored.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "core/runtime.hpp"
#include "sched/scheduler.hpp"

namespace cool::sched {
namespace {

topo::MachineConfig two_clusters() { return topo::MachineConfig::dash(8); }
topo::MachineConfig one_cluster() { return topo::MachineConfig::dash(4); }

TEST(ValidatePolicy, DefaultPolicyIsValid) {
  EXPECT_NO_THROW(validate_policy(Policy{}, two_clusters()));
}

TEST(ValidatePolicy, StealRefinementsNeedStealingEnabled) {
  Policy p;
  p.steal_enabled = false;
  p.steal_whole_sets = false;
  EXPECT_NO_THROW(validate_policy(p, two_clusters()));

  Policy whole = p;
  whole.steal_whole_sets = true;
  EXPECT_THROW(validate_policy(whole, two_clusters()), util::Error);

  Policy object = p;
  object.steal_object_tasks = true;
  EXPECT_THROW(validate_policy(object, two_clusters()), util::Error);

  Policy scoped = p;
  scoped.cluster_first = true;
  EXPECT_THROW(validate_policy(scoped, two_clusters()), util::Error);

  Policy capped = p;
  capped.max_steal_scan = 4;
  EXPECT_THROW(validate_policy(capped, two_clusters()), util::Error);
}

TEST(ValidatePolicy, PinnedSetStealingRequiresWholeSetStealing) {
  Policy p;
  p.steal_whole_sets = false;
  p.steal_pinned_sets = true;
  EXPECT_THROW(validate_policy(p, two_clusters()), util::Error);
}

TEST(ValidatePolicy, ClusterScopesAreMutuallyExclusive) {
  Policy p;
  p.cluster_first = true;
  p.cluster_only = true;
  EXPECT_THROW(validate_policy(p, two_clusters()), util::Error);
}

TEST(ValidatePolicy, ClusterOnlyNeedsMoreThanOneCluster) {
  Policy p;
  p.cluster_only = true;
  EXPECT_NO_THROW(validate_policy(p, two_clusters()));
  EXPECT_THROW(validate_policy(p, one_cluster()), util::Error);
}

TEST(ValidatePolicy, BalancersNeedTheStealPath) {
  Policy p;
  p.steal_enabled = false;
  p.steal_whole_sets = false;
  p.balancer = BalancerKind::kAverage;
  EXPECT_THROW(validate_policy(p, two_clusters()), util::Error);
  p.balancer = BalancerKind::kReserve;
  EXPECT_THROW(validate_policy(p, two_clusters(), true), util::Error);
}

TEST(ValidatePolicy, ReserveNeedsProfileAttribution) {
  Policy p;
  p.balancer = BalancerKind::kReserve;
  EXPECT_THROW(validate_policy(p, two_clusters()), util::Error);
  EXPECT_NO_THROW(validate_policy(p, two_clusters(), /*profile=*/true));
}

TEST(ValidatePolicy, RuntimeInitRejectsReserveWithoutProfile) {
  SystemConfig sc;
  sc.machine = two_clusters();
  sc.policy.balancer = BalancerKind::kReserve;
  EXPECT_THROW(Runtime rt(sc), util::Error);
  sc.profile = true;
  EXPECT_NO_THROW(Runtime rt(sc));
  // Only the simulation engine builds the profiler, so the real-threads
  // engine has no heat to reserve by, --profile or not.
  sc.mode = SystemConfig::Mode::kThreads;
  EXPECT_THROW(Runtime rt(sc), util::Error);
}

TEST(ValidatePolicy, RuntimeInitRejectsInvalidPolicy) {
  SystemConfig sc;
  sc.machine = two_clusters();
  sc.policy.steal_enabled = false;  // whole-set flag left at its default=true
  EXPECT_THROW(Runtime rt(sc), util::Error);
}

}  // namespace
}  // namespace cool::sched
