#include "sched/policy.hpp"

#include "common/error.hpp"

namespace cool::sched {

const char* balancer_kind_name(BalancerKind k) {
  switch (k) {
    case BalancerKind::kStealing:
      return "stealing";
    case BalancerKind::kAverage:
      return "average";
    case BalancerKind::kReserve:
      return "reserve";
  }
  return "?";
}

void validate_policy(const Policy& policy, const topo::MachineConfig& machine,
                     bool profile_available) {
  if (!policy.steal_enabled) {
    if (policy.steal_whole_sets || policy.steal_pinned_sets ||
        policy.steal_object_tasks) {
      throw util::Error(
          "invalid scheduler policy: steal_whole_sets/steal_pinned_sets/"
          "steal_object_tasks have no effect with steal_enabled=false — "
          "clear them or enable stealing");
    }
    if (policy.cluster_first || policy.cluster_only) {
      throw util::Error(
          "invalid scheduler policy: cluster_first/cluster_only scope the "
          "steal scan, which steal_enabled=false disables entirely");
    }
    if (policy.max_steal_scan != 0) {
      throw util::Error(
          "invalid scheduler policy: max_steal_scan caps the steal scan, "
          "which steal_enabled=false disables entirely");
    }
  }
  if (policy.steal_pinned_sets && !policy.steal_whole_sets) {
    throw util::Error(
        "invalid scheduler policy: steal_pinned_sets refines whole-set "
        "stealing and requires steal_whole_sets=true");
  }
  if (policy.cluster_first && policy.cluster_only) {
    throw util::Error(
        "invalid scheduler policy: cluster_first and cluster_only are "
        "mutually exclusive scan scopes — pick one");
  }
  if (policy.cluster_only && machine.n_clusters() <= 1) {
    throw util::Error(
        "invalid scheduler policy: cluster_only on a machine with a single "
        "cluster cannot restrict anything — drop the flag or use more "
        "clusters");
  }
  if (policy.balancer != BalancerKind::kStealing && !policy.steal_enabled) {
    throw util::Error(
        "invalid scheduler policy: the average/reserve balancers distribute "
        "work through the steal path, which steal_enabled=false disables — "
        "enable stealing or keep balancer=stealing");
  }
  if (policy.balancer == BalancerKind::kReserve && !profile_available) {
    throw util::Error(
        "invalid scheduler policy: balancer=reserve places tasks by profiled "
        "data hotness and needs --profile attribution (or --adapt under the "
        "simulation engine) — enable profiling or pick another balancer");
  }
}

}  // namespace cool::sched
