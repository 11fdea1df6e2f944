// Scheduling policy knobs.
//
// Placement and stealing flags follow paper §4/§5; the `balancer` knob
// selects how the scheduler distributes work (sched/scheduler.hpp): the steal
// loop in Scheduler::acquire, with Average's moves before the probes, or
// Reserve's hotness-directed placement. kStealing is the default and is the
// paper's idle-steal scan.
#pragma once

#include <cstddef>
#include <cstdint>

#include "topology/machine.hpp"

namespace cool::sched {

/// How the scheduler distributes work.
enum class BalancerKind : std::uint8_t {
  kStealing,  ///< The paper's idle-steal victim scan (default).
  kAverage,   ///< Queue-length equalization within each steal pass's scope.
  kReserve,   ///< Hotness-directed placement reservation + steal backstop.
};

const char* balancer_kind_name(BalancerKind k);

struct Policy {
  std::size_t affinity_array_size = 64;  ///< Queues per server (paper §5).
  bool steal_enabled = true;
  bool steal_whole_sets = true;    ///< Steal task-affinity sets as a unit.
  bool steal_pinned_sets = false;  ///< Also steal sets pinned by PROCESSOR /
                                   ///< OBJECT hints (default: respect pins).
  bool steal_object_tasks = false; ///< Allow stealing tasks pinned by OBJECT /
                                   ///< PROCESSOR hints (paper: "preferably
                                   ///< not"; hint-free tasks are always
                                   ///< stealable).
  bool cluster_first = false;     ///< Prefer victims in the thief's cluster.
  bool cluster_only = false;      ///< Never steal outside the cluster.
  bool honor_affinity = true;     ///< false = ignore all hints (the paper's
                                  ///< "Base" round-robin scheduling).
  bool multi_object_placement = true;  ///< Size-weighted placement for
                                       ///< multi-object affinity (§8); false
                                       ///< = paper's "first object" fallback.
  bool prefetch_objects = false;  ///< Prefetch a task's non-local affinity
                                  ///< objects at dispatch (§8; sim engine).
  std::uint32_t max_steal_scan = 0;  ///< Cap victims probed per steal scan
                                     ///< (0 = scan every other server). The
                                     ///< adaptive runtime sets this when a
                                     ///< steal storm persists.

  /// Work-distribution policy (see BalancerKind).
  BalancerKind balancer = BalancerKind::kStealing;
  /// Bitmask of processors the Reserve balancer must not redirect work to
  /// (bit p = processor p). Serving workloads set the front-end bit: the
  /// admission pump occupies its processor without sitting in its queue, so
  /// by queue length alone the front-end looks permanently idle and Reserve
  /// would bury it in redirected requests — which then starve admission.
  /// Tasks explicitly homed or pinned there are unaffected; only Reserve's
  /// least-loaded redirect skips the masked processors.
  std::uint64_t reserve_exclude_mask = 0;
};

/// Reject meaningless Policy flag combinations with a clear error instead of
/// silently ignoring flags: steal refinements with stealing disabled,
/// pinned-set stealing without whole-set stealing, cluster-scoped stealing on
/// a machine with a single cluster, both cluster modes at once, or a balancer
/// that cannot work (Average or Reserve without stealing, Reserve without
/// profiler attribution). `profile_available` says whether the runtime will
/// attach a locality profiler — the Reserve balancer's heat source. Called by Runtime at init; direct Scheduler construction (unit
/// tests) stays unvalidated on purpose.
void validate_policy(const Policy& policy, const topo::MachineConfig& machine,
                     bool profile_available = false);

}  // namespace cool::sched
