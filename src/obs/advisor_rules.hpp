// Advisor rule engine — the machine-readable half of the locality advisor.
//
// The offline advisor (obs/advisor.hpp) turns a run's profile and counters
// into ranked prose advice. The adaptive runtime (src/adaptive) needs the
// same diagnoses *online*, as data it can act on, every epoch. To keep one
// implementation, the rules live here as a pure function of typed inputs:
// a ProfileDelta (one interval's per-object and per-set activity) and
// Signals (scheduler and memory-channel counters). `advisor::evaluate()`
// returns structured Findings carrying every number a rule used to fire.
// Both consumers read Signals from Runtime::advisor_signals(): the engine
// every epoch, with the profiler's epoch read; the offline advisor once,
// with its snapshot converted by ProfileDelta::of, rendering the Findings
// into its prose report. Neither consumer re-implements a threshold.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/profiler.hpp"

namespace cool::obs {

enum class AdviceKind : std::uint8_t {
  kMigrateObject,    ///< Re-home the object near its dominant user.
  kDistributeObject, ///< Spread the object across cluster memories.
  kTaskAffinity,     ///< Add TASK affinity to the tasks sharing an object.
  kWholeSetStealing, ///< Enable Policy::steal_whole_sets.
  kStealStorm,       ///< Steal scans mostly fail: work starvation.
  kIdleImbalance,    ///< Processors idle a large fraction of the span.
  kLatencyTarget,    ///< Request p99 above AdaptPolicy::latency_target_cycles.
  kBandwidthBound,   ///< Memory channels saturated: queueing, not distance.
};
const char* advice_kind_name(AdviceKind k);

/// The rule thresholds that differ between the offline advisor (these
/// defaults, judging a whole run) and the adaptive engine, which judges
/// per-epoch deltas and so lowers the floors (adaptive::kOnlineRules). The
/// rules' other thresholds are constants in advisor_rules.cpp.
struct AdvisorConfig {
  std::uint64_t min_misses = 64;  ///< Ignore objects with fewer misses.
  std::uint64_t min_failed_scans = 256;  ///< Steal-storm floor.
  double idle_frac = 0.25;  ///< Idle share of the span worth flagging.
};

namespace advisor {

/// The scheduler and memory-channel counters the rules read, typed.
/// Runtime::advisor_signals() fills it; each field notes the key
/// Runtime::obs_snapshot() gives the same counter. Counters are cumulative
/// where they come from; since() turns two readings into one interval.
struct Signals {
  std::uint64_t failed_steal_scans = 0;  ///< sched.failed_steal_scans
  std::uint64_t steals = 0;              ///< sched.steals
  std::uint64_t busy_cycles = 0;         ///< proc.busy_cycles
  std::uint64_t idle_cycles = 0;         ///< proc.idle_cycles
  std::uint64_t queue_max_now = 0;  ///< sched.queue.max_now (a gauge).
  std::uint64_t span = 0;           ///< sim.time: 0 until a run() ends.
  /// Per-channel busy cycles (mem.chan.<i>.busy_cycles), one entry per
  /// channel (mem.chan.count); empty without a channel backend.
  std::vector<std::uint64_t> chan_busy;
  std::uint64_t chan_busy_total = 0;         ///< mem.chan.busy_cycles
  std::uint64_t chan_queue_full_stalls = 0;  ///< mem.chan.queue_full_stalls
  std::uint64_t chan_row_hits = 0;           ///< mem.chan.row_hits
  std::uint64_t chan_row_misses = 0;         ///< mem.chan.row_misses
  std::uint64_t chan_row_conflicts = 0;      ///< mem.chan.row_conflicts

  /// The activity between `older` and this reading: counters subtract
  /// (clamped at 0, and kept whole where `older` lacks them); the queue
  /// gauge and the channel count carry through.
  [[nodiscard]] Signals since(const Signals& older) const;
  bool operator==(const Signals&) const = default;
};

/// One rule firing, with every input the rule consulted. Which fields are
/// meaningful depends on `kind`: object rules fill the obj_*/cluster fields,
/// set rules the set_* fields, scheduler rules the scan/idle fields.
struct Finding {
  AdviceKind kind = AdviceKind::kMigrateObject;
  std::string subject;       ///< Object name or set label.
  std::uint64_t weight = 0;  ///< Ranking key (stall cycles at stake).

  // Object rules (kMigrateObject / kDistributeObject).
  std::uint64_t obj_addr = 0;   ///< Simulated (arena-relative) start address.
  std::uint64_t obj_bytes = 0;
  std::size_t user_cluster = 0; ///< Cluster issuing the most misses.
  double user_share = 0.0;
  std::size_t home_cluster = 0; ///< Cluster servicing the most misses.
  double home_share = 0.0;
  double remote_frac = 0.0;     ///< Remote share of the object's misses.
  std::uint64_t remote_stall_cycles = 0;

  // Set rules (kTaskAffinity / kWholeSetStealing).
  std::uint64_t set_key = 0;    ///< Simulated address of the affinity object.
  HintClass hint = HintClass::kNone;
  std::uint64_t set_tasks = 0;
  std::uint64_t set_stolen = 0;
  std::size_t set_procs = 0;    ///< Distinct processors that ran the set.
  std::uint64_t stall_cycles = 0;

  // Scheduler rules (kStealStorm / kIdleImbalance).
  std::uint64_t failed_scans = 0;
  std::uint64_t steals = 0;
  double idle_frac = 0.0;
  std::uint64_t idle_cycles = 0;
  std::uint64_t busy_cycles = 0;
  std::uint64_t queued_max = 0;  ///< Deepest single queue (gauge, not delta).

  // Memory-channel rule (kBandwidthBound).
  double saturation = 0.0;       ///< Peak per-channel busy share of the span.
  std::uint64_t chan_count = 0;
  std::uint64_t chan_busy_cycles = 0;
  double row_hit_frac = 0.0;     ///< Hits over hits+misses+conflicts.
  std::uint64_t queue_full_stalls = 0;
};

/// Run every rule over one interval's profile activity and signals.
/// Returns findings sorted by descending weight, ties broken by subject,
/// then kind, then object address or set key: a total order, so the result
/// does not depend on the order of the input rows.
std::vector<Finding> evaluate(const ProfileDelta& p, const Signals& s,
                              const AdvisorConfig& cfg = {});

}  // namespace advisor
}  // namespace cool::obs
