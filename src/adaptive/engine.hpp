// AdaptiveEngine — the online loop that closes profiler → advisor → scheduler.
//
// The offline story (PR 3) was: run, dump the locality profile, read the
// advisor's prose, edit the source to add hints or migrate() calls, rerun.
// This engine runs the same advisor rules *during* the run and applies their
// decisions through four actuators, no source changes required:
//
//   1. memory   — MemorySystem::migrate(): rehome an object next to its
//      dominant user (migrate-object rule), or spread a scattered-access
//      object page-round-robin across the machine (distribute-object rule);
//   2. hints    — a per-object promotion table in the scheduler: tasks with
//      plain OBJECT affinity on a hot shared object are promoted to
//      TASK+OBJECT, so they queue on one server and run back-to-back
//      (task-affinity rule), exactly the hint gauss adds by hand;
//   3. steal policy — flip Policy::steal_object_tasks / steal_whole_sets and
//      cap the steal-scan length when the steal-storm / idle-imbalance /
//      whole-set rules fire;
//   4. balancer policy (opt-in, AdaptPolicy::enable_balancer) — switch
//      Policy::balancer from the default Stealing balancer to the Average
//      balancer when a queue pile-up persists *after* the steal-policy
//      relief, and back once the pile-up drains. Switches route through
//      Scheduler::adapt_policy at the epoch boundary, as one field write; a
//      dedicated BalancerGovernor (dwell + lifetime cap) paces them because
//      a swap is the most disruptive actuator.
//
// Actuators 3 and 4 are policy moves: a knob, the value to set and a reason.
// Every one goes through move(), which admits it on its governor, edits the
// one Policy field and logs "<knob>=<value> (<reason>)". The escalation state
// is three members — gate_ (serving mode's data-plane gate), steal_relief_
// and switched_balancer_ (the moves this engine made and may take back) —
// plus the rehomes_since_relief_ counter; DESIGN §11 tabulates every
// transition.
//
// Epochs are task-count (or sim-cycle) driven, and the rules judge each
// epoch's own activity, not the whole past. Sensing costs what changed in
// the epoch: the profiler hands over only the objects and sets touched
// since its previous read (LocalityProfiler::read_epoch), the scheduler and
// channel counters arrive as a typed Signals struct diffed field by field,
// and the latency objective reads the epoch's count and p99 straight off
// the request histogram against the previous epoch's copy. No snapshot is
// rebuilt or diffed, no name formatted and no map built per epoch. Every
// actuator firing passes the hysteresis governor and is appended to a
// decision log that benches export (JSON + Chrome trace). Under the sim
// engine all of this is called from the single simulation thread, so
// decisions are deterministic: two runs of the same program produce
// identical logs.
//
// The engine talks to the runtime through `Hooks` (plain std::functions), so
// it depends on no concrete engine type and unit tests can drive it with
// synthetic epoch activity.
#pragma once

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "adaptive/governor.hpp"
#include "adaptive/policy.hpp"
#include "obs/advisor_rules.hpp"
#include "obs/hist.hpp"
#include "obs/profiler.hpp"
#include "obs/request_trace.hpp"
#include "sched/scheduler.hpp"
#include "topology/machine.hpp"

namespace cool::adaptive {

/// One actuator firing. `cycle` is the dispatching processor's clock when the
/// epoch ran; `cost_cycles` is what the actuator charged that processor.
struct Decision {
  std::uint64_t epoch = 0;
  std::uint64_t cycle = 0;
  obs::AdviceKind rule = obs::AdviceKind::kMigrateObject;
  std::string subject;
  std::string action;
  std::uint64_t cost_cycles = 0;
};

/// Runtime services the engine needs, as callables so the engine stays
/// independent of the concrete runtime/engine types.
struct Hooks {
  /// Fill `out` with the profile activity since the previous call, one row
  /// per touched object and set (LocalityProfiler::read_epoch). Called
  /// exactly once per epoch, always with the same `out`, whose views live
  /// until the next call.
  std::function<void(obs::ProfileDelta& out)> profile;
  /// Cumulative scheduler and memory-channel counters
  /// (Runtime::advisor_signals); the engine diffs consecutive readings.
  std::function<obs::advisor::Signals()> signals;
  /// Migrate [addr, addr+bytes) (profiler address space) to new_home;
  /// returns the cycles to charge to `caller`. `now` is the caller's clock
  /// (for trace timestamps).
  std::function<std::uint64_t(topo::ProcId caller, std::uint64_t addr,
                              std::uint64_t bytes, topo::ProcId new_home,
                              std::uint64_t now)>
      migrate;
  /// Enable/disable TASK-affinity promotion for the object whose profiler
  /// set key is `set_key`.
  std::function<void(std::uint64_t set_key, bool on)> promote;
  /// Mutate the live scheduler policy (sim: single-threaded, safe).
  /// Required, like `policy`: the constructor throws without them.
  std::function<void(const std::function<void(sched::Policy&)>&)> mutate_policy;
  /// Read the current scheduler policy.
  std::function<sched::Policy()> policy;
};

class AdaptiveEngine {
 public:
  /// Cycles charged to the evaluating processor per epoch — the modelled
  /// cost of reading the profiler shards and running the rules.
  static constexpr std::uint64_t kEpochCostCycles = 64;
  /// Completed requests an epoch needs before the latency objective trusts
  /// its p99.
  static constexpr std::uint64_t kLatencyMinSamples = 8;

  AdaptiveEngine(const topo::MachineConfig& machine, AdaptPolicy policy,
                 Hooks hooks);

  /// Notify one task dispatch on `proc` whose clock reads `now`. When the
  /// notification closes an epoch the engine evaluates and acts; the return
  /// value is the cycles to charge to `proc` (0 between epochs).
  std::uint64_t on_task_dispatch(topo::ProcId proc, std::uint64_t now);

  /// Attach (or detach, with nullptr) the latency sensor feeding the
  /// AdaptPolicy::latency_target_cycles objective: the serving layer's
  /// *cumulative* per-request latency histogram (the load::Driver's), which
  /// must outlive the attachment. Each epoch reads the samples recorded
  /// since the previous epoch (LatencyHist::since), so the engine judges the
  /// epoch's own p99, not the run-so-far's. Sim-thread only.
  void set_latency_sensor(const obs::LatencyHist* hist) {
    latency_sensor_ = hist;
  }

  /// Attach (or detach) the latency *decomposition* sensor: the cumulative
  /// queue-wait and memory-stall sums of the request-trace recorder
  /// (RequestTraceRecorder::stall_sums), compared per epoch. With it
  /// attached, the latency objective escalates by *dominant component*: a
  /// queue-wait-dominated overshoot climbs the balancer ladder as before,
  /// but a memory-stall-dominated one routes to the migration actuators
  /// instead — moving requests around cannot fix remote data, rehoming the
  /// data can. Without it, every overshoot climbs the fixed ladder.
  void set_breakdown_sensor(std::function<obs::StallSums()> sensor) {
    breakdown_sensor_ = std::move(sensor);
  }

  [[nodiscard]] const std::vector<Decision>& log() const noexcept {
    return log_;
  }
  /// Deterministic JSON array of decisions (the bench-record export).
  [[nodiscard]] std::string log_json() const;
  [[nodiscard]] std::uint64_t epochs() const noexcept { return epoch_; }
  [[nodiscard]] const AdaptPolicy& policy() const noexcept { return pol_; }
  [[nodiscard]] const BalancerGovernor& balancer_governor() const noexcept {
    return bal_gov_;
  }

 private:
  /// Serving mode's data-plane gate: which migration actuators act()'s
  /// stand-down lets through. A memory-stall-dominated overshoot opens it,
  /// recovery (p99 back at or under target) closes an open gate.
  enum class Gate : std::uint8_t {
    kNever,       ///< Never opened; the first opening logs `escalate=`.
    kClosed,      ///< Opened before; re-opens without a log entry.
    kMigrate,     ///< Open for kMigrateObject and kDistributeObject.
    kDistribute,  ///< Open for kDistributeObject only: a channel saturated.
  };
  /// The scheduler-policy fields move() edits.
  enum class Knob : std::uint8_t {
    kStealObjectTasks,  ///< bool; governor key "policy:steal_object_tasks"
    kStealWholeSets,    ///< bool; "policy:steal_whole_sets"
    kMaxStealScan,      ///< scan cap; "policy:max_steal_scan"
    kBalancer,          ///< sched::BalancerKind; "balancer:<kind>" on bal_gov_
  };

  std::uint64_t run_epoch(topo::ProcId proc, std::uint64_t now);
  /// The latency-target objective: compare this epoch's p99 against the
  /// policy target, open/close the gate and climb/descend the relief ladder.
  /// Shares the per-epoch action budget via `actions`.
  void latency_objective(const obs::advisor::Signals& sig, std::uint64_t now,
                         std::uint32_t& actions);
  /// Apply one finding through its actuator; returns cycles charged and
  /// appends to log_ iff it acted.
  std::uint64_t act(const obs::advisor::Finding& f, topo::ProcId proc,
                    std::uint64_t now);
  /// The migrate-object and distribute-object actuator: one-shot per object.
  std::uint64_t rehome(const obs::advisor::Finding& f, std::uint64_t excluded,
                       topo::ProcId proc, std::uint64_t now);
  /// The one path that edits the scheduler policy: admit the move on its
  /// governor, set `knob` to `value`, update the state the move implies
  /// (steal_relief_ and rehomes_since_relief_, or switched_balancer_), and
  /// log "<knob>=<value>", plus " (<why>)" when `why` is not empty. Returns
  /// whether it moved.
  bool move(const obs::advisor::Finding& f, Knob knob, std::uint32_t value,
            std::string_view why, std::uint64_t now);
  void record(const obs::advisor::Finding& f, std::string action,
              std::uint64_t now, std::uint64_t cost);
  [[nodiscard]] bool gate_open() const noexcept {
    return gate_ == Gate::kMigrate || gate_ == Gate::kDistribute;
  }

  topo::MachineConfig machine_;
  AdaptPolicy pol_;
  Hooks hooks_;
  Governor gov_;
  BalancerGovernor bal_gov_;
  Gate gate_ = Gate::kNever;
  /// True while steal_object_tasks is on because this engine turned it on:
  /// the steal-storm or pile-up relief in throughput mode, rung 2 of the
  /// latency ladder in serving mode. Only this relief is ever reverted.
  bool steal_relief_ = false;
  /// True while the balancer actuator holds the scheduler away from the
  /// Stealing default; the revert path only fires for our own switches, so
  /// a user-selected Average/Reserve balancer is never "reverted".
  bool switched_balancer_ = false;
  /// Objects rehomed since the steal relief last moved. The throughput-mode
  /// revert waits for an epoch that adds none to a nonzero count.
  std::uint64_t rehomes_since_relief_ = 0;
  std::uint64_t epoch_ = 0;
  std::uint64_t tasks_since_ = 0;
  std::uint64_t last_epoch_cycle_ = 0;
  /// Cycles the closing epoch covered, on a monotonic clock: dispatch times
  /// come from whichever processor's clock closed the epoch, and under
  /// run-to-suspension those clocks lag each other, so raw differences can
  /// wrap. Track the high-water dispatch time instead and diff that.
  std::uint64_t clock_hwm_ = 0;
  std::uint64_t last_epoch_hwm_ = 0;
  std::uint64_t last_epoch_elapsed_ = 0;
  std::uint32_t distribute_cursor_ = 0;  ///< Round-robin home for rehoming.
  std::uint32_t migrate_cursor_ = 0;  ///< Rotates sub-page migration targets.
  /// Objects/sets already acted on — migrations and promotions are one-shot
  /// per subject, so a cold-cache echo of the rule can't thrash the object
  /// back and forth.
  std::set<std::string> done_;
  /// The epoch's profile activity; refilled every epoch, keeping its storage.
  obs::ProfileDelta profile_;
  /// The previous epoch's signals reading, to diff the counters against.
  obs::advisor::Signals last_signals_;
  /// Latency sensor (cumulative request histogram) and its copy at the
  /// previous epoch.
  const obs::LatencyHist* latency_sensor_ = nullptr;
  obs::LatencyHist prev_latency_;
  /// Breakdown sensor and the previous epoch's two sums.
  std::function<obs::StallSums()> breakdown_sensor_;
  obs::StallSums last_stall_;
  std::vector<Decision> log_;
};

}  // namespace cool::adaptive
