// AdaptPolicy — the knobs of the online adaptation engine.
//
// `--adapt` accepts an optional JSON policy file so experiments can vary the
// epoch length, hysteresis depth, and rule thresholds without recompiling.
// The defaults are tuned for the paper-scale benches: epochs short enough to
// react inside one bench run, rule floors lowered from the offline advisor's
// (which judges a whole run) because the engine judges per-epoch deltas.
#pragma once

#include <cstdint>
#include <string>

#include "obs/advisor_rules.hpp"

namespace cool::adaptive {

struct AdaptPolicy {
  /// Epoch triggers: evaluate after this many task dispatches (0 disables),
  /// or after this many sim cycles on the dispatching processor's clock
  /// (0 disables). Either trigger closes the epoch.
  std::uint64_t epoch_tasks = 64;
  std::uint64_t epoch_cycles = 20000;

  /// Hysteresis: a rule must fire on `confirm_epochs` consecutive epochs
  /// before its actuator runs, and after acting the decision class is frozen
  /// for `cooldown_epochs` further epochs (see governor.hpp).
  std::uint32_t confirm_epochs = 1;
  std::uint32_t cooldown_epochs = 4;

  /// Cap on actuator firings per epoch (highest-weight findings win).
  std::uint32_t max_actions_per_epoch = 8;

  /// Cycles charged to the evaluating processor per epoch — the modelled
  /// cost of reading the profiler shards and running the rules.
  std::uint64_t epoch_cost_cycles = 64;

  /// Per-actuator enables (tests use these to isolate one actuator).
  bool enable_migrate = true;
  bool enable_distribute = true;
  bool enable_hints = true;
  bool enable_steal_policy = true;
  /// Fourth actuator: switch the scheduler's balancer policy (Policy::
  /// balancer) at epoch boundaries. Off by default — a balancer swap changes
  /// what every later idle acquire does (Average moves batches of queued
  /// work regardless of affinity pins), so it is the most disruptive
  /// actuator and must be asked for.
  bool enable_balancer = false;

  /// Latency-target objective (0 = off, the throughput-only default). When
  /// set and a latency sensor is attached (AdaptiveEngine::
  /// set_latency_sensor — the load::Driver's request histogram), each epoch
  /// diffs the sensor's cumulative histogram and reads the *epoch's* p99:
  /// above the target the engine climbs a relief ladder (let OBJECT tasks be
  /// stolen, then escalate the balancer if enable_balancer), and once p99
  /// falls to half the target it reverts its own steal relief. Units are
  /// simulated cycles of per-request latency.
  std::uint64_t latency_target_cycles = 0;
  /// Minimum completed requests in an epoch before its p99 is trusted.
  std::uint64_t latency_min_samples = 8;
  /// Peak per-channel busy share of an epoch (hottest mem.chan.<i>.
  /// busy_cycles delta over the cycles the epoch covered) at which a
  /// memory-dominated overshoot routes to the bandwidth escalation
  /// (distribute-only) instead of the migrate gate.
  /// Needs a channel backend (SystemConfig::mem_channel Kind::kDdr); the
  /// flat model exports no channel gauges and always takes the migrate path.
  double bandwidth_saturation_frac = 0.65;

  /// Balancer-actuator pacing (only read when enable_balancer): a switch is
  /// admitted at most once per `balancer_dwell_epochs` epochs (on top of the
  /// governor's confirm/cooldown), and at most `balancer_max_switches` times
  /// per run so a pathological workload cannot thrash the balancer.
  std::uint32_t balancer_dwell_epochs = 6;
  std::uint32_t balancer_max_switches = 4;

  /// Rule thresholds, applied to per-epoch deltas. Defaults lower the
  /// offline advisor's absolute floors to per-epoch scale.
  obs::AdvisorConfig rules = online_rules();

  static obs::AdvisorConfig online_rules() {
    obs::AdvisorConfig c;
    c.min_misses = 8;
    c.min_failed_scans = 8;
    c.idle_frac = 0.20;
    return c;
  }

  /// Deterministic JSON rendering (round-trips through parse_adapt_policy).
  [[nodiscard]] std::string to_json() const;
};

/// Parse a policy from JSON text. Every key is optional; unknown keys throw
/// util::Error so a typo'd knob fails fast instead of being ignored.
AdaptPolicy parse_adapt_policy(const std::string& json_text);

/// Load a policy file (throws util::Error on unreadable file or bad JSON).
AdaptPolicy load_adapt_policy(const std::string& path);

}  // namespace cool::adaptive
