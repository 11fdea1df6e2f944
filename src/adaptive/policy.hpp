// AdaptPolicy — the knobs of the online adaptation engine.
//
// `--adapt` accepts an optional JSON policy file holding any of the eight
// knobs below, so experiments can vary the epoch triggers, the cooldown, the
// action budget, the balancer actuator and the latency objective without
// recompiling. Everything else the engine uses is a constant: the rule
// thresholds (kOnlineRules and advisor_rules.cpp), the per-epoch cost
// (AdaptiveEngine::kEpochCostCycles), the latency objective's sample floor
// (AdaptiveEngine::kLatencyMinSamples) and the balancer's switch cap
// (BalancerGovernor::kMaxSwitches). The defaults are tuned for the
// paper-scale benches: epochs short enough to react inside one bench run.
#pragma once

#include <cstdint>
#include <string>

#include "obs/advisor_rules.hpp"

namespace cool::adaptive {

/// The advisor floors the engine applies to each epoch's deltas: the offline
/// advisor's absolute floors (obs::AdvisorConfig's defaults judge a whole
/// run) lowered to per-epoch scale.
inline constexpr obs::AdvisorConfig kOnlineRules{
    .min_misses = 8, .min_failed_scans = 8, .idle_frac = 0.20};

struct AdaptPolicy {
  /// Epoch triggers: evaluate after this many task dispatches (0 disables),
  /// or after this many sim cycles on the dispatching processor's clock
  /// (0 disables). Either trigger closes the epoch.
  std::uint64_t epoch_tasks = 64;
  std::uint64_t epoch_cycles = 20000;

  /// Hysteresis: after acting, a decision class is frozen for
  /// `cooldown_epochs` further epochs (see governor.hpp).
  std::uint32_t cooldown_epochs = 4;

  /// Cap on actuator firings per epoch (highest-weight findings win).
  std::uint32_t max_actions_per_epoch = 8;

  /// The balancer actuator: switch the scheduler's balancer policy (Policy::
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
  /// Peak per-channel busy share of an epoch (hottest mem.chan.<i>.
  /// busy_cycles delta over the cycles the epoch covered) at which a
  /// memory-dominated overshoot routes to the bandwidth escalation
  /// (distribute-only) instead of the migrate gate.
  /// Needs a channel backend (SystemConfig::mem_channel Kind::kDdr); the
  /// flat model exports no channel gauges and always takes the migrate path.
  double bandwidth_saturation_frac = 0.65;

  /// Balancer-actuator pacing (only read when enable_balancer): a switch is
  /// admitted at most once per `balancer_dwell_epochs` epochs, on top of the
  /// governor's cooldown.
  std::uint32_t balancer_dwell_epochs = 6;
};

/// Parse a policy from JSON text. Every key is optional; unknown keys throw
/// util::Error so a typo'd knob fails fast instead of being ignored.
AdaptPolicy parse_adapt_policy(const std::string& json_text);

/// Load a policy file (throws util::Error on unreadable file or bad JSON).
AdaptPolicy load_adapt_policy(const std::string& path);

}  // namespace cool::adaptive
