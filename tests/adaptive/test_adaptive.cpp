// AdaptiveEngine: synthetic-hook unit tests (no runtime), end-to-end tests
// on the real sim runtime (determinism, zero perturbation when off, recovery
// on unhinted gauss), and the AdaptPolicy JSON parser.
#include "adaptive/engine.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "adaptive/policy.hpp"
#include "apps/gauss/gauss.hpp"
#include "common/error.hpp"
#include "core/runtime.hpp"

namespace cool::adaptive {
namespace {

// ---------------------------------------------------------------- synthetic

/// Engine over hand-fed snapshots: every dispatch closes an epoch, so each
/// on_task_dispatch call is one evaluation of the rules.
struct SyntheticRig {
  topo::MachineConfig machine = topo::MachineConfig::dash(8);
  sched::Policy live;
  obs::advisor::Signals signals;  ///< Cumulative; tests bump between epochs.
  int mutations = 0;

  AdaptPolicy policy() const {
    AdaptPolicy p;
    p.epoch_tasks = 1;
    p.epoch_cycles = 0;
    p.cooldown_epochs = 4;
    return p;
  }

  Hooks hooks() {
    Hooks h;
    h.signals = [this] { return signals; };
    h.mutate_policy = [this](const std::function<void(sched::Policy&)>& fn) {
      fn(live);
      ++mutations;
    };
    h.policy = [this] { return live; };
    return h;
  }
};

TEST(AdaptiveEngineSynthetic, StealStormOpensObjectStealingOnce) {
  SyntheticRig rig;
  AdaptiveEngine eng(rig.machine, rig.policy(), rig.hooks());
  ASSERT_FALSE(rig.live.steal_object_tasks);
  for (std::uint64_t e = 1; e <= 10; ++e) {
    rig.signals.failed_steal_scans += 100;
    eng.on_task_dispatch(0, e * 1000);
  }
  EXPECT_TRUE(rig.live.steal_object_tasks);
  // The persisting storm escalates to a scan cap, then goes quiet: two
  // mutations total, no oscillation however long the storm lasts.
  EXPECT_EQ(rig.live.max_steal_scan, rig.machine.procs_per_cluster);
  EXPECT_EQ(rig.mutations, 2);
  EXPECT_EQ(eng.log().size(), 2u);
}

TEST(AdaptiveEngineSynthetic, BarrierIdlenessAloneDoesNotFlipPolicy) {
  // High idle fraction with shallow queues is what a barrier-structured
  // program looks like between phases — not a pile-up, no actuation.
  SyntheticRig rig;
  AdaptiveEngine eng(rig.machine, rig.policy(), rig.hooks());
  for (std::uint64_t e = 1; e <= 10; ++e) {
    rig.signals.busy_cycles += 100;
    rig.signals.idle_cycles += 900;
    rig.signals.queue_max_now = 1;
    eng.on_task_dispatch(0, e * 1000);
  }
  EXPECT_FALSE(rig.live.steal_object_tasks);
  EXPECT_EQ(rig.mutations, 0);
}

TEST(AdaptiveEngineSynthetic, IdlePileUpWithDeepQueueOpensStealing) {
  // Same idleness, but half the machine's worth of tasks sits on one queue:
  // the work exists and cannot spread — the actuator fires.
  SyntheticRig rig;
  AdaptiveEngine eng(rig.machine, rig.policy(), rig.hooks());
  rig.signals.busy_cycles = 100;
  rig.signals.idle_cycles = 900;
  rig.signals.queue_max_now = rig.machine.n_procs / 2;
  eng.on_task_dispatch(0, 1000);
  EXPECT_TRUE(rig.live.steal_object_tasks);
  EXPECT_EQ(rig.mutations, 1);
}

TEST(AdaptiveEngineSynthetic, PersistentPileUpEscalatesToAverageBalancer) {
  SyntheticRig rig;
  AdaptPolicy p = rig.policy();
  p.enable_balancer = true;
  p.balancer_dwell_epochs = 2;
  AdaptiveEngine eng(rig.machine, p, rig.hooks());
  // Epoch 1: the pile-up opens object stealing (the existing relief).
  // Epoch 2: the pile-up persists with the relief on — escalate the balancer.
  for (std::uint64_t e = 1; e <= 2; ++e) {
    rig.signals.busy_cycles += 100;
    rig.signals.idle_cycles += 900;
    rig.signals.queue_max_now = rig.machine.n_procs / 2;
    eng.on_task_dispatch(0, e * 1000);
  }
  EXPECT_TRUE(rig.live.steal_object_tasks);
  EXPECT_EQ(rig.live.balancer, sched::BalancerKind::kAverage);
  ASSERT_EQ(eng.log().size(), 2u);
  EXPECT_EQ(eng.log()[1].action, "balancer=average (pile-up persists)");
  EXPECT_EQ(eng.balancer_governor().switches(), 1u);

  // Once the pile-up drains, the escalation reverts to the byte-identical
  // Stealing default (paced by the dwell + the governor's cooldown).
  for (std::uint64_t e = 3; e <= 12 &&
                            rig.live.balancer != sched::BalancerKind::kStealing;
       ++e) {
    rig.signals.busy_cycles += 1000;
    rig.signals.queue_max_now = 0;
    eng.on_task_dispatch(0, e * 1000);
  }
  EXPECT_EQ(rig.live.balancer, sched::BalancerKind::kStealing);
  EXPECT_EQ(eng.log().back().action, "balancer=stealing (pile-up drained)");
  EXPECT_EQ(eng.balancer_governor().switches(), 2u);
}

TEST(AdaptiveEngineSynthetic, BalancerActuatorIsOffByDefault) {
  SyntheticRig rig;
  AdaptiveEngine eng(rig.machine, rig.policy(), rig.hooks());
  for (std::uint64_t e = 1; e <= 10; ++e) {
    rig.signals.busy_cycles += 100;
    rig.signals.idle_cycles += 900;
    rig.signals.queue_max_now = rig.machine.n_procs / 2;
    eng.on_task_dispatch(0, e * 1000);
  }
  EXPECT_TRUE(rig.live.steal_object_tasks);  // the relief still fires
  EXPECT_EQ(rig.live.balancer, sched::BalancerKind::kStealing);
  EXPECT_EQ(eng.balancer_governor().switches(), 0u);
}

TEST(AdaptiveEngineSynthetic, UserChosenBalancerIsNeverReverted) {
  SyntheticRig rig;
  rig.live.balancer = sched::BalancerKind::kAverage;  // user's choice
  AdaptPolicy p = rig.policy();
  p.enable_balancer = true;
  AdaptiveEngine eng(rig.machine, p, rig.hooks());
  rig.live.steal_object_tasks = true;
  for (std::uint64_t e = 1; e <= 10; ++e) {
    rig.signals.busy_cycles += 1000;
    rig.signals.queue_max_now = 0;
    eng.on_task_dispatch(0, e * 1000);
  }
  EXPECT_EQ(rig.live.balancer, sched::BalancerKind::kAverage);
  EXPECT_EQ(eng.balancer_governor().switches(), 0u);
}

TEST(AdaptiveEngineSynthetic, PolicyHooksAreRequired) {
  SyntheticRig rig;
  Hooks no_mutate = rig.hooks();
  no_mutate.mutate_policy = nullptr;
  EXPECT_THROW((void)AdaptiveEngine(rig.machine, rig.policy(), no_mutate),
               util::Error);
  Hooks no_read = rig.hooks();
  no_read.policy = nullptr;
  EXPECT_THROW((void)AdaptiveEngine(rig.machine, rig.policy(), no_read),
               util::Error);
}

TEST(AdaptiveEngineSynthetic, EpochCostIsChargedToTheDispatcher) {
  SyntheticRig rig;
  AdaptiveEngine eng(rig.machine, rig.policy(), rig.hooks());
  const std::uint64_t c = eng.on_task_dispatch(3, 1000);
  EXPECT_EQ(c, AdaptiveEngine::kEpochCostCycles);
}

// -------------------------------------------------------------- end-to-end

apps::gauss::Config unhinted_gauss() {
  apps::gauss::Config c;
  c.n = 48;
  c.variant = apps::gauss::Variant::kObjectOnly;
  c.distribute = false;
  return c;
}

SystemConfig adapt_config(bool adapt) {
  SystemConfig sc;
  sc.machine = topo::MachineConfig::dash(8);
  sc.policy = apps::gauss::policy_for(apps::gauss::Variant::kObjectOnly);
  sc.adapt = adapt;
  return sc;
}

TEST(AdaptiveRuntime, OffMeansNothingIsConstructed) {
  Runtime rt(adapt_config(false));
  EXPECT_EQ(rt.adaptive_engine(), nullptr);
}

TEST(AdaptiveRuntime, DecisionsAreDeterministic) {
  std::string log1;
  std::string log2;
  std::uint64_t cycles1 = 0;
  std::uint64_t cycles2 = 0;
  {
    Runtime rt(adapt_config(true));
    const auto r = apps::gauss::run(rt, unhinted_gauss());
    cycles1 = r.run.sim_cycles;
    log1 = rt.adaptive_engine()->log_json();
  }
  {
    Runtime rt(adapt_config(true));
    const auto r = apps::gauss::run(rt, unhinted_gauss());
    cycles2 = r.run.sim_cycles;
    log2 = rt.adaptive_engine()->log_json();
  }
  EXPECT_EQ(cycles1, cycles2);
  EXPECT_EQ(log1, log2);
  EXPECT_NE(log1, "[]");  // the run actually adapted
}

TEST(AdaptiveRuntime, RecoversLocalityOnUnhintedGauss) {
  std::uint64_t plain = 0;
  std::uint64_t adapted = 0;
  {
    Runtime rt(adapt_config(false));
    plain = apps::gauss::run(rt, unhinted_gauss()).run.sim_cycles;
  }
  {
    Runtime rt(adapt_config(true));
    adapted = apps::gauss::run(rt, unhinted_gauss()).run.sim_cycles;
    EXPECT_FALSE(rt.adaptive_engine()->log().empty());
  }
  EXPECT_LT(adapted, plain);
}

TEST(AdaptiveRuntime, PolicyBitDecisionsRespectCooldown) {
  // The end-to-end hysteresis pin: in a real adaptive run, decisions that
  // touch the same policy bit never flip-flop inside the cooldown window.
  Runtime rt(adapt_config(true));
  (void)apps::gauss::run(rt, unhinted_gauss());
  const AdaptiveEngine* eng = rt.adaptive_engine();
  std::vector<std::uint64_t> steal_epochs;
  for (const Decision& d : eng->log()) {
    if (d.action.find("steal_object_tasks") != std::string::npos) {
      steal_epochs.push_back(d.epoch);
    }
  }
  const std::uint64_t min_gap = eng->policy().cooldown_epochs + 1;
  for (std::size_t i = 1; i < steal_epochs.size(); ++i) {
    EXPECT_GE(steal_epochs[i] - steal_epochs[i - 1], min_gap)
        << "flip-flop at epochs " << steal_epochs[i - 1] << " -> "
        << steal_epochs[i];
  }
}

// ------------------------------------------------------------- policy JSON

TEST(AdaptPolicyJson, RoundTrips) {
  // Every key the file accepts, each at a value other than its default,
  // comes back in its field.
  const AdaptPolicy q = parse_adapt_policy(R"({
    "epoch_tasks": 7, "epoch_cycles": 12345, "cooldown_epochs": 9,
    "max_actions_per_epoch": 3, "enable_balancer": true,
    "latency_target_cycles": 4321, "bandwidth_saturation_frac": 0.4,
    "balancer_dwell_epochs": 11})");
  EXPECT_EQ(q.epoch_tasks, 7u);
  EXPECT_EQ(q.epoch_cycles, 12345u);
  EXPECT_EQ(q.cooldown_epochs, 9u);
  EXPECT_EQ(q.max_actions_per_epoch, 3u);
  EXPECT_TRUE(q.enable_balancer);
  EXPECT_EQ(q.latency_target_cycles, 4321u);
  EXPECT_EQ(q.bandwidth_saturation_frac, 0.4);
  EXPECT_EQ(q.balancer_dwell_epochs, 11u);
}

TEST(AdaptPolicyJson, UnknownKeyThrows) {
  EXPECT_THROW(parse_adapt_policy("{\"epoch_taks\": 5}"), util::Error);
  // Knobs the engine holds as constants are unknown keys too, and the
  // error names the key.
  for (const std::string gone :
       {"confirm_epochs", "epoch_cost_cycles", "latency_min_samples",
        "balancer_max_switches", "enable_migrate", "enable_distribute",
        "enable_hints", "enable_steal_policy", "rules"}) {
    try {
      (void)parse_adapt_policy("{\"" + gone + "\": 1}");
      ADD_FAILURE() << gone << " was accepted";
    } catch (const util::Error& e) {
      EXPECT_NE(std::string(e.what()).find("unknown key '" + gone + "'"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(AdaptPolicyJson, MalformedJsonThrows) {
  EXPECT_THROW(parse_adapt_policy("{\"epoch_tasks\": }"), util::Error);
}

TEST(AdaptPolicyJson, UnsignedFieldsRejectWhatTheyCannotHold) {
  // A cast would wrap 2^32 + 1 to 1, truncate 2.9 to 2, and is undefined
  // from 2^64 (1e30) up.
  for (const std::string bad :
       {"-3", "2.7", "2.9", "1e30", "4294967296", "4294967297"}) {
    EXPECT_THROW(parse_adapt_policy(R"({"cooldown_epochs": )" + bad + "}"),
                 util::Error)
        << bad;
  }
  for (const std::string bad : {"-3", "2.7", "1e30", "18446744073709551616"}) {
    EXPECT_THROW(parse_adapt_policy(R"({"epoch_tasks": )" + bad + "}"),
                 util::Error)
        << bad;
  }
}

TEST(AdaptPolicyJson, MissingFileThrows) {
  EXPECT_THROW(load_adapt_policy("/nonexistent/adapt.json"), util::Error);
}

}  // namespace
}  // namespace cool::adaptive
