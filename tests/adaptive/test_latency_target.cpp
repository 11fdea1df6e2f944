// The latency-target objective (AdaptPolicy::latency_target_cycles): the
// escalation ladder's order and dwell, the steal-only revert, and the
// serving-mode stand-down of the throughput heuristics.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>

#include "adaptive/engine.hpp"
#include "adaptive/policy.hpp"
#include "common/error.hpp"
#include "obs/hist.hpp"

namespace cool::adaptive {
namespace {

/// Engine over a hand-fed latency histogram: every on_task_dispatch call
/// closes an epoch (epoch_tasks = 1), and the sensor is the rig's
/// cumulative histogram, exactly like a live load::Driver's.
struct LatencyRig {
  topo::MachineConfig machine = topo::MachineConfig::dash(8);
  sched::Policy live;
  obs::advisor::Signals signals;
  obs::LatencyHist hist;  ///< Cumulative; tests record between epochs.
  int mutations = 0;

  AdaptPolicy policy() const {
    AdaptPolicy p;
    p.epoch_tasks = 1;
    p.epoch_cycles = 0;
    p.cooldown_epochs = 2;
    p.enable_balancer = true;
    p.balancer_dwell_epochs = 2;
    p.latency_target_cycles = 1000;
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

  /// Record one epoch's worth of completions at latency `lat`.
  void epoch_completions(std::uint64_t lat, int n = 16) {
    for (int i = 0; i < n; ++i) hist.record(lat);
  }
};

AdaptiveEngine make_engine(LatencyRig& rig, AdaptPolicy p) {
  AdaptiveEngine eng(rig.machine, p, rig.hooks());
  eng.set_latency_sensor(&rig.hist);
  return eng;
}

TEST(LatencyTarget, OvershootSwitchesBalancerFirst) {
  LatencyRig rig;
  AdaptiveEngine eng = make_engine(rig, rig.policy());
  rig.epoch_completions(4000);  // p99 ~4x the 1000-cycle target
  eng.on_task_dispatch(0, 1000);
  EXPECT_EQ(rig.live.balancer, sched::BalancerKind::kAverage);
  // Rung 1 only: the steal knob is untouched on the first overshoot.
  EXPECT_FALSE(rig.live.steal_object_tasks);
  EXPECT_EQ(rig.mutations, 1);
}

TEST(LatencyTarget, StealEscalationWaitsOutTheBalancerDwell) {
  LatencyRig rig;
  AdaptiveEngine eng = make_engine(rig, rig.policy());
  // Epoch 1: overshoot -> balancer=average (switch epoch = 1, dwell = 2).
  rig.epoch_completions(4000);
  eng.on_task_dispatch(0, 1000);
  ASSERT_EQ(rig.live.balancer, sched::BalancerKind::kAverage);
  // Epoch 2: still over target, but inside the dwell — no steal flip (the
  // completing backlog still carries pre-switch queueing delay).
  rig.epoch_completions(4000);
  eng.on_task_dispatch(0, 2000);
  EXPECT_FALSE(rig.live.steal_object_tasks);
  // Epoch 3: dwell over, overshoot persists — open pin-break stealing.
  rig.epoch_completions(4000);
  eng.on_task_dispatch(0, 3000);
  EXPECT_TRUE(rig.live.steal_object_tasks);
  EXPECT_EQ(eng.log().size(), 2u);
}

TEST(LatencyTarget, StealRevertsWithHeadroomButBalancerStays) {
  LatencyRig rig;
  AdaptiveEngine eng = make_engine(rig, rig.policy());
  // Climb both rungs.
  rig.epoch_completions(4000);
  eng.on_task_dispatch(0, 1000);
  rig.epoch_completions(4000);
  eng.on_task_dispatch(0, 2000);
  rig.epoch_completions(4000);
  eng.on_task_dispatch(0, 3000);
  ASSERT_TRUE(rig.live.steal_object_tasks);
  // Recovery with real headroom (p99*2 <= target): feed calm epochs until
  // the governor's cooldown admits the revert.
  for (std::uint64_t e = 4; e <= 12 && rig.live.steal_object_tasks; ++e) {
    rig.epoch_completions(300);
    eng.on_task_dispatch(0, e * 1000);
  }
  EXPECT_FALSE(rig.live.steal_object_tasks);
  // The balancer escalation is never reverted while the objective is
  // active: a good epoch p99 means the switch is working, and switching
  // back mid-trace would let the hot queue rebuild.
  EXPECT_EQ(rig.live.balancer, sched::BalancerKind::kAverage);
}

TEST(LatencyTarget, HoveringAtTargetDoesNotOscillate) {
  LatencyRig rig;
  AdaptiveEngine eng = make_engine(rig, rig.policy());
  rig.epoch_completions(4000);
  eng.on_task_dispatch(0, 1000);
  const auto switched = rig.mutations;
  // p99 just under target but without 2x headroom: nothing moves.
  for (std::uint64_t e = 2; e <= 8; ++e) {
    rig.epoch_completions(900);
    eng.on_task_dispatch(0, e * 1000);
  }
  EXPECT_EQ(rig.mutations, switched);
}

TEST(LatencyTarget, TooFewSamplesIsNotEvidence) {
  LatencyRig rig;
  AdaptiveEngine eng = make_engine(rig, rig.policy());
  // Huge latencies but below kLatencyMinSamples per epoch: no action (the
  // queued requests will show up in a later epoch's delta).
  for (std::uint64_t e = 1; e <= 5; ++e) {
    rig.epoch_completions(
        50000, static_cast<int>(AdaptiveEngine::kLatencyMinSamples) - 1);
    eng.on_task_dispatch(0, e * 1000);
  }
  EXPECT_EQ(rig.mutations, 0);
}

TEST(LatencyTarget, WithoutBalancerActuatorStealIsTheFirstRung) {
  LatencyRig rig;
  AdaptPolicy p = rig.policy();
  p.enable_balancer = false;
  AdaptiveEngine eng = make_engine(rig, p);
  rig.epoch_completions(4000);
  eng.on_task_dispatch(0, 1000);
  EXPECT_TRUE(rig.live.steal_object_tasks);
  EXPECT_EQ(rig.live.balancer, sched::BalancerKind::kStealing);
}

TEST(LatencyTarget, ServingModeStandsDownTheIdlePileUpHeuristic) {
  // The same idle + deep-queue signature that flips steal_object_tasks in
  // throughput mode (AdaptiveEngineSynthetic.IdlePileUpWithDeepQueueOpens-
  // Stealing) must NOT fire while a latency target is stated: the objective
  // owns the knob, and pin-break stealing makes hot-key tails worse.
  LatencyRig rig;
  AdaptiveEngine eng = make_engine(rig, rig.policy());
  rig.signals.busy_cycles = 100;
  rig.signals.idle_cycles = 900;
  rig.signals.queue_max_now = rig.machine.n_procs / 2;
  rig.epoch_completions(500);  // tail comfortably under target
  eng.on_task_dispatch(0, 1000);
  EXPECT_FALSE(rig.live.steal_object_tasks);
  EXPECT_EQ(rig.mutations, 0);
}

TEST(LatencyTarget, NoSensorMeansNoActions) {
  LatencyRig rig;
  AdaptiveEngine eng(rig.machine, rig.policy(), rig.hooks());
  // Target stated but no sensor attached: the objective is inert.
  eng.on_task_dispatch(0, 1000);
  EXPECT_EQ(rig.mutations, 0);
}

TEST(LatencyTarget, PolicyJsonRoundTripsTheTargetFields) {
  const AdaptPolicy q = parse_adapt_policy(
      R"({"latency_target_cycles": 12345, "balancer_dwell_epochs": 9})");
  EXPECT_EQ(q.latency_target_cycles, 12345u);
  EXPECT_EQ(q.balancer_dwell_epochs, 9u);
  EXPECT_THROW(parse_adapt_policy("{\"latency_target_cycle\": 1}"),
               util::Error);
}

}  // namespace
}  // namespace cool::adaptive
