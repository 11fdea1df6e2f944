// Escalation-state transitions of the adaptive engine that no scenario test
// reaches on its own: the throughput-mode steal-relief revert after a rehome
// wave, its absence in serving mode, the silent re-opening of the data-plane
// gate after recovery, and the one-shot whole-set stealing move. Each pins
// the decision log the bench records depend on.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "adaptive/engine.hpp"
#include "adaptive/policy.hpp"
#include "obs/hist.hpp"

namespace cool::adaptive {
namespace {

/// Every on_task_dispatch call closes an epoch (epoch_tasks = 1). The profile
/// hook hands over what the test queued since the previous epoch; the
/// migrate hook counts rehomes. Serving-mode tests attach the latency and
/// breakdown sensors; throughput-mode tests leave them off.
struct TransitionRig {
  topo::MachineConfig machine = topo::MachineConfig::dash(8);
  sched::Policy live;
  obs::advisor::Signals signals;  ///< Cumulative; tests bump between epochs.
  obs::LatencyHist hist;
  obs::StallSums sums;
  obs::ProfileSnapshot profile;  ///< Activity the next epoch read returns.
  obs::ProfileSnapshot handed;   ///< Backs the views of the last read.
  int mutations = 0;
  std::vector<topo::ProcId> migrate_targets;

  static AdaptPolicy throughput_policy() {
    AdaptPolicy p;
    p.epoch_tasks = 1;
    p.epoch_cycles = 0;
    p.cooldown_epochs = 2;
    return p;
  }

  static AdaptPolicy serving_policy() {
    AdaptPolicy p = throughput_policy();
    p.enable_balancer = true;
    p.balancer_dwell_epochs = 2;
    p.latency_target_cycles = 1000;
    return p;
  }

  Hooks hooks() {
    Hooks h;
    h.profile = [this](obs::ProfileDelta& out) {
      handed = std::exchange(profile, {});
      out = obs::ProfileDelta::of(handed);
    };
    h.signals = [this] { return signals; };
    h.mutate_policy = [this](const std::function<void(sched::Policy&)>& fn) {
      fn(live);
      ++mutations;
    };
    h.policy = [this] { return live; };
    h.migrate = [this](topo::ProcId, std::uint64_t, std::uint64_t,
                       topo::ProcId target, std::uint64_t) -> std::uint64_t {
      migrate_targets.push_back(target);
      return 10;
    };
    return h;
  }

  AdaptiveEngine serving_engine(AdaptPolicy p = serving_policy()) {
    AdaptiveEngine eng(machine, p, hooks());
    eng.set_latency_sensor(&hist);
    eng.set_breakdown_sensor([this] { return sums; });
    return eng;
  }

  /// One epoch of completions at latency `lat`, `stall` of it memory stall
  /// and the rest queue wait.
  void completions(std::uint64_t lat, std::uint64_t stall, int n = 16) {
    for (int i = 0; i < n; ++i) {
      hist.record(lat);
      sums.queue_wait += lat - stall;
      sums.memory_stall += stall;
    }
  }

  /// A sub-page object used from cluster 0 but homed in cluster 1: the
  /// advisor's migrate-object rule fires on it in the next epoch.
  void add_mishomed_object(const std::string& name, std::uint64_t addr) {
    profile.n_procs = 8;
    profile.n_clusters = 2;
    obs::ProfileSnapshot::ObjectRow row;
    row.name = name;
    row.addr = addr;
    row.bytes = 256;
    row.home = 4;
    row.s.reads = 4000;
    row.s.serviced[0] = 3000;
    row.s.serviced[3] = 1000;
    row.s.stall_cycles = 120000;
    row.s.remote_stall_cycles = 110000;
    row.miss_from_cluster = {950, 50};
    row.miss_home_cluster = {0, 1000};
    profile.objects.push_back(row);
  }

  /// A TASK-affinity set whose tasks ran on two processors: the advisor's
  /// whole-set-stealing rule fires on it in the next epoch.
  void add_split_task_set() {
    profile.n_procs = 8;
    profile.n_clusters = 2;
    obs::ProfileSnapshot::SetRow row;
    row.key = 0x4000;
    row.label = "col+0x0";
    row.hint = obs::HintClass::kTask;
    row.tasks = 16;
    row.s.stall_cycles = 5000;
    row.procs = {0, 4};
    profile.sets.push_back(row);
  }
};

std::vector<std::string> actions_of(const AdaptiveEngine& eng) {
  std::vector<std::string> out;
  for (const Decision& d : eng.log()) out.push_back(d.action);
  return out;
}

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

TEST(AdaptiveTransitions, ThroughputReliefRevertsOnlyOnceTheRehomeWaveDriesUp) {
  TransitionRig rig;
  AdaptiveEngine eng(rig.machine, TransitionRig::throughput_policy(),
                     rig.hooks());
  std::uint64_t t = 0;
  const auto epoch = [&] { eng.on_task_dispatch(0, t += 1000); };
  // Epoch 1: a steal storm opens OBJECT-task stealing (cooldown until 4).
  rig.signals.failed_steal_scans += 100;
  epoch();
  ASSERT_TRUE(rig.live.steal_object_tasks);
  ASSERT_EQ(actions_of(eng),
            std::vector<std::string>{"steal_object_tasks=on"});
  // Epochs 2-3: quiet, and no rehome yet — nothing to revert for.
  epoch();
  epoch();
  // Epochs 4-5: the rehome wave, one object each. The cooldown is over, but
  // an epoch that rehomed is mid-wave: no revert.
  rig.add_mishomed_object("a", 0x1000);
  epoch();
  rig.add_mishomed_object("b", 0x2000);
  epoch();
  EXPECT_EQ(rig.migrate_targets.size(), 2u);
  EXPECT_TRUE(rig.live.steal_object_tasks);
  // Epoch 6: the wave has dried up, but the deepest queue still holds half
  // the machine's worth of tasks: no revert.
  rig.signals.queue_max_now = rig.machine.n_procs / 2;
  epoch();
  EXPECT_TRUE(rig.live.steal_object_tasks);
  ASSERT_EQ(eng.log().size(), 3u);
  // Epoch 7: no new rehome and the queue has drained below half the
  // machine: the relief comes back down.
  rig.signals.queue_max_now = rig.machine.n_procs / 2 - 1;
  epoch();
  EXPECT_FALSE(rig.live.steal_object_tasks);
  ASSERT_EQ(eng.log().size(), 4u);
  EXPECT_EQ(eng.log()[3].epoch, 7u);
  EXPECT_EQ(eng.log()[3].rule, obs::AdviceKind::kStealStorm);
  EXPECT_EQ(eng.log()[3].subject, "scheduler");
  EXPECT_EQ(eng.log()[3].action, "steal_object_tasks=off (data spread)");
  // Further quiet epochs change nothing.
  epoch();
  epoch();
  EXPECT_EQ(eng.log().size(), 4u);
  EXPECT_EQ(rig.mutations, 2);
}

TEST(AdaptiveTransitions, ServingReliefNeverRevertsOnDataSpread) {
  TransitionRig rig;
  AdaptiveEngine eng = rig.serving_engine();
  std::uint64_t t = 0;
  const auto epoch = [&] { eng.on_task_dispatch(0, t += 1000); };
  // Epochs 1-3: queue-dominated overshoot climbs the ladder: the balancer
  // at epoch 1, then rung-2 pin-break stealing once the dwell is over.
  for (int e = 1; e <= 3; ++e) {
    rig.completions(4000, 100);
    epoch();
  }
  ASSERT_TRUE(rig.live.steal_object_tasks);
  ASSERT_EQ(eng.log().size(), 2u);
  ASSERT_TRUE(starts_with(eng.log()[1].action, "steal_object_tasks=on (p99 "));
  // Epochs 4-5: memory-dominated overshoot opens the gate, and the rehomes
  // it lets through form a wave.
  rig.completions(4000, 3500);
  rig.add_mishomed_object("a", 0x1000);
  epoch();
  rig.completions(4000, 3500);
  rig.add_mishomed_object("b", 0x2000);
  epoch();
  ASSERT_EQ(rig.migrate_targets.size(), 2u);
  // Epoch 6: the wave has dried up and no queue is deep — the throughput
  // revert's trigger — but in serving mode only the latency objective
  // takes its own relief back down.
  rig.completions(4000, 3500);
  epoch();
  EXPECT_TRUE(rig.live.steal_object_tasks);
  // Epoch 7: recovery with 2x headroom reverts the relief, by p99.
  rig.completions(300, 50);
  epoch();
  EXPECT_FALSE(rig.live.steal_object_tasks);
  const std::string& last = eng.log().back().action;
  EXPECT_TRUE(starts_with(last, "steal_object_tasks=off (p99 ")) << last;
  EXPECT_NE(last.find(" <= target/2)"), std::string::npos) << last;
  for (int e = 8; e <= 12; ++e) {
    rig.completions(300, 50);
    epoch();
  }
  for (const std::string& a : actions_of(eng)) {
    EXPECT_NE(a, "steal_object_tasks=off (data spread)");
  }
  // balancer=average, steal on, escalate, two rehomes, steal off.
  EXPECT_EQ(eng.log().size(), 6u);
}

TEST(AdaptiveTransitions, ClosedGateReopensSilentlyAndFree) {
  TransitionRig rig;
  AdaptPolicy p = TransitionRig::serving_policy();
  p.max_actions_per_epoch = 1;
  AdaptiveEngine eng = rig.serving_engine(p);
  // Epoch 1: the first memory-dominated overshoot opens the gate, logs the
  // escalation and spends the epoch's one action: the mis-homed object
  // waits.
  rig.completions(4000, 3500);
  rig.add_mishomed_object("a", 0x1000);
  eng.on_task_dispatch(0, 1000);
  ASSERT_EQ(eng.log().size(), 1u);
  EXPECT_TRUE(starts_with(eng.log()[0].action, "escalate=migrate"));
  EXPECT_TRUE(rig.migrate_targets.empty());
  // Epoch 2: recovery closes the gate.
  rig.completions(300, 50);
  eng.on_task_dispatch(0, 2000);
  EXPECT_EQ(eng.log().size(), 1u);
  // Epoch 3: a second memory-dominated overshoot re-opens it without a
  // second escalate= entry and without spending the action, so the
  // migrate-object finding passes the stand-down in the same epoch.
  rig.completions(4000, 3500);
  rig.add_mishomed_object("b", 0x2000);
  eng.on_task_dispatch(0, 3000);
  ASSERT_EQ(eng.log().size(), 2u);
  EXPECT_EQ(eng.log()[1].epoch, 3u);
  EXPECT_EQ(eng.log()[1].rule, obs::AdviceKind::kMigrateObject);
  EXPECT_EQ(eng.log()[1].subject, "b");
  EXPECT_EQ(rig.migrate_targets.size(), 1u);
  // Re-opened means open: the queue ladder stays down.
  EXPECT_EQ(rig.live.balancer, sched::BalancerKind::kStealing);
  EXPECT_EQ(rig.mutations, 0);
  int escalations = 0;
  for (const std::string& a : actions_of(eng)) {
    if (starts_with(a, "escalate=")) ++escalations;
  }
  EXPECT_EQ(escalations, 1);
}

TEST(AdaptiveTransitions, WholeSetStealingTurnsOnOnceWhenOff) {
  TransitionRig rig;
  rig.live.steal_whole_sets = false;
  AdaptiveEngine eng(rig.machine, TransitionRig::throughput_policy(),
                     rig.hooks());
  for (std::uint64_t e = 1; e <= 8; ++e) {
    rig.add_split_task_set();
    eng.on_task_dispatch(0, e * 1000);
  }
  EXPECT_TRUE(rig.live.steal_whole_sets);
  ASSERT_EQ(eng.log().size(), 1u);
  EXPECT_EQ(eng.log()[0].epoch, 1u);
  EXPECT_EQ(eng.log()[0].rule, obs::AdviceKind::kWholeSetStealing);
  EXPECT_EQ(eng.log()[0].subject, "col+0x0");
  EXPECT_EQ(eng.log()[0].action, "steal_whole_sets=on");
  EXPECT_EQ(rig.mutations, 1);

  // With the policy's default (whole-set stealing already on) the same
  // finding moves nothing.
  TransitionRig on;
  AdaptiveEngine quiet(on.machine, TransitionRig::throughput_policy(),
                       on.hooks());
  for (std::uint64_t e = 1; e <= 4; ++e) {
    on.add_split_task_set();
    quiet.on_task_dispatch(0, e * 1000);
  }
  EXPECT_TRUE(quiet.log().empty());
  EXPECT_EQ(on.mutations, 0);
}

}  // namespace
}  // namespace cool::adaptive
