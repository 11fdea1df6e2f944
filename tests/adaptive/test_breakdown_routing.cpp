// Dominant-component routing of the latency-target objective: with the
// request-trace breakdown sensor attached, a memory-stall-dominated
// overshoot routes to the migration actuators (and stands the balancer
// ladder down); a queue-dominated one climbs the PR-7 ladder unchanged.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "adaptive/engine.hpp"
#include "adaptive/policy.hpp"
#include "obs/hist.hpp"
#include "obs/request_trace.hpp"

namespace cool::adaptive {
namespace {

/// LatencyRig (test_latency_target.cpp) plus hand-fed breakdown sums and
/// a counting migrate hook, so the routing decision and the actuator it
/// opens are both observable.
struct BreakdownRig {
  topo::MachineConfig machine = topo::MachineConfig::dash(8);
  sched::Policy live;
  obs::advisor::Signals signals;
  obs::LatencyHist hist;
  obs::StallSums sums;
  obs::ProfileSnapshot profile;  ///< Activity the next epoch read returns.
  obs::ProfileSnapshot handed;   ///< Backs the views of the last read.
  int mutations = 0;
  std::vector<topo::ProcId> migrate_targets;

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

  /// One epoch of completions: every request at latency `lat`, split into
  /// `stall` memory-stall and the rest queue wait (service negligible).
  void epoch(std::uint64_t lat, std::uint64_t stall, int n = 16) {
    for (int i = 0; i < n; ++i) {
      hist.record(lat);
      sums.queue_wait += lat - stall;
      sums.memory_stall += stall;
    }
  }

  /// A mis-homed hot object: dominant user cluster 0, homed in cluster 1 —
  /// the advisor's kMigrateObject rule fires on this row.
  void add_mishomed_object() {
    profile.n_procs = 8;
    profile.n_clusters = 2;
    obs::ProfileSnapshot::ObjectRow row;
    row.name = "hot";
    row.addr = 0x1000;
    row.bytes = 256;  // sub-page: one rotating rehome target
    row.home = 4;
    row.s.reads = 4000;
    row.s.serviced[0] = 3000;
    row.s.serviced[3] = 1000;
    row.s.stall_cycles = 120000;
    row.s.remote_stall_cycles = 110000;
    row.miss_from_cluster = {950, 50};
    row.miss_home_cluster = {0, 1000};
    profile.objects.push_back(row);
    profile.total = row.s;
  }
};

AdaptiveEngine make_engine(BreakdownRig& rig, AdaptPolicy p) {
  AdaptiveEngine eng(rig.machine, p, rig.hooks());
  eng.set_latency_sensor(&rig.hist);
  eng.set_breakdown_sensor([&rig] { return rig.sums; });
  return eng;
}

TEST(BreakdownRouting, MemoryDominatedOvershootSkipsTheLadder) {
  BreakdownRig rig;
  AdaptiveEngine eng = make_engine(rig, rig.policy());
  rig.epoch(4000, /*stall=*/3500);  // latency mass is memory stall
  eng.on_task_dispatch(0, 1000);
  // No balancer switch, no steal flip — the ladder is the wrong medicine.
  EXPECT_EQ(rig.live.balancer, sched::BalancerKind::kStealing);
  EXPECT_FALSE(rig.live.steal_object_tasks);
  EXPECT_EQ(rig.mutations, 0);
  // One deterministic decision announcing the routing.
  ASSERT_EQ(eng.log().size(), 1u);
  EXPECT_EQ(eng.log()[0].action.rfind("escalate=migrate", 0), 0u);
}

TEST(BreakdownRouting, QueueDominatedOvershootClimbsTheLadderAsBefore) {
  BreakdownRig rig;
  AdaptiveEngine eng = make_engine(rig, rig.policy());
  rig.epoch(4000, /*stall=*/100);  // latency mass is queue wait
  eng.on_task_dispatch(0, 1000);
  EXPECT_EQ(rig.live.balancer, sched::BalancerKind::kAverage);
  EXPECT_EQ(rig.mutations, 1);
  for (const Decision& d : eng.log()) {
    EXPECT_NE(d.action.rfind("escalate=migrate", 0), 0u);
  }
}

TEST(BreakdownRouting, NoSensorKeepsTheFixedLadder) {
  BreakdownRig rig;
  AdaptiveEngine eng(rig.machine, rig.policy(), rig.hooks());
  eng.set_latency_sensor(&rig.hist);
  // Memory-stall-shaped load, but without the breakdown sensor the engine
  // cannot see it: the ladder climbs exactly as in PR 7.
  rig.epoch(4000, 3500);
  eng.on_task_dispatch(0, 1000);
  EXPECT_EQ(rig.live.balancer, sched::BalancerKind::kAverage);
}

TEST(BreakdownRouting, EscalationOpensTheMigrationActuator) {
  BreakdownRig rig;
  rig.add_mishomed_object();
  AdaptiveEngine eng = make_engine(rig, rig.policy());
  rig.epoch(4000, 3500);
  eng.on_task_dispatch(0, 1000);
  // Same epoch: the escalation decision, then the advisor's migrate-object
  // finding passes through the serving-mode stand-down.
  ASSERT_EQ(rig.migrate_targets.size(), 1u);
  ASSERT_EQ(eng.log().size(), 2u);
  EXPECT_EQ(eng.log()[0].action.rfind("escalate=migrate", 0), 0u);
  EXPECT_EQ(eng.log()[1].rule, obs::AdviceKind::kMigrateObject);
  // ... and the ladder still never moved.
  EXPECT_EQ(rig.live.balancer, sched::BalancerKind::kStealing);
}

TEST(BreakdownRouting, WithoutEscalationMigrationsStandDown) {
  BreakdownRig rig;
  rig.add_mishomed_object();
  AdaptiveEngine eng = make_engine(rig, rig.policy());
  rig.epoch(4000, /*stall=*/100);  // queue-dominated
  eng.on_task_dispatch(0, 1000);
  // Serving mode without a memory-stall diagnosis: data-plane churn stays
  // off, exactly as in PR 7.
  EXPECT_TRUE(rig.migrate_targets.empty());
}

TEST(BreakdownRouting, RehomeTargetsSkipExcludedProcessors) {
  BreakdownRig rig;
  rig.add_mishomed_object();
  rig.live.reserve_exclude_mask = 0x1;  // proc 0 is the serving front-end
  AdaptiveEngine eng = make_engine(rig, rig.policy());
  rig.epoch(4000, 3500);
  eng.on_task_dispatch(0, 1000);
  ASSERT_EQ(rig.migrate_targets.size(), 1u);
  EXPECT_NE(rig.migrate_targets[0], 0u);
}

TEST(BreakdownRouting, GateIsStickyAcrossTheRehomeWave) {
  BreakdownRig rig;
  AdaptiveEngine eng = make_engine(rig, rig.policy());
  // Epoch 1: memory-dominated overshoot opens the gate.
  rig.epoch(4000, 3500);
  eng.on_task_dispatch(0, 1000);
  ASSERT_EQ(eng.log().size(), 1u);
  // Epoch 2: the rehome wave itself manufactures a queue-dominated
  // overshoot (stalled servers, invalidated lines). The gate must hold —
  // flipping to the balancer mid-wave would abandon the data fix.
  rig.epoch(4000, 100);
  eng.on_task_dispatch(0, 2000);
  EXPECT_EQ(rig.live.balancer, sched::BalancerKind::kStealing);
  EXPECT_EQ(rig.mutations, 0);
  // Epoch 3: recovery (p99 back under target) closes the gate.
  rig.epoch(300, 50);
  eng.on_task_dispatch(0, 3000);
  // Epoch 4: a fresh queue-dominated overshoot now climbs the ladder.
  rig.epoch(4000, 100);
  eng.on_task_dispatch(0, 4000);
  EXPECT_EQ(rig.live.balancer, sched::BalancerKind::kAverage);
}

TEST(BreakdownRouting, LiveRecorderFeedsTheSensor) {
  // End-to-end over the real recorder type: the sensor closure returns
  // rec.stall_sums() and the engine compares it per epoch.
  obs::RequestTraceRecorder rec(1, 64, 1);
  rec.begin_run({0, 0}, 0);
  BreakdownRig rig;
  AdaptiveEngine eng(rig.machine, rig.policy(), rig.hooks());
  eng.set_latency_sensor(&rig.hist);
  eng.set_breakdown_sensor([&rec] { return rec.stall_sums(); });
  // Requests whose latency is almost entirely memory stall.
  std::uint64_t t = 0;
  for (std::uint32_t r = 0; r < 2; ++r) {
    rec.on_admit(r, t);
    rec.on_dispatch(0, r, t, t + 1, 0, false, false, 0);
    mem::AccessInfo info;
    info.proc = 0;
    info.stall = 3000;
    rec.on_access(info);
    rec.on_complete(r, t + 3500);
    rec.on_span_end(0, t + 3500);
    t += 4000;
  }
  rig.epoch(4000, 0);  // drive the p99 overshoot via the latency sensor
  eng.on_task_dispatch(0, 1000);
  ASSERT_EQ(eng.log().size(), 1u);
  EXPECT_EQ(eng.log()[0].action.rfind("escalate=migrate", 0), 0u);
}

}  // namespace
}  // namespace cool::adaptive
