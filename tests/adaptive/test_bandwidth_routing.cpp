// Bandwidth-bound refinement of the memory-escalation gate: a memory-stall
// dominated overshoot normally routes to the migrate actuators, but when the
// channel gauges show a saturated channel, re-homing onto one memory only
// moves the queueing — the engine must route to "escalate=distribute" and
// open the stand-down for kDistributeObject alone.
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

/// BreakdownRig (test_breakdown_routing.cpp) plus per-channel busy counters
/// in the signals, so the saturation sensor has something to read.
struct ChannelRig {
  topo::MachineConfig machine = topo::MachineConfig::dash(8);
  sched::Policy live;
  obs::advisor::Signals signals;
  obs::LatencyHist hist;
  obs::StallSums sums;
  obs::ProfileSnapshot profile;  ///< Activity the next epoch read returns.
  obs::ProfileSnapshot handed;   ///< Backs the views of the last read.
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
    };
    h.policy = [this] { return live; };
    h.migrate = [this](topo::ProcId, std::uint64_t, std::uint64_t,
                       topo::ProcId target, std::uint64_t) -> std::uint64_t {
      migrate_targets.push_back(target);
      return 10;
    };
    return h;
  }

  /// One epoch of memory-stall-dominated completions over target.
  void overshoot_epoch(int n = 16) {
    for (int i = 0; i < n; ++i) {
      hist.record(4000);
      sums.queue_wait += 500;
      sums.memory_stall += 3500;
    }
  }

  /// Cumulative per-channel counters. `busy` is channel 0's busy-cycle
  /// total; the engine diffs readings, so calling this per epoch with a
  /// growing total yields the per-epoch delta.
  void set_channel_gauges(std::uint64_t busy) {
    signals.chan_busy = {busy, busy / 10};
    // The aggregate must NOT feed the peak (it sums all channels and would
    // read as >100% of the epoch).
    signals.chan_busy_total = busy + busy / 10;
  }

  /// A hot object with *scattered* users but a concentrated home: the
  /// advisor's distribute-object shape (home share >= dominant_frac, no
  /// dominant user cluster). Two pages, so the actuator round-robins them.
  void add_scattered_object() {
    profile.n_procs = 8;
    profile.n_clusters = 2;
    obs::ProfileSnapshot::ObjectRow row;
    row.name = "hot";
    row.addr = 0x1000;
    row.bytes = 8192;
    row.home = 0;
    row.s.reads = 4000;
    row.s.serviced[0] = 3000;
    row.s.serviced[3] = 1000;
    row.s.stall_cycles = 120000;
    row.s.remote_stall_cycles = 110000;
    row.miss_from_cluster = {500, 500};  // no dominant user
    row.miss_home_cluster = {1000, 0};   // home concentrated on one channel
    profile.objects.push_back(row);
    profile.total = row.s;
  }

  /// The migrate-object shape (dominant user cluster != home) from the
  /// breakdown-routing tests — must NOT pass the bandwidth stand-down.
  void add_mishomed_object() {
    profile.n_procs = 8;
    profile.n_clusters = 2;
    obs::ProfileSnapshot::ObjectRow row;
    row.name = "mishomed";
    row.addr = 0x20000;
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
    profile.total = row.s;
  }
};

AdaptiveEngine make_engine(ChannelRig& rig, AdaptPolicy p) {
  AdaptiveEngine eng(rig.machine, p, rig.hooks());
  eng.set_latency_sensor(&rig.hist);
  eng.set_breakdown_sensor([&rig] { return rig.sums; });
  return eng;
}

TEST(BandwidthRouting, SaturatedChannelRoutesToDistribute) {
  ChannelRig rig;
  AdaptiveEngine eng = make_engine(rig, rig.policy());
  rig.overshoot_epoch();
  // Epoch covers cycles [0, 1000); channel 0 was busy for 800 of them —
  // past the default saturation threshold.
  rig.set_channel_gauges(800);
  eng.on_task_dispatch(0, 1000);
  ASSERT_EQ(eng.log().size(), 1u);
  EXPECT_EQ(eng.log()[0].rule, obs::AdviceKind::kBandwidthBound);
  EXPECT_EQ(eng.log()[0].action.rfind("escalate=distribute", 0), 0u);
}

TEST(BandwidthRouting, UnsaturatedChannelKeepsTheMigrateRoute) {
  ChannelRig rig;
  AdaptiveEngine eng = make_engine(rig, rig.policy());
  rig.overshoot_epoch();
  rig.set_channel_gauges(100);  // 10% busy: memory is slow, not saturated
  eng.on_task_dispatch(0, 1000);
  ASSERT_EQ(eng.log().size(), 1u);
  EXPECT_EQ(eng.log()[0].action.rfind("escalate=migrate", 0), 0u);
}

TEST(BandwidthRouting, FlatBackendExportsNoGaugesSoMigrateRouteHolds) {
  ChannelRig rig;
  AdaptiveEngine eng = make_engine(rig, rig.policy());
  rig.overshoot_epoch();  // no channels at all
  eng.on_task_dispatch(0, 1000);
  ASSERT_EQ(eng.log().size(), 1u);
  EXPECT_EQ(eng.log()[0].action.rfind("escalate=migrate", 0), 0u);
}

TEST(BandwidthRouting, StandDownOpensDistributeOnly) {
  ChannelRig rig;
  rig.add_scattered_object();
  rig.add_mishomed_object();
  AdaptiveEngine eng = make_engine(rig, rig.policy());
  rig.overshoot_epoch();
  rig.set_channel_gauges(800);
  eng.on_task_dispatch(0, 1000);
  // The escalation, then the distribute actuator — and only it: the
  // mishomed object's migrate finding is exactly the concentration the
  // saturated channel cannot absorb.
  bool distributed = false;
  for (const Decision& d : eng.log()) {
    EXPECT_NE(d.rule, obs::AdviceKind::kMigrateObject);
    if (d.rule == obs::AdviceKind::kDistributeObject) distributed = true;
  }
  EXPECT_TRUE(distributed);
  // Two pages round-robined across the machine, not into one cluster.
  ASSERT_EQ(rig.migrate_targets.size(), 2u);
  EXPECT_NE(rig.migrate_targets[0], rig.migrate_targets[1]);
  // The ladder never moved.
  EXPECT_EQ(rig.live.balancer, sched::BalancerKind::kStealing);
}

TEST(BandwidthRouting, AggregateBusyKeyDoesNotFeedThePeakScan) {
  ChannelRig rig;
  AdaptiveEngine eng = make_engine(rig, rig.policy());
  rig.overshoot_epoch();
  // Per-channel peaks are tiny, but the aggregate across 16 channels is
  // large: only the per-channel counters may drive the decision.
  rig.signals = obs::advisor::Signals{};
  rig.signals.chan_busy.assign(16, 60);
  rig.signals.chan_busy_total = 16 * 60;  // 96% if misread
  eng.on_task_dispatch(0, 1000);
  ASSERT_EQ(eng.log().size(), 1u);
  EXPECT_EQ(eng.log()[0].action.rfind("escalate=migrate", 0), 0u);
}

TEST(BandwidthRouting, DecisionSequenceIsDeterministic) {
  const auto play = [](ChannelRig& rig) {
    rig.add_scattered_object();
    AdaptiveEngine eng = make_engine(rig, rig.policy());
    std::uint64_t t = 0;
    std::vector<std::string> actions;
    for (int e = 0; e < 4; ++e) {
      rig.overshoot_epoch();
      rig.set_channel_gauges(800 * static_cast<std::uint64_t>(e + 1));
      t += 1000;
      eng.on_task_dispatch(0, t);
    }
    for (const Decision& d : eng.log()) actions.push_back(d.action);
    return actions;
  };
  ChannelRig a;
  ChannelRig b;
  const std::vector<std::string> seq_a = play(a);
  const std::vector<std::string> seq_b = play(b);
  EXPECT_EQ(seq_a, seq_b);
  EXPECT_FALSE(seq_a.empty());
}

}  // namespace
}  // namespace cool::adaptive
