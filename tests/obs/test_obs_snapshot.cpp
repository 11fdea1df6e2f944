// Runtime::obs_snapshot() pinned byte for byte: every key, value and
// histogram of a small deterministic simulated run must match the goldens
// under golden/, so a change that moves where a counter lives cannot move
// what the snapshot reports. Under the thread engine the values vary from
// run to run, so only the key set is pinned.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/cool.hpp"

namespace cool {
namespace {

constexpr std::size_t kObjects = 4;
constexpr std::size_t kObjDoubles = 512;  // 4 KiB: one page per object.

using Objects = std::array<double*, kObjects>;

TaskFn touch(double* o, int i) {
  auto& c = co_await self();
  c.read(&o[(i * 16) % kObjDoubles], 256);
  c.write(&o[(i * 8) % kObjDoubles], 64);
  c.work(200);
}

/// Two waves of 64 tasks over four objects homed on processors 0, 2, 4 and
/// 6 (both clusters of an 8-processor DASH): half name their object with
/// OBJECT affinity, half with TASK affinity, so queues fill unevenly, idle
/// processors steal, and the profiler has heat before the second wave.
TaskFn waves(Objects* objs) {
  auto& c = co_await self();
  for (int wave = 0; wave < 2; ++wave) {
    TaskGroup g;
    for (int i = 0; i < 64; ++i) {
      double* o = (*objs)[i % kObjects];
      const Affinity aff =
          i % 2 == 0 ? Affinity::object(o) : Affinity::task(o);
      c.spawn(aff, g, touch(o, i));
    }
    co_await c.wait(g);
  }
}

obs::Snapshot run_snapshot(SystemConfig sc) {
  Runtime rt(sc);
  Objects objs{};
  for (std::size_t k = 0; k < kObjects; ++k) {
    objs[k] = rt.alloc_array<double>(kObjDoubles, 2 * k);
    rt.profile_register("obj" + std::to_string(k), objs[k],
                        kObjDoubles * sizeof(double));
  }
  rt.run(waves(&objs));
  return rt.obs_snapshot();
}

SystemConfig sim_config(std::uint32_t procs) {
  SystemConfig sc;
  sc.machine = topo::MachineConfig::dash(procs);
  return sc;
}

std::string read_golden(const std::string& name) {
  const std::string path = std::string(COOL_TEST_DATA_DIR) + "/golden/" + name;
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  std::string text = ss.str();
  while (!text.empty() && text.back() == '\n') text.pop_back();
  return text;
}

TEST(ObsSnapshotGolden, DefaultPolicy) {
  EXPECT_EQ(run_snapshot(sim_config(8)).to_json(),
            read_golden("obs_snapshot_default.json"));
}

// A histogram reports nothing above its largest sample: a steal scan probes
// at most the P-1 other servers, so its max is 7 on 8 processors, and no
// quantile exceeds the max.
TEST(ObsSnapshotHists, QuantilesStayWithinTheSamples) {
  const obs::Snapshot s = run_snapshot(sim_config(8));
  const obs::Hist<0>& scans = s.hists.at("sched.steal_scan_victims");
  ASSERT_GT(scans.count(), 0u);
  EXPECT_LE(scans.max(), 7u);
  for (const auto& [name, h] : s.hists) {
    EXPECT_LE(h.quantile(0.50), h.quantile(0.95)) << name;
    EXPECT_LE(h.quantile(0.95), h.max()) << name;
  }
}

// The Reserve balancer with the profiler as its heat source: the only
// configuration whose snapshot carries the per-cluster
// sched.balance.reserve_hits.cluster<k> keys.
TEST(ObsSnapshotGolden, ReserveBalancerWithProfile) {
  SystemConfig sc = sim_config(8);
  sc.profile = true;
  sc.policy.balancer = sched::BalancerKind::kReserve;
  const std::string got = run_snapshot(sc).to_json();
  EXPECT_NE(got.find("\"sched.balance.reserve_hits.cluster1\""),
            std::string::npos);
  EXPECT_EQ(got, read_golden("obs_snapshot_reserve.json"));
}

TEST(ObsSnapshotKeys, ThreadEngineKeySet) {
  SystemConfig sc = sim_config(4);
  sc.mode = SystemConfig::Mode::kThreads;
  Runtime rt(sc);
  Objects objs{};
  for (std::size_t k = 0; k < kObjects; ++k) {
    objs[k] = rt.alloc_array<double>(kObjDoubles, k);
  }
  rt.run(waves(&objs));
  const obs::Snapshot s = rt.obs_snapshot();
  std::vector<std::string> values;
  for (const auto& [k, v] : s.values) values.push_back(k);
  std::vector<std::string> hists;
  for (const auto& [k, h] : s.hists) hists.push_back(k);
  const std::vector<std::string> want_values = {
      "sched.balance.commands",
      "sched.balance.moves",
      "sched.balance.reserve_hits",
      "sched.failed_steal_scans",
      "sched.idle.sleeps",
      "sched.idle.wakeups",
      "sched.pops",
      "sched.queue.max_depth",
      "sched.queue.max_now",
      "sched.queue.now",
      "sched.remote_cluster_steals",
      "sched.resumes",
      "sched.set_steals",
      "sched.spawned",
      "sched.steals",
      "sched.tasks_stolen",
      "tasks.completed",
  };
  const std::vector<std::string> want_hists = {"sched.affinity_run_length",
                                               "sched.steal_scan_victims"};
  EXPECT_EQ(values, want_values);
  EXPECT_EQ(hists, want_hists);
  EXPECT_EQ(s.values.at("tasks.completed"), 129u);
}

}  // namespace
}  // namespace cool
