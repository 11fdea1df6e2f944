#include "apps/barneshut/barneshut.hpp"

#include <gtest/gtest.h>

namespace cool::apps::barneshut {
namespace {

Config small(Variant v) {
  Config cfg;
  cfg.n_bodies = 256;
  cfg.block_size = 32;
  cfg.steps = 2;
  cfg.variant = v;
  return cfg;
}

Runtime make_rt(std::uint32_t procs, const Config& cfg) {
  SystemConfig sc;
  sc.machine = topo::MachineConfig::dash(procs);
  sc.policy = policy_for(cfg.variant);
  return Runtime(sc);
}

class BhVariants : public ::testing::TestWithParam<Variant> {};

TEST_P(BhVariants, TreeForcesMatchDirectSummation) {
  Config cfg = small(GetParam());
  Runtime rt = make_rt(8, cfg);
  const Result r = run(rt, cfg);
  // θ = 0.5 multipole approximation: a few percent worst-case error.
  EXPECT_LT(r.max_force_error, 0.05);
  EXPECT_GT(r.energy, 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllVariants, BhVariants,
                         ::testing::Values(Variant::kBase, Variant::kDistrAff),
                         [](const auto& pinfo) {
                           return pinfo.param == Variant::kBase ? "Base"
                                                               : "DistrAff";
                         });

TEST(BarnesHut, TighterThetaIsMoreAccurate) {
  Config loose = small(Variant::kDistrAff);
  loose.theta = 0.8;
  Config tight = small(Variant::kDistrAff);
  tight.theta = 0.2;
  Runtime rt1 = make_rt(8, loose);
  Runtime rt2 = make_rt(8, tight);
  const Result rl = run(rt1, loose);
  const Result rtt = run(rt2, tight);
  EXPECT_LT(rtt.max_force_error, rl.max_force_error);
}

TEST(BarnesHut, TaskCountMatchesStructure) {
  Config cfg = small(Variant::kDistrAff);
  Runtime rt = make_rt(4, cfg);
  const Result r = run(rt, cfg);
  const std::uint64_t blocks = 256 / 32;
  EXPECT_EQ(r.run.tasks, 1 + static_cast<std::uint64_t>(cfg.steps) * blocks * 2);
}

TEST(BarnesHut, SameResultBothVariants) {
  // Phase-separated: forces computed from the same positions regardless of
  // scheduling; integration identical. Results match exactly.
  Config cfg = small(Variant::kBase);
  Runtime rt1 = make_rt(8, cfg);
  const Result base = run(rt1, cfg);
  cfg.variant = Variant::kDistrAff;
  Runtime rt2 = make_rt(8, cfg);
  const Result aff = run(rt2, cfg);
  EXPECT_DOUBLE_EQ(base.energy, aff.energy);
}

TEST(BarnesHut, DeterministicInSim) {
  Config cfg = small(Variant::kDistrAff);
  Runtime rt1 = make_rt(8, cfg);
  Runtime rt2 = make_rt(8, cfg);
  EXPECT_EQ(run(rt1, cfg).run.sim_cycles, run(rt2, cfg).run.sim_cycles);
}

TEST(BarnesHut, WorksUnderThreadEngine) {
  Config cfg = small(Variant::kDistrAff);
  SystemConfig sc;
  sc.mode = SystemConfig::Mode::kThreads;
  sc.machine = topo::MachineConfig::dash(4);
  sc.policy = policy_for(cfg.variant);
  Runtime rt(sc);
  const Result r = run(rt, cfg);
  EXPECT_LT(r.max_force_error, 0.05);
}

TEST(BarnesHut, RejectsBadConfig) {
  Config cfg = small(Variant::kBase);
  cfg.n_bodies = 4;
  Runtime rt = make_rt(4, cfg);
  EXPECT_THROW(run(rt, cfg), util::Error);
  // Zero or negative steps would time nothing and print a speedup of 1.00.
  for (const int steps : {0, -1}) {
    Config no_steps = small(Variant::kDistrAff);
    no_steps.steps = steps;
    Runtime rt2 = make_rt(4, no_steps);
    EXPECT_THROW(run(rt2, no_steps), util::Error) << "steps=" << steps;
  }
}

}  // namespace
}  // namespace cool::apps::barneshut
