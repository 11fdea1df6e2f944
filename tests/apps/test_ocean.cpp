#include "apps/ocean/ocean.hpp"

#include <gtest/gtest.h>

namespace cool::apps::ocean {
namespace {

Config small(Variant v) {
  Config cfg;
  cfg.n = 32;
  cfg.grids = 3;
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

class OceanVariants : public ::testing::TestWithParam<Variant> {};

TEST_P(OceanVariants, MatchesSerialExactly) {
  Config cfg = small(GetParam());
  Runtime rt = make_rt(8, cfg);
  const Result r = run(rt, cfg);
  EXPECT_DOUBLE_EQ(r.checksum, serial_checksum(cfg, 8));
}

INSTANTIATE_TEST_SUITE_P(AllVariants, OceanVariants,
                         ::testing::Values(Variant::kBase, Variant::kDistrNoAff,
                                           Variant::kAffOnly, Variant::kDistr),
                         [](const auto& pinfo) {
                           switch (pinfo.param) {
                             case Variant::kBase: return "Base";
                             case Variant::kDistrNoAff: return "Distr";
                             case Variant::kAffOnly: return "AffOnly";
                             case Variant::kDistr: return "DistrAff";
                           }
                           return "x";
                         });

TEST(Ocean, TaskCountMatchesStructure) {
  Config cfg = small(Variant::kDistr);
  Runtime rt = make_rt(4, cfg);
  const Result r = run(rt, cfg);
  // root + steps * grids * 2 ops * regions tasks.
  const std::uint64_t regions = 4;
  EXPECT_EQ(r.run.tasks, 1 + static_cast<std::uint64_t>(cfg.steps) *
                                 cfg.grids * 2 * regions);
}

TEST(Ocean, DistributionImprovesLocality) {
  Config cfg;
  cfg.n = 64;
  cfg.grids = 4;
  cfg.steps = 2;

  cfg.variant = Variant::kBase;
  Runtime base_rt = make_rt(16, cfg);
  const Result base = run(base_rt, cfg);

  cfg.variant = Variant::kDistr;
  Runtime distr_rt = make_rt(16, cfg);
  const Result distr = run(distr_rt, cfg);

  EXPECT_DOUBLE_EQ(base.checksum, distr.checksum);
  // COOL version: faster and with a larger fraction of misses serviced
  // locally.
  EXPECT_LT(distr.run.sim_cycles, base.run.sim_cycles);
  EXPECT_GT(local_fraction(distr.run.mem), local_fraction(base.run.mem));
}

TEST(Ocean, AffinityWithoutDistributionSerializes) {
  Config cfg = small(Variant::kAffOnly);
  Runtime rt = make_rt(8, cfg);
  const Result r = run(rt, cfg);
  // Everything homed on processor 0 and affinity pins tasks there: almost no
  // work runs elsewhere (this is why Figure 5 distributes the regions).
  const auto util = rt.utilization();
  std::uint64_t busy_elsewhere = 0;
  std::uint64_t busy_total = 0;
  for (std::size_t p = 0; p < util.size(); ++p) {
    busy_total += util[p].busy;
    if (p != 0) busy_elsewhere += util[p].busy;
  }
  // Only stray hint-free work (the root task may be stolen) runs off
  // processor 0; all region tasks are pinned there.
  EXPECT_LT(busy_elsewhere * 5, busy_total);
  EXPECT_DOUBLE_EQ(r.checksum, serial_checksum(cfg, 8));
}

TEST(Ocean, MultipleRegionsPerProc) {
  Config cfg = small(Variant::kDistr);
  cfg.regions_per_proc = 2;
  Runtime rt = make_rt(4, cfg);
  const Result r = run(rt, cfg);
  EXPECT_DOUBLE_EQ(r.checksum, serial_checksum(cfg, 4));
}

TEST(Ocean, RejectsTooManyRegions) {
  Config cfg = small(Variant::kDistr);
  cfg.n = 8;
  cfg.regions_per_proc = 4;  // 32 regions > 8 rows
  Runtime rt = make_rt(8, cfg);
  EXPECT_THROW(run(rt, cfg), util::Error);
}

class OceanMultigrid : public ::testing::TestWithParam<int> {};

TEST_P(OceanMultigrid, MatchesSerialExactly) {
  Config cfg;
  cfg.n = 64;
  cfg.grids = 2;
  cfg.steps = 2;
  cfg.variant = Variant::kDistr;
  cfg.multigrid_levels = GetParam();
  Runtime rt = make_rt(8, cfg);
  const Result r = run(rt, cfg);
  EXPECT_DOUBLE_EQ(r.checksum, serial_checksum(cfg, 8));
}

INSTANTIATE_TEST_SUITE_P(Levels, OceanMultigrid, ::testing::Values(1, 2, 3));

TEST(OceanMultigrid, CoarseLevelsHaveFewerRegionsThanProcs) {
  // 3 levels of a 64-grid on 16 procs: level 3 is 8x8 -> at most 8 regions,
  // exercising the load-imbalance end of the locality tradeoff.
  Config cfg;
  cfg.n = 64;
  cfg.grids = 1;
  cfg.steps = 1;
  cfg.variant = Variant::kDistr;
  cfg.multigrid_levels = 3;
  Runtime rt = make_rt(16, cfg);
  const Result r = run(rt, cfg);
  EXPECT_DOUBLE_EQ(r.checksum, serial_checksum(cfg, 16));
}

TEST(OceanMultigrid, RejectsTooManyLevels) {
  Config cfg;
  cfg.n = 32;
  cfg.grids = 1;
  cfg.steps = 1;
  for (const int levels : {4, 40}) {  // 32 >> 4 = 2 < 8; 40 > int's width
    cfg.multigrid_levels = levels;
    Runtime rt = make_rt(4, cfg);
    EXPECT_THROW(run(rt, cfg), util::Error) << levels;
  }
}

TEST(Ocean, Deterministic) {
  Config cfg = small(Variant::kDistr);
  Runtime rt1 = make_rt(8, cfg);
  Runtime rt2 = make_rt(8, cfg);
  EXPECT_EQ(run(rt1, cfg).run.sim_cycles, run(rt2, cfg).run.sim_cycles);
}

}  // namespace
}  // namespace cool::apps::ocean
