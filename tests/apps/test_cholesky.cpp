#include <gtest/gtest.h>

#include "apps/cholesky/block.hpp"
#include "apps/cholesky/panel.hpp"

namespace cool::apps::cholesky {
namespace {

// ---------------------------------------------------------------------------
// Panel Cholesky
// ---------------------------------------------------------------------------

PanelConfig small_panel(PanelVariant v) {
  PanelConfig cfg;
  cfg.n_panels = 24;
  cfg.row_scale = 3;
  cfg.variant = v;
  return cfg;
}

Runtime make_rt(std::uint32_t procs, const sched::Policy& pol) {
  SystemConfig sc;
  sc.machine = topo::MachineConfig::dash(procs);
  sc.policy = pol;
  return Runtime(sc);
}

class PanelVariants : public ::testing::TestWithParam<PanelVariant> {};

TEST_P(PanelVariants, MatchesSerialExactly) {
  PanelConfig cfg = small_panel(GetParam());
  Runtime rt = make_rt(8, panel_policy_for(cfg.variant));
  const PanelResult r = run_panel(rt, cfg);
  EXPECT_DOUBLE_EQ(r.checksum, panel_serial_checksum(cfg));
  // root + one complete per panel + one task per update edge.
  EXPECT_EQ(r.run.tasks, 1u + static_cast<std::uint64_t>(cfg.n_panels) +
                             r.updates);
}

INSTANTIATE_TEST_SUITE_P(AllVariants, PanelVariants,
                         ::testing::Values(PanelVariant::kBase,
                                           PanelVariant::kDistr,
                                           PanelVariant::kDistrAff,
                                           PanelVariant::kDistrAffCluster),
                         [](const auto& pinfo) {
                           switch (pinfo.param) {
                             case PanelVariant::kBase: return "Base";
                             case PanelVariant::kDistr: return "Distr";
                             case PanelVariant::kDistrAff: return "DistrAff";
                             case PanelVariant::kDistrAffCluster:
                               return "DistrAffCluster";
                           }
                           return "x";
                         });

TEST(PanelCholesky, AffinityImprovesLocalityOverDistr) {
  PanelConfig cfg;
  cfg.n_panels = 64;
  cfg.row_scale = 4;

  cfg.variant = PanelVariant::kDistr;
  Runtime distr_rt = make_rt(16, panel_policy_for(cfg.variant));
  const PanelResult distr = run_panel(distr_rt, cfg);

  cfg.variant = PanelVariant::kDistrAff;
  Runtime aff_rt = make_rt(16, panel_policy_for(cfg.variant));
  const PanelResult aff = run_panel(aff_rt, cfg);

  EXPECT_DOUBLE_EQ(distr.checksum, aff.checksum);
  // Figure 15: affinity scheduling reduces misses and services more locally.
  EXPECT_LT(aff.run.mem.misses(), distr.run.mem.misses());
  EXPECT_GT(local_fraction(aff.run.mem), local_fraction(distr.run.mem));
}

TEST(PanelCholesky, ClusterStealingStaysInCluster) {
  PanelConfig cfg;
  cfg.n_panels = 64;
  cfg.row_scale = 4;
  cfg.variant = PanelVariant::kDistrAffCluster;
  Runtime rt = make_rt(16, panel_policy_for(cfg.variant));
  const PanelResult r = run_panel(rt, cfg);
  EXPECT_EQ(r.run.sched.remote_cluster_steals, 0u);
  EXPECT_DOUBLE_EQ(r.checksum, panel_serial_checksum(cfg));
}

TEST(PanelCholesky, EveryPanelCompletes) {
  // Structural sanity across seeds: the synthetic DAG must always drain.
  for (std::uint64_t seed : {1ull, 2ull, 99ull}) {
    PanelConfig cfg = small_panel(PanelVariant::kDistrAff);
    cfg.seed = seed;
    Runtime rt = make_rt(4, panel_policy_for(cfg.variant));
    const PanelResult r = run_panel(rt, cfg);
    EXPECT_DOUBLE_EQ(r.checksum, panel_serial_checksum(cfg)) << seed;
  }
}

TEST(PanelCholesky, WorksUnderThreadEngine) {
  PanelConfig cfg = small_panel(PanelVariant::kDistrAff);
  SystemConfig sc;
  sc.mode = SystemConfig::Mode::kThreads;
  sc.machine = topo::MachineConfig::dash(4);
  sc.policy = panel_policy_for(cfg.variant);
  Runtime rt(sc);
  const PanelResult r = run_panel(rt, cfg);
  EXPECT_DOUBLE_EQ(r.checksum, panel_serial_checksum(cfg));
}

TEST(PanelCholesky, RejectsBadConfig) {
  PanelConfig cfg = small_panel(PanelVariant::kBase);
  cfg.n_panels = 1;
  Runtime rt = make_rt(4, panel_policy_for(cfg.variant));
  EXPECT_THROW(run_panel(rt, cfg), util::Error);
  // A row scale below 1 can leave a panel without rows, and an update with
  // an empty overlap; both entries must refuse it before touching data.
  for (const int row_scale : {0, -1}) {
    PanelConfig bad = small_panel(PanelVariant::kBase);
    bad.row_scale = row_scale;
    EXPECT_THROW(run_panel(rt, bad), util::Error) << row_scale;
    EXPECT_THROW(panel_serial_checksum(bad), util::Error) << row_scale;
  }
}

// ---------------------------------------------------------------------------
// Block Cholesky
// ---------------------------------------------------------------------------

BlockConfig small_block(BlockVariant v) {
  BlockConfig cfg;
  cfg.blocks = 6;
  cfg.block_size = 12;
  cfg.variant = v;
  return cfg;
}

class BlockVariants : public ::testing::TestWithParam<BlockVariant> {};

TEST_P(BlockVariants, FactorizationIsNumericallyCorrect) {
  BlockConfig cfg = small_block(GetParam());
  Runtime rt = make_rt(8, block_policy_for(cfg.variant));
  const BlockResult r = run_block(rt, cfg);
  EXPECT_LT(r.residual, 1e-7);
  // Task count: root + B factors + B(B-1)/2 solves + sum_{j<=i, k<j} 1.
  const std::uint64_t B = static_cast<std::uint64_t>(cfg.blocks);
  std::uint64_t updates = 0;
  for (std::uint64_t i = 0; i < B; ++i) {
    for (std::uint64_t j = 0; j <= i; ++j) updates += j;
  }
  EXPECT_EQ(r.run.tasks, 1 + B + B * (B - 1) / 2 + updates);
}

INSTANTIATE_TEST_SUITE_P(AllVariants, BlockVariants,
                         ::testing::Values(BlockVariant::kBase,
                                           BlockVariant::kDistrAff),
                         [](const auto& pinfo) {
                           return pinfo.param == BlockVariant::kBase
                                      ? "Base"
                                      : "DistrAff";
                         });

TEST(BlockCholesky, AffinityNotSlowerThanBase) {
  BlockConfig cfg;
  cfg.blocks = 8;
  cfg.block_size = 16;

  cfg.variant = BlockVariant::kBase;
  Runtime base_rt = make_rt(16, block_policy_for(cfg.variant));
  const BlockResult base = run_block(base_rt, cfg);

  cfg.variant = BlockVariant::kDistrAff;
  Runtime aff_rt = make_rt(16, block_policy_for(cfg.variant));
  const BlockResult aff = run_block(aff_rt, cfg);

  EXPECT_LT(base.residual, 1e-7);
  EXPECT_LT(aff.residual, 1e-7);
  EXPECT_LE(aff.run.sim_cycles, base.run.sim_cycles);
}

TEST(BlockCholesky, DeterministicInSim) {
  BlockConfig cfg = small_block(BlockVariant::kDistrAff);
  Runtime rt1 = make_rt(8, block_policy_for(cfg.variant));
  Runtime rt2 = make_rt(8, block_policy_for(cfg.variant));
  EXPECT_EQ(run_block(rt1, cfg).run.sim_cycles,
            run_block(rt2, cfg).run.sim_cycles);
}

TEST(BlockCholesky, WorksUnderThreadEngine) {
  BlockConfig cfg = small_block(BlockVariant::kDistrAff);
  SystemConfig sc;
  sc.mode = SystemConfig::Mode::kThreads;
  sc.machine = topo::MachineConfig::dash(4);
  sc.policy = block_policy_for(cfg.variant);
  Runtime rt(sc);
  EXPECT_LT(run_block(rt, cfg).residual, 1e-7);
}

class BlockBandSweep : public ::testing::TestWithParam<int> {};

TEST_P(BlockBandSweep, BandedFactorizationIsCorrect) {
  BlockConfig cfg;
  cfg.blocks = 8;
  cfg.block_size = 10;
  cfg.band = GetParam();
  cfg.variant = BlockVariant::kDistrAff;
  Runtime rt = make_rt(8, block_policy_for(cfg.variant));
  const BlockResult r = run_block(rt, cfg);
  EXPECT_LT(r.residual, 1e-9);
  if (cfg.band > 0) {
    // band b keeps b full off-diagonal block diagonals plus the diagonal.
    std::uint64_t expect = 0;
    for (int i = 0; i < cfg.blocks; ++i) {
      for (int j = std::max(0, i - cfg.band); j <= i; ++j) ++expect;
    }
    EXPECT_EQ(r.nonzero_blocks, expect);
  } else {
    EXPECT_EQ(r.nonzero_blocks,
              static_cast<std::uint64_t>(cfg.blocks) * (cfg.blocks + 1) / 2);
  }
}

INSTANTIATE_TEST_SUITE_P(Bands, BlockBandSweep, ::testing::Values(0, 1, 2, 4));

TEST(BlockCholesky, NarrowBandRunsFarFewerTasks) {
  BlockConfig dense;
  dense.blocks = 10;
  dense.block_size = 8;
  Runtime rt1 = make_rt(8, block_policy_for(dense.variant));
  const BlockResult d = run_block(rt1, dense);

  BlockConfig banded = dense;
  banded.band = 2;
  Runtime rt2 = make_rt(8, block_policy_for(banded.variant));
  const BlockResult b = run_block(rt2, banded);

  EXPECT_LT(b.run.tasks, d.run.tasks / 2);
  EXPECT_LT(b.residual, 1e-9);
}

TEST(BlockCholesky, RejectsBadBand) {
  BlockConfig cfg = small_block(BlockVariant::kBase);
  cfg.band = cfg.blocks;  // out of range
  Runtime rt = make_rt(4, block_policy_for(cfg.variant));
  EXPECT_THROW(run_block(rt, cfg), util::Error);
}

TEST(BlockCholesky, RejectsBadConfig) {
  BlockConfig cfg = small_block(BlockVariant::kBase);
  cfg.blocks = 1;
  Runtime rt = make_rt(4, block_policy_for(cfg.variant));
  EXPECT_THROW(run_block(rt, cfg), util::Error);
}

}  // namespace
}  // namespace cool::apps::cholesky
