// Figure 16b — Block Cholesky: speedup with affinity hints.
//
// Paper: the COOL block-Cholesky even beats the hand-coded ANL program,
// thanks to better dynamic load balance — the runtime steals hint-free work
// while affinity keeps block updates collocated.
#include <climits>
#include <cstdio>

#include "apps/cholesky/block.hpp"
#include "bench_common.hpp"

using namespace cool;
using namespace cool::apps::cholesky;

namespace {

BlockResult run_one(std::uint32_t procs, BlockVariant v, BlockConfig cfg,
                    bench::Report* prof = nullptr,
                    const util::Options* opt = nullptr) {
  cfg.variant = v;
  Runtime rt = prof != nullptr && opt != nullptr
                   ? bench::make_runtime(procs, block_policy_for(v), *opt)
                   : bench::make_runtime(procs, block_policy_for(v));
  BlockResult r = run_block(rt, cfg);
  if (prof != nullptr) prof->profile_from(rt);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  auto opt = bench::standard_options(
      "fig16_blockcholesky",
      "Block Cholesky speedup vs processors (paper Fig. 16b)");
  opt.add_int("blocks", 16, "matrix blocks per dimension", 2, INT_MAX);
  opt.add_int("block-size", 24, "doubles per block dimension", 2, INT_MAX);
  opt.add_int("band", 0, "block bandwidth (0 = dense)", 0, INT_MAX);
  if (!opt.parse(argc, argv)) return 0;

  BlockConfig cfg;
  cfg.blocks = static_cast<int>(opt.get_int("blocks"));
  cfg.block_size = static_cast<int>(opt.get_int("block-size"));
  cfg.band = static_cast<int>(opt.get_int("band"));
  const auto max_procs = static_cast<std::uint32_t>(opt.get_int("max-procs"));

  bench::Report rep(opt);
  if (rep.text()) {
    std::printf("# Block Cholesky (%dx%d blocks of %d^2 doubles)\n", cfg.blocks,
                cfg.blocks, cfg.block_size);
  }

  const std::uint64_t serial =
      run_one(1, BlockVariant::kBase, cfg).run.sim_cycles;

  util::Table t({"P", "Base", "Distr+Aff"});
  std::uint64_t base32 = 0;
  std::uint64_t aff32 = 0;
  for (std::uint32_t p : apps::proc_series(max_procs)) {
    const auto base = run_one(p, BlockVariant::kBase, cfg);
    const auto aff = run_one(p, BlockVariant::kDistrAff, cfg,
                             p == max_procs ? &rep : nullptr, &opt);
    t.row()
        .cell(static_cast<std::uint64_t>(p))
        .cell(apps::speedup(serial, base.run.sim_cycles), 2)
        .cell(apps::speedup(serial, aff.run.sim_cycles), 2);
    if (p == max_procs) {
      base32 = base.run.sim_cycles;
      aff32 = aff.run.sim_cycles;
      rep.obs_from(aff.run);
    }
  }
  rep.table(t);
  if (rep.text()) {
    std::printf("\nshape: Distr+Aff over Base at P=%u: +%.0f%%\n", max_procs,
                bench::improvement_pct(base32, aff32));
  }
  rep.shape("distr_aff_over_base_pct", bench::improvement_pct(base32, aff32));
  return rep.finish();
}
