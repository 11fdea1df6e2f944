// Figure 6 — Ocean: speedup vs. processor count.
//
// Paper: the COOL version (explicit region distribution + default affinity)
// scales well; a locality-blind Base schedule is limited by remote references
// to grids concentrated in one memory. (An ANL comparison was not available
// to the authors either; they expected similar performance.)
#include <climits>
#include <cstdio>

#include "apps/ocean/ocean.hpp"
#include "bench_common.hpp"

using namespace cool;
using namespace cool::apps::ocean;

namespace {

Result run_one(std::uint32_t procs, Variant v, const Config& base_cfg,
               bench::Report* prof = nullptr,
               const util::Options* opt = nullptr) {
  Config cfg = base_cfg;
  cfg.variant = v;
  Runtime rt = prof != nullptr && opt != nullptr
                   ? bench::make_runtime(procs, policy_for(v), *opt)
                   : bench::make_runtime(procs, policy_for(v));
  Result r = run(rt, cfg);
  if (prof != nullptr) prof->profile_from(rt);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  auto opt = bench::standard_options(
      "fig06_ocean_speedup", "Ocean speedup vs processors (paper Fig. 6)");
  opt.add_int("n", 256, "grid dimension", 8, INT_MAX);
  opt.add_int("grids", 8, "number of state grids", 1, INT_MAX);
  opt.add_int("steps", 4, "timesteps", 1, INT_MAX);
  opt.add_int("mg-levels", 0, "multigrid V-cycle depth per step (0 = off)",
              0, INT_MAX);
  if (!opt.parse(argc, argv)) return 0;

  Config cfg;
  cfg.n = static_cast<int>(opt.get_int("n"));
  cfg.grids = static_cast<int>(opt.get_int("grids"));
  cfg.steps = static_cast<int>(opt.get_int("steps"));
  cfg.multigrid_levels = static_cast<int>(opt.get_int("mg-levels"));

  bench::Report rep(opt);
  const auto max_procs = static_cast<std::uint32_t>(opt.get_int("max-procs"));
  std::printf("# Ocean (grid %dx%d, %d grids, %d steps) on simulated DASH\n",
              cfg.n, cfg.n, cfg.grids, cfg.steps);

  // Serial baseline: the Base version on one processor.
  const std::uint64_t serial = run_one(1, Variant::kBase, cfg).run.sim_cycles;

  util::Table t({"P", "Base", "Distr", "Distr+Aff"});
  std::uint64_t base32 = 0;
  std::uint64_t cool32 = 0;
  for (std::uint32_t p : apps::proc_series(max_procs)) {
    const auto base = run_one(p, Variant::kBase, cfg);
    const auto distr = run_one(p, Variant::kDistrNoAff, cfg);
    const auto aff =
        run_one(p, Variant::kDistr, cfg, p == max_procs ? &rep : nullptr, &opt);
    t.row()
        .cell(static_cast<std::uint64_t>(p))
        .cell(apps::speedup(serial, base.run.sim_cycles), 2)
        .cell(apps::speedup(serial, distr.run.sim_cycles), 2)
        .cell(apps::speedup(serial, aff.run.sim_cycles), 2);
    if (p == max_procs) {
      base32 = base.run.sim_cycles;
      cool32 = aff.run.sim_cycles;
      rep.obs_from(aff.run);
    }
  }
  rep.table(t);
  std::printf("\nshape: Distr+Aff over Base at P=%u: +%.0f%%\n", max_procs,
              bench::improvement_pct(base32, cool32));
  rep.shape("distr_aff_over_base_pct", bench::improvement_pct(base32, cool32));
  return rep.finish();
}
