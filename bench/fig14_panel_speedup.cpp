// Figure 14 — Panel Cholesky: speedup of Base / Distr / Distr+Aff /
// Distr+Aff+ClusterStealing.
//
// Paper: distributing the panels alone helps (memory bandwidth spreads);
// affinity scheduling collocates updates with the destination panel for the
// big win; restricting stealing to the cluster keeps stolen tasks referencing
// cluster-local memory and improves things further. The final COOL code is
// within 10% of the hand-coded ANL version.
#include <climits>
#include <cstdio>

#include "apps/cholesky/panel.hpp"
#include "bench_common.hpp"

using namespace cool;
using namespace cool::apps::cholesky;

namespace {

PanelResult run_one(std::uint32_t procs, PanelVariant v, PanelConfig cfg,
                    bench::Report* prof = nullptr,
                    const util::Options* opt = nullptr) {
  cfg.variant = v;
  Runtime rt = prof != nullptr && opt != nullptr
                   ? bench::make_runtime(procs, panel_policy_for(v, procs), *opt)
                   : bench::make_runtime(procs, panel_policy_for(v, procs));
  PanelResult r = run_panel(rt, cfg);
  if (prof != nullptr) prof->profile_from(rt);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  auto opt = bench::standard_options(
      "fig14_panel_speedup",
      "Panel Cholesky speedup vs processors (paper Fig. 14)");
  opt.add_int("panels", 192, "number of panels", 2, INT_MAX);
  opt.add_int("row-scale", 3, "panel row footprint scale", 1, INT_MAX);
  if (!opt.parse(argc, argv)) return 0;

  PanelConfig cfg;
  cfg.n_panels = static_cast<int>(opt.get_int("panels"));
  cfg.row_scale = static_cast<int>(opt.get_int("row-scale"));
  const auto max_procs = static_cast<std::uint32_t>(opt.get_int("max-procs"));

  bench::Report rep(opt);
  std::printf("# Panel Cholesky (synthetic sparse structure, %d panels)\n",
              cfg.n_panels);

  const std::uint64_t serial =
      run_one(1, PanelVariant::kBase, cfg).run.sim_cycles;

  util::Table t({"P", "Base", "Distr", "Distr+Aff", "Distr+Aff+Cluster"});
  std::uint64_t base32 = 0;
  std::uint64_t best32 = 0;
  for (std::uint32_t p : apps::proc_series(max_procs)) {
    const auto base = run_one(p, PanelVariant::kBase, cfg);
    const auto distr = run_one(p, PanelVariant::kDistr, cfg);
    const auto aff = run_one(p, PanelVariant::kDistrAff, cfg);
    const auto clus = run_one(p, PanelVariant::kDistrAffCluster, cfg,
                              p == max_procs ? &rep : nullptr, &opt);
    t.row()
        .cell(static_cast<std::uint64_t>(p))
        .cell(apps::speedup(serial, base.run.sim_cycles), 2)
        .cell(apps::speedup(serial, distr.run.sim_cycles), 2)
        .cell(apps::speedup(serial, aff.run.sim_cycles), 2)
        .cell(apps::speedup(serial, clus.run.sim_cycles), 2);
    if (p == max_procs) {
      base32 = base.run.sim_cycles;
      best32 = std::min(aff.run.sim_cycles, clus.run.sim_cycles);
      rep.obs_from(clus.run);
    }
  }
  rep.table(t);
  std::printf("\nshape: best affinity version over Base at P=%u: +%.0f%%\n",
              max_procs, bench::improvement_pct(base32, best32));
  rep.shape("best_affinity_over_base_pct",
            bench::improvement_pct(base32, best32));
  return rep.finish();
}
