// Figure 15 — Panel Cholesky: cache-miss behaviour of the optimisations.
//
// Paper: distribution alone leaves the miss count unchanged (it only spreads
// memory bandwidth); affinity scheduling and cluster scheduling significantly
// reduce misses, and collocated tasks service their misses locally.
#include <climits>
#include <cstdio>

#include "apps/cholesky/panel.hpp"
#include "bench_common.hpp"

using namespace cool;
using namespace cool::apps::cholesky;

int main(int argc, char** argv) {
  auto opt = bench::standard_options(
      "fig15_panel_misses",
      "Panel Cholesky cache misses by version (paper Fig. 15)");
  opt.add_int("panels", 192, "number of panels", 2, INT_MAX);
  opt.add_int("row-scale", 3, "panel row footprint scale", 1, INT_MAX);
  if (!opt.parse(argc, argv)) return 0;

  PanelConfig cfg;
  cfg.n_panels = static_cast<int>(opt.get_int("panels"));
  cfg.row_scale = static_cast<int>(opt.get_int("row-scale"));
  const auto procs = static_cast<std::uint32_t>(opt.get_int("procs"));

  bench::Report rep(opt);
  if (rep.text()) {
    std::printf("# Panel Cholesky cache behaviour at P=%u\n", procs);
  }
  auto t = bench::miss_table();
  apps::RunResult base_r, distr_r, aff_r;
  for (PanelVariant v :
       {PanelVariant::kBase, PanelVariant::kDistr, PanelVariant::kDistrAff,
        PanelVariant::kDistrAffCluster}) {
    PanelConfig c = cfg;
    c.variant = v;
    Runtime rt = v == PanelVariant::kDistrAff
                     ? bench::make_runtime(procs, panel_policy_for(v, procs), opt)
                     : bench::make_runtime(procs, panel_policy_for(v, procs));
    const PanelResult r = run_panel(rt, c);
    bench::miss_row(t, panel_variant_name(v), r.run);
    if (v == PanelVariant::kBase) base_r = r.run;
    if (v == PanelVariant::kDistr) distr_r = r.run;
    if (v == PanelVariant::kDistrAff) {
      aff_r = r.run;
      rep.profile_from(rt);
    }
  }
  rep.table(t);
  const double distr_over_base =
      static_cast<double>(distr_r.mem.misses()) /
      static_cast<double>(base_r.mem.misses() ? base_r.mem.misses() : 1);
  const double distr_over_aff =
      static_cast<double>(distr_r.mem.misses()) /
      static_cast<double>(aff_r.mem.misses() ? aff_r.mem.misses() : 1);
  if (rep.text()) {
    std::printf(
        "\nshape: misses Base->Distr %.2fx (paper: ~unchanged); "
        "Distr->Distr+Aff %.2fx fewer; local service %.0f%% -> %.0f%%\n",
        distr_over_base, distr_over_aff,
        100.0 * apps::local_fraction(distr_r.mem),
        100.0 * apps::local_fraction(aff_r.mem));
  }
  rep.shape("distr_over_base_miss_ratio", distr_over_base);
  rep.shape("distr_over_aff_miss_ratio", distr_over_aff);
  rep.shape("distr_local_pct", 100.0 * apps::local_fraction(distr_r.mem));
  rep.shape("aff_local_pct", 100.0 * apps::local_fraction(aff_r.mem));
  rep.obs_from(aff_r);
  return rep.finish();
}
