// Figure 11 — LocusRoute: cache-miss statistics.
//
// Paper: affinity scheduling nearly halves the number of cache misses
// (region reuse + fewer invalidations); distributing the CostArray leaves
// the miss count unchanged but services more of the misses in local memory.
#include <climits>
#include <cstdio>

#include "apps/locusroute/locusroute.hpp"
#include "bench_common.hpp"

using namespace cool;
using namespace cool::apps::locusroute;

int main(int argc, char** argv) {
  auto opt = bench::standard_options(
      "fig11_locusroute_misses",
      "LocusRoute cache misses by version (paper Fig. 11)");
  opt.add_int("wires-per-region", 96, "synthetic wires per region", 1, INT_MAX);
  opt.add_int("iterations", 3, "rip-up-and-reroute passes", 1, INT_MAX);
  if (!opt.parse(argc, argv)) return 0;

  Config cfg;
  cfg.wires_per_region = static_cast<int>(opt.get_int("wires-per-region"));
  cfg.iterations = static_cast<int>(opt.get_int("iterations"));
  const auto procs = static_cast<std::uint32_t>(opt.get_int("procs"));
  cfg.regions = static_cast<int>(procs);

  bench::Report rep(opt);
  if (rep.text()) std::printf("# LocusRoute cache behaviour at P=%u\n", procs);
  auto t = bench::miss_table();
  apps::RunResult base_r, aff_r, distr_r;
  for (Variant v :
       {Variant::kBase, Variant::kAffinity, Variant::kAffinityDistr}) {
    Config c = cfg;
    c.variant = v;
    Runtime rt = v == Variant::kAffinityDistr
                     ? bench::make_runtime(procs, policy_for(v), opt)
                     : bench::make_runtime(procs, policy_for(v));
    const Result r = run(rt, c);
    bench::miss_row(t, variant_name(v), r.run);
    if (v == Variant::kBase) base_r = r.run;
    if (v == Variant::kAffinity) aff_r = r.run;
    if (v == Variant::kAffinityDistr) {
      distr_r = r.run;
      rep.profile_from(rt);
    }
  }
  rep.table(t);
  const double miss_ratio =
      static_cast<double>(base_r.mem.misses()) /
      static_cast<double>(aff_r.mem.misses() ? aff_r.mem.misses() : 1);
  if (rep.text()) {
    std::printf(
        "\nshape: misses Base:Affinity = %.2f : 1 (paper: ~2:1); "
        "local service %.0f%% -> %.0f%% with distribution\n",
        miss_ratio, 100.0 * apps::local_fraction(aff_r.mem),
        100.0 * apps::local_fraction(distr_r.mem));
  }
  rep.shape("base_over_affinity_miss_ratio", miss_ratio);
  rep.shape("affinity_local_pct", 100.0 * apps::local_fraction(aff_r.mem));
  rep.shape("distr_local_pct", 100.0 * apps::local_fraction(distr_r.mem));
  rep.obs_from(distr_r);
  return rep.finish();
}
