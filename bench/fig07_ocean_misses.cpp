// Figure 7 — Ocean: cache-miss behaviour of the scheduling versions.
//
// Paper: with region distribution + default affinity, region tasks find
// their strips in the cache or local memory; the Base version misses more
// and services misses remotely.
#include <climits>
#include <cstdio>

#include "apps/ocean/ocean.hpp"
#include "bench_common.hpp"

using namespace cool;
using namespace cool::apps::ocean;

int main(int argc, char** argv) {
  auto opt = bench::standard_options(
      "fig07_ocean_misses", "Ocean cache misses by version (paper Fig. 7)");
  opt.add_int("n", 256, "grid dimension", 8, INT_MAX);
  opt.add_int("grids", 8, "number of state grids", 1, INT_MAX);
  opt.add_int("steps", 4, "timesteps", 1, INT_MAX);
  if (!opt.parse(argc, argv)) return 0;

  Config cfg;
  cfg.n = static_cast<int>(opt.get_int("n"));
  cfg.grids = static_cast<int>(opt.get_int("grids"));
  cfg.steps = static_cast<int>(opt.get_int("steps"));
  const auto procs = static_cast<std::uint32_t>(opt.get_int("procs"));

  bench::Report rep(opt);
  std::printf("# Ocean cache behaviour at P=%u\n", procs);
  auto t = bench::miss_table();
  apps::RunResult cool_r;
  apps::RunResult base_r;
  for (Variant v : {Variant::kBase, Variant::kDistrNoAff, Variant::kDistr}) {
    Config c = cfg;
    c.variant = v;
    Runtime rt = v == Variant::kDistr
                     ? bench::make_runtime(procs, policy_for(v), opt)
                     : bench::make_runtime(procs, policy_for(v));
    const Result r = run(rt, c);
    bench::miss_row(t, variant_name(v), r.run);
    if (v == Variant::kBase) base_r = r.run;
    if (v == Variant::kDistr) {
      cool_r = r.run;
      rep.profile_from(rt);
    }
  }
  rep.table(t);
  std::printf(
      "\nshape: Distr+Aff services %.0f%% of misses locally vs %.0f%% for "
      "Base\n",
      100.0 * apps::local_fraction(cool_r.mem),
      100.0 * apps::local_fraction(base_r.mem));
  rep.shape("distr_aff_local_pct", 100.0 * apps::local_fraction(cool_r.mem));
  rep.shape("base_local_pct", 100.0 * apps::local_fraction(base_r.mem));
  rep.obs_from(cool_r);
  return rep.finish();
}
