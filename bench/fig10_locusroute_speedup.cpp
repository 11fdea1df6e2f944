// Figure 10 — LocusRoute: speedup of Base / Affinity / Affinity+ObjectDistr.
//
// Paper: overall speedups are modest (heavy sharing of the CostArray), but
// processor-affinity hints give significant gains — over 80% of wire tasks
// route on their region's processor — and physically distributing the
// CostArray regions helps a little more.
#include <climits>
#include <cstdio>

#include "apps/locusroute/locusroute.hpp"
#include "bench_common.hpp"

using namespace cool;
using namespace cool::apps::locusroute;

namespace {

Result run_one(std::uint32_t procs, Variant v, Config cfg,
               bench::Report* prof = nullptr,
               const util::Options* opt = nullptr) {
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
      "fig10_locusroute_speedup",
      "LocusRoute speedup vs processors (paper Fig. 10)");
  opt.add_int("wires-per-region", 96, "synthetic wires per region", 1, INT_MAX);
  opt.add_int("iterations", 3, "rip-up-and-reroute passes", 1, INT_MAX);
  opt.add_int("region-w", 64, "region width in routing cells", 4, INT_MAX);
  opt.add_int("height", 64, "routing grid height", 4, INT_MAX);
  if (!opt.parse(argc, argv)) return 0;

  Config cfg;
  cfg.wires_per_region = static_cast<int>(opt.get_int("wires-per-region"));
  cfg.iterations = static_cast<int>(opt.get_int("iterations"));
  cfg.region_w = static_cast<int>(opt.get_int("region-w"));
  cfg.height = static_cast<int>(opt.get_int("height"));
  const auto max_procs = static_cast<std::uint32_t>(opt.get_int("max-procs"));
  // Fix the circuit size to the largest machine so every P routes the same
  // synthetic circuit (the paper's region count is geographic, not per-P).
  cfg.regions = static_cast<int>(max_procs);

  bench::Report rep(opt);
  if (rep.text()) {
    std::printf(
        "# LocusRoute (synthetic circuit: %d regions x %d wires, %d iters)\n",
        cfg.regions, cfg.wires_per_region, cfg.iterations);
  }

  const std::uint64_t serial = run_one(1, Variant::kBase, cfg).run.sim_cycles;

  util::Table t(
      {"P", "Base", "Affinity", "Affinity+ObjDistr", "region-adherence%"});
  std::uint64_t base32 = 0;
  std::uint64_t best32 = 0;
  for (std::uint32_t p : apps::proc_series(max_procs)) {
    const auto base = run_one(p, Variant::kBase, cfg);
    const auto aff = run_one(p, Variant::kAffinity, cfg);
    const auto distr = run_one(p, Variant::kAffinityDistr, cfg,
                               p == max_procs ? &rep : nullptr, &opt);
    t.row()
        .cell(static_cast<std::uint64_t>(p))
        .cell(apps::speedup(serial, base.run.sim_cycles), 2)
        .cell(apps::speedup(serial, aff.run.sim_cycles), 2)
        .cell(apps::speedup(serial, distr.run.sim_cycles), 2)
        .cell(100.0 * distr.region_adherence, 1);
    if (p == max_procs) {
      base32 = base.run.sim_cycles;
      best32 = distr.run.sim_cycles;
      rep.obs_from(distr.run);
    }
  }
  rep.table(t);
  if (rep.text()) {
    std::printf("\nshape: Affinity+ObjDistr over Base at P=%u: +%.0f%%\n",
                max_procs, bench::improvement_pct(base32, best32));
  }
  rep.shape("affinity_distr_over_base_pct",
            bench::improvement_pct(base32, best32));
  return rep.finish();
}
