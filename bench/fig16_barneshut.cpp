// Figure 16a — Barnes-Hut: speedup with affinity hints.
//
// Paper: the COOL version (body blocks distributed, OBJECT affinity) performs
// close to the hand-coded ANL version; hints let the programmer explore
// locality/load-balance tradeoffs by editing one line.
#include <climits>
#include <cstdio>

#include "apps/barneshut/barneshut.hpp"
#include "bench_common.hpp"

using namespace cool;
using namespace cool::apps::barneshut;

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
      "fig16_barneshut", "Barnes-Hut speedup vs processors (paper Fig. 16a)");
  opt.add_int("bodies", 4096, "number of bodies", 16, INT_MAX);
  opt.add_int("steps", 2, "timesteps", 1, INT_MAX);
  if (!opt.parse(argc, argv)) return 0;

  Config cfg;
  cfg.n_bodies = static_cast<int>(opt.get_int("bodies"));
  cfg.steps = static_cast<int>(opt.get_int("steps"));
  const auto max_procs = static_cast<std::uint32_t>(opt.get_int("max-procs"));

  bench::Report rep(opt);
  if (rep.text()) {
    std::printf("# Barnes-Hut (%d bodies, theta=%.2f, %d steps)\n",
                cfg.n_bodies, cfg.theta, cfg.steps);
  }

  const std::uint64_t serial = run_one(1, Variant::kBase, cfg).run.sim_cycles;

  util::Table t({"P", "Base", "Distr+Aff"});
  std::uint64_t base32 = 0;
  std::uint64_t aff32 = 0;
  for (std::uint32_t p : apps::proc_series(max_procs)) {
    const auto base = run_one(p, Variant::kBase, cfg);
    const auto aff = run_one(p, Variant::kDistrAff, cfg,
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
