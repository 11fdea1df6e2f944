// Figure 3 — Gaussian elimination: composing TASK and OBJECT affinity.
//
// The paper's running example: update tasks take OBJECT affinity on the
// destination column (memory locality; columns distributed round-robin) and
// TASK affinity on the source column (cache locality: updates sharing a
// source run back-to-back). This bench quantifies each hint's contribution.
#include <climits>
#include <cstdio>

#include "apps/gauss/gauss.hpp"
#include "bench_common.hpp"

using namespace cool;
using namespace cool::apps::gauss;

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
      "fig03_gauss_affinity",
      "Gaussian elimination with TASK+OBJECT affinity (paper Fig. 3)");
  opt.add_int("n", 320, "matrix dimension", 2, INT_MAX);
  if (!opt.parse(argc, argv)) return 0;

  Config cfg;
  cfg.n = static_cast<int>(opt.get_int("n"));
  const auto max_procs = static_cast<std::uint32_t>(opt.get_int("max-procs"));

  bench::Report rep(opt);
  std::printf("# Column Gaussian elimination / Cholesky, n=%d\n", cfg.n);

  const std::uint64_t serial = run_one(1, Variant::kBase, cfg).run.sim_cycles;

  util::Table t({"P", "Base", "ObjectAff", "Task+ObjectAff"});
  std::uint64_t base32 = 0, both32 = 0;
  for (std::uint32_t p : apps::proc_series(max_procs)) {
    const auto base = run_one(p, Variant::kBase, cfg);
    const auto obj = run_one(p, Variant::kObjectOnly, cfg);
    const auto both = run_one(p, Variant::kTaskObject, cfg,
                              p == max_procs ? &rep : nullptr, &opt);
    t.row()
        .cell(static_cast<std::uint64_t>(p))
        .cell(apps::speedup(serial, base.run.sim_cycles), 2)
        .cell(apps::speedup(serial, obj.run.sim_cycles), 2)
        .cell(apps::speedup(serial, both.run.sim_cycles), 2);
    if (p == max_procs) {
      base32 = base.run.sim_cycles;
      both32 = both.run.sim_cycles;
      rep.obs_from(both.run);
    }
  }
  rep.table(t);

  // Cache behaviour at full machine size: TASK affinity's extra L1 reuse.
  const auto procs = max_procs;
  std::printf("\n# cache behaviour at P=%u\n", procs);
  auto mt = bench::miss_table();
  for (Variant v :
       {Variant::kBase, Variant::kObjectOnly, Variant::kTaskObject}) {
    const Result r = run_one(procs, v, cfg);
    bench::miss_row(mt, variant_name(v), r.run);
  }
  rep.table(mt);
  std::printf("\nshape: Task+Object over Base at P=%u: +%.0f%%\n", max_procs,
              bench::improvement_pct(base32, both32));
  rep.shape("task_object_over_base_pct",
            bench::improvement_pct(base32, both32));
  return rep.finish();
}
