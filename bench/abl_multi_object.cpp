// Ablation — multi-object affinity and prefetching (paper §8).
//
// "There are obvious better heuristics that would determine the relative
// importance of objects based on their size and schedule the task on the
// processor that has the most objects in its local memory, while prefetching
// the remaining objects. We plan to study such tradeoffs in the future."
//
// This bench studies them: tasks read a small and a large object homed on
// different processors, under (a) the paper's first-object placement, (b)
// size-weighted placement, and (c) size-weighted placement plus dispatch-time
// prefetch of the remaining objects.
#include <climits>
#include <cstdio>

#include "apps/synth/multiobj.hpp"
#include "bench_common.hpp"

using namespace cool;
using namespace cool::apps::multiobj;

int main(int argc, char** argv) {
  auto opt = bench::standard_options(
      "abl_multi_object", "Multi-object affinity heuristics (paper §8)");
  opt.add_int("pairs", 64, "object pairs", 1, INT_MAX);
  opt.add_int("small-kb", 8, "first-listed object size (KiB)", 1, INT_MAX);
  opt.add_int("large-kb", 32, "second-listed object size (KiB)", 1, INT_MAX);
  opt.add_int("tasks-per-pair", 4, "tasks touching each pair", 1, INT_MAX);
  if (!opt.parse(argc, argv)) return 0;

  const auto procs = static_cast<std::uint32_t>(opt.get_int("procs"));
  Config cfg;
  cfg.pairs = static_cast<int>(opt.get_int("pairs"));
  cfg.small_kb = static_cast<std::size_t>(opt.get_int("small-kb"));
  cfg.large_kb = static_cast<std::size_t>(opt.get_int("large-kb"));
  cfg.tasks_per_pair = static_cast<int>(opt.get_int("tasks-per-pair"));

  bench::Report rep(opt);
  std::printf(
      "# %d pairs (%zu KiB + %zu KiB on different homes), %d tasks/pair, "
      "P=%u\n",
      cfg.pairs, cfg.small_kb, cfg.large_kb, cfg.tasks_per_pair, procs);

  util::Table t({"strategy", "cycles(K)", "local-miss%", "stall(Kcyc)",
                 "prefetched-lines"});
  for (Strategy s : {Strategy::kFirstObject, Strategy::kWeighted,
                     Strategy::kWeightedPrefetch}) {
    Config c = cfg;
    c.strategy = s;
    Runtime rt = bench::make_runtime(procs, policy_for(s));
    const Result r = run(rt, c);
    t.row()
        .cell(strategy_name(s))
        .cell(static_cast<double>(r.run.sim_cycles) / 1e3, 1)
        .cell(100.0 * apps::local_fraction(r.run.mem), 1)
        .cell(static_cast<double>(r.run.mem.latency_cycles) / 1e3, 1)
        .cell(r.run.mem.prefetches);
  }
  rep.table(t);
  return rep.finish();
}
