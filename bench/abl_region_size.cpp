// Ablation — LocusRoute region granularity (paper §6.2).
//
// "Partitioning the CostArray into a few large regions (say one per
// processor) will have better locality but perhaps poorer load balance,
// while larger numbers of smaller regions will have better load balance at
// the expense of data locality. These tradeoffs can be easily explored in
// the COOL program by varying the Region function." — this sweep does
// exactly that: total circuit area and wire count held constant, region
// count varied from P/2 to 8P.
#include <algorithm>
#include <climits>
#include <cstdio>

#include "apps/locusroute/locusroute.hpp"
#include "bench_common.hpp"

using namespace cool;
using namespace cool::apps::locusroute;

int main(int argc, char** argv) {
  auto opt = bench::standard_options(
      "abl_region_size", "LocusRoute region-granularity ablation (paper §6.2)");
  opt.add_int("total-wires", 3072, "total synthetic wires", 1, INT_MAX);
  opt.add_int("total-width", 2048, "total routing-grid width in cells",
              1, INT_MAX);
  if (!opt.parse(argc, argv)) return 0;

  const auto procs = static_cast<std::uint32_t>(opt.get_int("procs"));
  const int total_wires = static_cast<int>(opt.get_int("total-wires"));
  const int total_width = static_cast<int>(opt.get_int("total-width"));

  bench::Report rep(opt);
  std::printf("# LocusRoute, %d wires over %d cells width, P=%u\n",
              total_wires, total_width, procs);
  util::Table t({"regions", "region-w", "cycles(M)", "adherence%", "L1-hit%",
                 "busy-imbalance%"});
  for (int mult : {-2, 1, 2, 4, 8}) {  // -2 encodes P/2
    const int regions = mult == -2 ? static_cast<int>(procs) / 2
                                   : static_cast<int>(procs) * mult;
    if (regions < 1) continue;
    Config cfg;
    cfg.variant = Variant::kAffinityDistr;
    cfg.regions = regions;
    cfg.region_w = std::max(8, total_width / regions);
    cfg.wires_per_region = std::max(1, total_wires / regions);
    cfg.iterations = 3;

    Runtime rt = bench::make_runtime(procs, policy_for(cfg.variant));
    const Result r = run(rt, cfg);

    const auto util = rt.utilization();
    std::uint64_t max_busy = 0;
    std::uint64_t sum_busy = 0;
    for (const auto& u : util) {
      max_busy = std::max(max_busy, u.busy);
      sum_busy += u.busy;
    }
    const double avg_busy =
        static_cast<double>(sum_busy) / static_cast<double>(util.size());
    const double imbalance =
        avg_busy > 0.0
            ? 100.0 * (static_cast<double>(max_busy) / avg_busy - 1.0)
            : 0.0;
    const auto mem = r.run.mem;
    const double l1 =
        100.0 *
        static_cast<double>(
            mem.serviced[static_cast<int>(mem::Service::kL1Hit)]) /
        static_cast<double>(mem.accesses() ? mem.accesses() : 1);
    t.row()
        .cell(static_cast<std::uint64_t>(regions))
        .cell(static_cast<std::uint64_t>(cfg.region_w))
        .cell(static_cast<double>(r.run.sim_cycles) / 1e6, 2)
        .cell(100.0 * r.region_adherence, 1)
        .cell(l1, 1)
        .cell(imbalance, 1);
  }
  rep.table(t);
  return rep.finish();
}
