// Wire router — the paper's LocusRoute scenario (§6.2) as an application:
// route a synthetic standard-cell circuit and compare the three scheduling
// strategies of Figure 10 on route quality, locality, and completion time.
//
//   $ ./wire_router [--procs=32] [--wires-per-region=96] [--iterations=3]
#include <cstdio>

#include "apps/locusroute/locusroute.hpp"
#include "common/options.hpp"
#include "common/table.hpp"

using namespace cool;
using namespace cool::apps::locusroute;

int main(int argc, char** argv) {
  util::Options opt("wire_router", "standard-cell wire routing with affinity");
  opt.add_int("procs", 32, "simulated processors", 1, UINT32_MAX);
  opt.add_int("wires-per-region", 96, "synthetic wires per region");
  opt.add_int("iterations", 3, "rip-up-and-reroute passes");
  if (!opt.parse(argc, argv)) return 0;

  const auto procs = static_cast<std::uint32_t>(opt.get_int("procs"));
  Config cfg;
  cfg.wires_per_region = static_cast<int>(opt.get_int("wires-per-region"));
  cfg.iterations = static_cast<int>(opt.get_int("iterations"));

  std::printf("routing %d wires (%u regions) for %d iterations on %u procs\n\n",
              static_cast<int>(procs) * cfg.wires_per_region, procs,
              cfg.iterations, procs);

  util::Table t({"strategy", "cycles(M)", "congestion", "wirelength",
                 "on-region%", "local-miss%"});
  for (Variant v :
       {Variant::kBase, Variant::kAffinity, Variant::kAffinityDistr}) {
    Config c = cfg;
    c.variant = v;
    SystemConfig sc;
    sc.machine = topo::MachineConfig::dash(procs);
    sc.policy = policy_for(v);
    Runtime rt(sc);
    const Result r = run(rt, c);
    t.row()
        .cell(variant_name(v))
        .cell(static_cast<double>(r.run.sim_cycles) / 1e6, 2)
        .cell(r.total_route_cost)
        .cell(r.total_occupancy)
        .cell(100.0 * r.region_adherence, 1)
        .cell(r.run.mem.misses()
                  ? 100.0 * static_cast<double>(r.run.mem.local_misses()) /
                        static_cast<double>(r.run.mem.misses())
                  : 0.0,
              1);
  }
  t.print();
  std::printf(
      "\nAll strategies route the same circuit; the hints change where wires\n"
      "are scheduled, not what is computed (congestion varies slightly with\n"
      "routing order).\n");
  return 0;
}
