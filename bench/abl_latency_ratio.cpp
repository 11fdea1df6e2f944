// Ablation — remote:local latency ratio (paper §3).
//
// "In these multiprocessors the ratio of the latencies of local to remote
// references is usually much more significant than variations in the
// latencies to different remote processing elements." The affinity hints
// exist because remote references are expensive; this sweep varies the
// remote-memory latency (keeping local at 30 cycles) and shows the benefit
// of the hints growing with the ratio — on flat memory (ratio 1) they are
// nearly free but nearly useless, on DASH-like ratios they are essential.
#include <climits>
#include <cstdio>

#include "apps/ocean/ocean.hpp"
#include "bench_common.hpp"

using namespace cool;
using namespace cool::apps::ocean;

int main(int argc, char** argv) {
  auto opt = bench::standard_options(
      "abl_latency_ratio", "Affinity benefit vs remote:local latency ratio");
  opt.add_int("n", 192, "ocean grid dimension", 8, INT_MAX);
  opt.add_int("grids", 6, "state grids", 1, INT_MAX);
  opt.add_int("steps", 3, "timesteps", 1, INT_MAX);
  if (!opt.parse(argc, argv)) return 0;

  Config cfg;
  cfg.n = static_cast<int>(opt.get_int("n"));
  cfg.grids = static_cast<int>(opt.get_int("grids"));
  cfg.steps = static_cast<int>(opt.get_int("steps"));
  const auto procs = static_cast<std::uint32_t>(opt.get_int("procs"));

  bench::Report rep(opt);
  if (rep.text()) {
    std::printf("# Ocean %dx%d at P=%u, local memory fixed at 30 cycles\n",
                cfg.n, cfg.n, procs);
  }
  util::Table t({"remote-lat", "ratio", "Base(Mcyc)", "Distr+Aff(Mcyc)",
                 "affinity-benefit%"});
  for (std::uint32_t remote : {30u, 60u, 120u, 240u, 480u}) {
    auto run_one = [&](Variant v) {
      Config c = cfg;
      c.variant = v;
      SystemConfig sc;
      sc.machine = topo::MachineConfig::dash(procs);
      sc.machine.lat.remote_mem = remote;
      sc.machine.lat.remote_cache = remote + 12;
      sc.policy = policy_for(v);
      Runtime rt(sc);
      return run(rt, c).run.sim_cycles;
    };
    const auto base = run_one(Variant::kBase);
    const auto aff = run_one(Variant::kDistr);
    t.row()
        .cell(static_cast<std::uint64_t>(remote))
        .cell(static_cast<double>(remote) / 30.0, 1)
        .cell(static_cast<double>(base) / 1e6, 2)
        .cell(static_cast<double>(aff) / 1e6, 2)
        .cell(bench::improvement_pct(base, aff), 0);
  }
  rep.table(t);
  return rep.finish();
}
