// N-body — the paper's Barnes-Hut scenario (§6.4) as an application: run a
// short gravitational simulation and compare locality-blind scheduling with
// distributed body blocks + OBJECT affinity.
//
//   $ ./nbody [--procs=32] [--bodies=4096] [--steps=2]
#include <cstdio>

#include "apps/barneshut/barneshut.hpp"
#include "common/options.hpp"
#include "common/table.hpp"

using namespace cool;
using namespace cool::apps::barneshut;

int main(int argc, char** argv) {
  util::Options opt("nbody", "Barnes-Hut N-body with body-block affinity");
  opt.add_int("procs", 32, "simulated processors", 1, UINT32_MAX);
  opt.add_int("bodies", 4096, "number of bodies");
  opt.add_int("steps", 2, "timesteps");
  if (!opt.parse(argc, argv)) return 0;

  const auto procs = static_cast<std::uint32_t>(opt.get_int("procs"));
  Config cfg;
  cfg.n_bodies = static_cast<int>(opt.get_int("bodies"));
  cfg.steps = static_cast<int>(opt.get_int("steps"));

  std::printf("%d bodies, theta=%.2f, %d steps, %u processors\n\n",
              cfg.n_bodies, cfg.theta, cfg.steps, procs);

  util::Table t({"strategy", "cycles(M)", "force-err%", "kinetic-energy",
                 "local-miss%"});
  for (Variant v : {Variant::kBase, Variant::kDistrAff}) {
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
        .cell(100.0 * r.max_force_error, 2)
        .cell(r.energy, 6)
        .cell(r.run.mem.misses()
                  ? 100.0 * static_cast<double>(r.run.mem.local_misses()) /
                        static_cast<double>(r.run.mem.misses())
                  : 0.0,
              1);
  }
  t.print();
  std::printf(
      "\nforce-err%% is the worst-case tree-force error against direct\n"
      "summation on sampled bodies (the theta=%.2f approximation bound).\n",
      cfg.theta);
  return 0;
}
