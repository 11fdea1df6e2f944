// Ablation — the online adaptive locality runtime (--adapt).
//
// Headline experiment for src/adaptive: on gauss and ocean, compare
//   hinted     the paper's hand-tuned version (affinity hints + explicit
//              data distribution in the source),
//   unhinted   the same program with the hand tuning stripped (everything
//              homed on processor 0, no TASK hints / no distribute() call),
//   unhinted+adapt   the unhinted program under --adapt: the engine watches
//              the profiler online, rehomes the hot arrays, promotes tasks
//              to TASK affinity and opens up stealing — with zero source
//              changes.
//
// The shape metrics report what fraction of the hand-tuning speedup the
// adaptive runtime recovers automatically:
//   recovered = (unhinted - adapted) / (unhinted - hinted).
#include <climits>
#include <cstdio>

#include "apps/gauss/gauss.hpp"
#include "apps/ocean/ocean.hpp"
#include "bench_common.hpp"

using namespace cool;

namespace {

/// Runtime with the adaptive engine attached unconditionally (this bench's
/// point), honouring an explicit --adapt=<policy.json> override if given.
Runtime make_adapt_runtime(std::uint32_t procs, const sched::Policy& policy,
                           const util::Options& opt) {
  SystemConfig sc;
  sc.machine = topo::MachineConfig::dash(procs);
  sc.policy = policy;
  sc.adapt = true;
  const std::string& pol_path = opt.get_string("adapt");
  if (!pol_path.empty()) {
    sc.adapt_policy = adaptive::load_adapt_policy(pol_path);
  }
  return Runtime(sc);
}

double recovered_frac(std::uint64_t unhinted, std::uint64_t hinted,
                      std::uint64_t adapted) {
  const auto gap = static_cast<double>(unhinted) - static_cast<double>(hinted);
  if (gap <= 0.0) return 0.0;
  return (static_cast<double>(unhinted) - static_cast<double>(adapted)) / gap;
}

void add_row(util::Table& t, const char* app, const char* version,
             const apps::RunResult& r, std::uint64_t decisions) {
  t.row()
      .cell(app)
      .cell(version)
      .cell(apps::mcycles(r.sim_cycles), 2)
      .cell(100.0 * apps::local_fraction(r.mem), 1)
      .cell(r.sched.tasks_stolen)
      .cell(decisions);
}

}  // namespace

int main(int argc, char** argv) {
  auto opt = bench::standard_options(
      "abl_adaptive",
      "Online adaptation (--adapt) vs hand-hinted vs unhinted");
  opt.add_int("n", 64, "gauss matrix dimension", 2, INT_MAX);
  opt.add_int("ocean-n", 64, "ocean grid dimension", 8, INT_MAX);
  opt.add_int("grids", 2, "ocean state grids", 1, INT_MAX);
  opt.add_int("steps", 6, "ocean timesteps", 1, INT_MAX);
  opt.add_flag("quick", "smaller problems for smoke testing");
  if (!opt.parse(argc, argv)) return 0;

  const auto procs = static_cast<std::uint32_t>(opt.get_int("procs"));
  const bool quick = opt.flag("quick");

  apps::gauss::Config gcfg;
  gcfg.n = quick ? 48 : static_cast<int>(opt.get_int("n"));
  // Quick mode shrinks ocean via timesteps, not grid size: below n=64 a
  // grid is fewer pages than processors and page-granularity distribution
  // (hand or adaptive) cannot spread one strip per processor.
  apps::ocean::Config ocfg;
  ocfg.n = static_cast<int>(opt.get_int("ocean-n"));
  ocfg.grids = static_cast<int>(opt.get_int("grids"));
  ocfg.steps = quick ? 3 : static_cast<int>(opt.get_int("steps"));

  bench::Report rep(opt);
  std::printf("# Adaptive runtime ablation, P=%u (gauss n=%d, ocean n=%d)\n",
              procs, gcfg.n, ocfg.n);
  util::Table t({"app", "version", "cycles(M)", "local-miss%", "stolen",
                 "decisions"});

  // --- gauss: hand hints are TASK+OBJECT affinity + column distribution ----
  std::uint64_t g_hint = 0, g_plain = 0, g_adapt = 0, g_dec = 0;
  {
    apps::gauss::Config c = gcfg;
    c.variant = apps::gauss::Variant::kTaskObject;
    c.distribute = true;
    Runtime rt = bench::make_runtime(
        procs, apps::gauss::policy_for(c.variant));
    const auto r = apps::gauss::run(rt, c);
    g_hint = r.run.sim_cycles;
    add_row(t, "gauss", "hinted", r.run, 0);
  }
  {
    apps::gauss::Config c = gcfg;
    c.variant = apps::gauss::Variant::kObjectOnly;
    c.distribute = false;
    Runtime rt = bench::make_runtime(
        procs, apps::gauss::policy_for(c.variant));
    const auto r = apps::gauss::run(rt, c);
    g_plain = r.run.sim_cycles;
    add_row(t, "gauss", "unhinted", r.run, 0);
  }
  {
    apps::gauss::Config c = gcfg;
    c.variant = apps::gauss::Variant::kObjectOnly;
    c.distribute = false;
    Runtime rt = make_adapt_runtime(
        procs, apps::gauss::policy_for(c.variant), opt);
    const auto r = apps::gauss::run(rt, c);
    g_adapt = r.run.sim_cycles;
    g_dec = rt.adaptive_engine()->log().size();
    add_row(t, "gauss", "unhinted+adapt", r.run, g_dec);
    rep.obs_from(r.run);
    rep.adaptation_from(rt);  // gauss's log is the record's adaptation block
  }

  // --- ocean: the hand tuning is the Figure 5 distribute() step -----------
  std::uint64_t o_hint = 0, o_plain = 0, o_adapt = 0, o_dec = 0;
  {
    apps::ocean::Config c = ocfg;
    c.variant = apps::ocean::Variant::kDistr;
    Runtime rt = bench::make_runtime(
        procs, apps::ocean::policy_for(c.variant));
    const auto r = apps::ocean::run(rt, c);
    o_hint = r.run.sim_cycles;
    add_row(t, "ocean", "hinted", r.run, 0);
  }
  {
    apps::ocean::Config c = ocfg;
    c.variant = apps::ocean::Variant::kAffOnly;
    Runtime rt = bench::make_runtime(
        procs, apps::ocean::policy_for(c.variant));
    const auto r = apps::ocean::run(rt, c);
    o_plain = r.run.sim_cycles;
    add_row(t, "ocean", "unhinted", r.run, 0);
  }
  {
    apps::ocean::Config c = ocfg;
    c.variant = apps::ocean::Variant::kAffOnly;
    Runtime rt = make_adapt_runtime(
        procs, apps::ocean::policy_for(c.variant), opt);
    const auto r = apps::ocean::run(rt, c);
    o_adapt = r.run.sim_cycles;
    o_dec = rt.adaptive_engine()->log().size();
    add_row(t, "ocean", "unhinted+adapt", r.run, o_dec);
  }

  rep.table(t);
  const double g_rec = recovered_frac(g_plain, g_hint, g_adapt);
  const double o_rec = recovered_frac(o_plain, o_hint, o_adapt);
  std::printf(
      "\nshape: adapt recovers %.0f%% of the gauss hand-hint speedup, "
      "%.0f%% of ocean's (%llu + %llu decisions)\n",
      100.0 * g_rec, 100.0 * o_rec,
      static_cast<unsigned long long>(g_dec),
      static_cast<unsigned long long>(o_dec));
  rep.shape("gauss_recovered_frac", g_rec);
  rep.shape("ocean_recovered_frac", o_rec);
  rep.shape("gauss_decisions", static_cast<double>(g_dec));
  rep.shape("ocean_decisions", static_cast<double>(o_dec));
  return rep.finish();
}
