// Ablation — balancer policies (hierarchical sched::Balancer, PR 6).
//
// Gauss and ocean in their undistributed configurations (every column/grid
// homed on processor 0's memory — the degenerate layout the paper's
// distribute() step exists to avoid) under the three balancer policies:
//
//   stealing   the default: idle processors probe victims try-lock, exactly
//              the flat scan the scheduler always had. Work spreads machine-
//              wide, so most of it lands in remote clusters.
//   average    periodic queue-length equalisation: an idle processor's
//              balancer drains over-average queues toward it in one grab
//              (kMoveTasks) instead of one task per probe.
//   reserve    hotness-directed placement: the profiler's per-object heat
//              names the cluster homing the hot pages; the balancer pre-
//              places OBJECT/TASK-affinity work on that cluster's least-
//              loaded member and reserves it against cross-cluster theft.
//
// The shape metrics record the locality story the paper's §6.3 cluster
// experiment tells: reserve keeps the misses in the data's home cluster
// (local_frac up vs flat stealing) because work never leaves it.
#include <climits>
#include <cstdio>

#include "apps/gauss/gauss.hpp"
#include "apps/ocean/ocean.hpp"
#include "bench_common.hpp"

using namespace cool;

namespace {

/// Runtime for one ablation row. The reserve rows attach the profiler (its
/// heat attribution is the balancer's sensor; validate_policy requires it);
/// profiling is passive, so simulated cycles stay comparable across rows.
Runtime make_row_runtime(std::uint32_t procs, const sched::Policy& pol,
                         const util::Options* headline = nullptr) {
  SystemConfig sc;
  sc.machine = topo::MachineConfig::dash(procs);
  sc.policy = pol;
  sc.profile = pol.balancer == sched::BalancerKind::kReserve;
  // The headline row (ocean under reserve) honours --race-check so
  // cool-check covers the reserve/move paths like any figure bench.
  if (headline != nullptr) sc.race_check = headline->flag("race-check");
  return Runtime(sc);
}

sched::Policy with_balancer(sched::Policy base, sched::BalancerKind kind) {
  base.balancer = kind;
  if (kind == sched::BalancerKind::kReserve) {
    // Refresh the hotness cache often enough that the heat observed in the
    // first grid sweep / first columns steers the rest of a small run.
    base.reserve_refresh_tasks = 16;
  }
  return base;
}

void add_row(util::Table& t, const char* app, const char* policy,
             const apps::RunResult& r) {
  t.row()
      .cell(app)
      .cell(policy)
      .cell(apps::mcycles(r.sim_cycles), 2)
      .cell(100.0 * apps::local_fraction(r.mem), 1)
      .cell(r.sched.steals)
      .cell(r.sched.balance_moves)
      .cell(r.sched.reserve_hits);
}

constexpr sched::BalancerKind kKinds[] = {sched::BalancerKind::kStealing,
                                          sched::BalancerKind::kAverage,
                                          sched::BalancerKind::kReserve};

}  // namespace

int main(int argc, char** argv) {
  auto opt = bench::standard_options(
      "abl_balancer",
      "Balancer-policy ablation (stealing vs average vs reserve)");
  opt.add_int("n", 96, "gauss matrix dimension", 2, INT_MAX);
  opt.add_int("ocean-n", 64, "ocean grid dimension", 8, INT_MAX);
  opt.add_int("grids", 4, "ocean state grids", 1, INT_MAX);
  opt.add_int("steps", 4, "ocean timesteps", 1, INT_MAX);
  opt.add_flag("quick", "smaller problems for smoke testing");
  if (!opt.parse(argc, argv)) return 0;

  const auto procs = static_cast<std::uint32_t>(opt.get_int("procs"));
  const bool quick = opt.flag("quick");

  apps::gauss::Config gcfg;
  gcfg.n = quick ? 48 : static_cast<int>(opt.get_int("n"));
  gcfg.variant = apps::gauss::Variant::kObjectOnly;
  gcfg.distribute = false;  // All columns on processor 0's memory.
  apps::ocean::Config ocfg;
  ocfg.n = static_cast<int>(opt.get_int("ocean-n"));
  ocfg.grids = quick ? 2 : static_cast<int>(opt.get_int("grids"));
  ocfg.steps = quick ? 2 : static_cast<int>(opt.get_int("steps"));
  ocfg.variant = apps::ocean::Variant::kAffOnly;  // No distribute() step.

  bench::Report rep(opt);
  std::printf(
      "# Balancer ablation, P=%u (gauss n=%d undistributed, ocean n=%d "
      "undistributed)\n",
      procs, gcfg.n, ocfg.n);
  util::Table t({"app", "balancer", "cycles(M)", "local-miss%", "steals",
                 "moved", "reserved"});

  // Both apps run with OBJECT tasks stealable: the undistributed layouts
  // pile every task on processor 0, and the default steal-exemption would
  // leave the stealing/average rows serialised there — the ablation compares
  // *how* work spreads, so it must be allowed to spread in every row.
  std::uint64_t o_cycles[3] = {0, 0, 0};
  double o_local[3] = {0, 0, 0};
  std::uint64_t o_reserved = 0;
  for (int k = 0; k < 3; ++k) {
    sched::Policy pol = with_balancer(
        apps::ocean::policy_for(ocfg.variant), kKinds[k]);
    pol.steal_object_tasks = true;
    const bool headline = kKinds[k] == sched::BalancerKind::kReserve;
    Runtime rt = make_row_runtime(procs, pol, headline ? &opt : nullptr);
    const auto r = apps::ocean::run(rt, ocfg);
    o_cycles[k] = r.run.sim_cycles;
    o_local[k] = apps::local_fraction(r.run.mem);
    add_row(t, "ocean", sched::balancer_kind_name(kKinds[k]), r.run);
    if (headline) {
      o_reserved = r.run.sched.reserve_hits;
      rep.obs_from(r.run);  // Carries the sched.balance.* counters.
      rep.race_from(rt);    // --race-check verdict for the reserve path.
    }
  }

  std::uint64_t g_cycles[3] = {0, 0, 0};
  double g_local[3] = {0, 0, 0};
  std::uint64_t g_reserved = 0;
  for (int k = 0; k < 3; ++k) {
    sched::Policy pol = with_balancer(
        apps::gauss::policy_for(gcfg.variant), kKinds[k]);
    pol.steal_object_tasks = true;
    Runtime rt = make_row_runtime(procs, pol);
    const auto r = apps::gauss::run(rt, gcfg);
    g_cycles[k] = r.run.sim_cycles;
    g_local[k] = apps::local_fraction(r.run.mem);
    add_row(t, "gauss", sched::balancer_kind_name(kKinds[k]), r.run);
    if (kKinds[k] == sched::BalancerKind::kReserve) {
      g_reserved = r.run.sched.reserve_hits;
    }
  }

  rep.table(t);
  std::printf(
      "\nshape: reserve services %.0f%% of ocean misses locally vs %.0f%% "
      "under flat stealing (%llu reservations); gauss %.0f%% vs %.0f%% "
      "(%llu)\n",
      100.0 * o_local[2], 100.0 * o_local[0],
      static_cast<unsigned long long>(o_reserved), 100.0 * g_local[2],
      100.0 * g_local[0], static_cast<unsigned long long>(g_reserved));
  rep.shape("ocean_stealing_local_frac", o_local[0]);
  rep.shape("ocean_average_local_frac", o_local[1]);
  rep.shape("ocean_reserve_local_frac", o_local[2]);
  rep.shape("gauss_stealing_local_frac", g_local[0]);
  rep.shape("gauss_reserve_local_frac", g_local[2]);
  rep.shape("ocean_reserve_decisions", static_cast<double>(o_reserved));
  rep.shape("gauss_reserve_decisions", static_cast<double>(g_reserved));
  rep.shape("ocean_reserve_over_stealing_pct",
            bench::improvement_pct(o_cycles[0], o_cycles[2]));
  rep.shape("gauss_reserve_over_stealing_pct",
            bench::improvement_pct(g_cycles[0], g_cycles[2]));
  return rep.finish();
}
