// abl_srv_skew — Zipf hot-warehouse skew vs balancer policy for the txn
// serving workload.
//
// Every district is homed on its warehouse's processor and requests carry
// OBJECT affinity on the district's stock, so Zipf skew over warehouses is
// processor skew: at theta=0 requests spread evenly, at high theta the rank-0
// warehouse's home processor takes a disproportionate share while the steal
// exemption for OBJECT-affinity tasks keeps its backlog pinned there. The
// ablation serves the same near-saturation open-loop trace under each
// balancer:
//
//   stealing   the default flat scan — cannot touch the pinned backlog, so
//              tail latency explodes with theta;
//   average    queue-length equalisation (its moves ignore affinity pins),
//              which drains the hot queue at the price of locality;
//   reserve    hotness-directed placement inside the data's home cluster;
//   steal+adapt  stealing plus the adaptive runtime's latency objective
//              (AdaptPolicy::latency_target_cycles): when the epoch p99
//              overshoots the target it switches the balancer to Average
//              (gentle, targeted moves), and only after a full balancer
//              dwell escalates to pin-break stealing if that is not enough.
//
// The adapt row's target is derived from the measured uniform-load p99, so
// the bench asks the runtime to recover the no-skew tail, not a magic number.
#include <climits>
#include <cstdio>

#include "apps/txn/txn.hpp"
#include "bench_common.hpp"

using namespace cool;

namespace {

constexpr double kThetas[] = {0.0, 0.6, 0.9, 1.2};
constexpr double kQuickThetas[] = {0.0, 1.2};

constexpr sched::BalancerKind kKinds[] = {sched::BalancerKind::kStealing,
                                          sched::BalancerKind::kAverage,
                                          sched::BalancerKind::kReserve};

/// Runtime for one grid row. Reserve needs the profiler (its heat feed;
/// validate_policy refuses kReserve without it); profiling is passive, so
/// the rows stay cycle-comparable.
Runtime make_row_runtime(std::uint32_t procs, const sched::Policy& pol) {
  SystemConfig sc;
  sc.machine = topo::MachineConfig::dash(procs);
  sc.policy = pol;
  sc.profile = pol.balancer == sched::BalancerKind::kReserve;
  return Runtime(sc);
}

sched::Policy with_balancer(sched::Policy base, sched::BalancerKind kind) {
  base.balancer = kind;
  return base;
}

void add_row(util::Table& t, double theta, const char* policy,
             const apps::txn::Result& r) {
  t.row()
      .cell(theta, 2)
      .cell(policy)
      .cell(static_cast<double>(r.latency.quantile(0.5)) / 1e3, 3)
      .cell(static_cast<double>(r.latency.quantile(0.99)) / 1e3, 3)
      .cell(r.served_ratio(), 3)
      .cell(100.0 * apps::local_fraction(r.run.mem), 1)
      .cell(r.run.sched.steals)
      .cell(r.run.sched.balance_moves)
      .cell(100.0 * static_cast<double>(r.hot_requests) /
                static_cast<double>(r.ledger.completed),
            1);
}

}  // namespace

int main(int argc, char** argv) {
  auto opt = bench::standard_options(
      "abl_srv_skew",
      "Zipf-skew x balancer ablation for open-loop txn serving");
  opt.add_int("warehouses", 14,
              "warehouses (Zipf population; default is a multiple of the "
              "7 serving processors at --procs=8, so theta=0 is uniform)",
              1, INT_MAX);
  opt.add_int("districts", 4, "districts per warehouse", 1, INT_MAX);
  opt.add_int("items", 64, "stock slots per district", 1, INT_MAX);
  opt.add_int("lines", 4, "order lines per request", 1, INT_MAX);
  opt.add_int("requests", 1536, "requests per grid cell",
              1, std::numeric_limits<std::uint32_t>::max());
  opt.add_int("think", 200, "compute cycles per request", 0);
  opt.add_double("load-frac", 0.8,
                 "offered load as a fraction of probed uniform capacity");
  opt.add_double("warmup-frac", 0.4,
                 "fraction of the trace excluded from measured latency "
                 "(TPC-style ramp: covers queue build-up and, in the adapt "
                 "row, the detection + escalation transient)");
  opt.add_flag("quick", "smaller trace and fewer skew points");
  if (!opt.parse(argc, argv)) return 0;

  const auto procs = static_cast<std::uint32_t>(opt.get_int("procs"));
  const bool quick = opt.flag("quick");

  apps::txn::Config cfg;
  cfg.warehouses = quick ? 7 : static_cast<int>(opt.get_int("warehouses"));
  cfg.districts = static_cast<int>(opt.get_int("districts"));
  cfg.items = static_cast<int>(opt.get_int("items"));
  cfg.lines = static_cast<int>(opt.get_int("lines"));
  cfg.think_cycles = static_cast<std::uint64_t>(opt.get_int("think"));
  cfg.arrivals.n_requests =
      quick ? 512 : static_cast<std::uint32_t>(opt.get_int("requests"));

  // Uniform-load capacity probe (theta=0, batch arrivals, default balancer):
  // the sweep's offered rate is a fixed fraction of this, so the skewed
  // cells overload only through skew, not through the rate choice.
  apps::txn::Config probe = cfg;
  probe.theta = 0.0;
  probe.arrivals.rate_per_kcycle = 1e6;
  double capacity = 0.0;
  {
    Runtime rt = bench::make_runtime(procs, apps::txn::policy_for(probe));
    const apps::txn::Result r = apps::txn::run(rt, probe);
    capacity = r.run.sim_cycles > 0
                   ? 1000.0 * static_cast<double>(cfg.arrivals.n_requests) /
                         static_cast<double>(r.run.sim_cycles)
                   : 0.0;
  }
  cfg.arrivals.rate_per_kcycle = opt.get_double("load-frac") * capacity;
  // Every row (adaptive or not) is measured on the same interval: requests
  // arriving in the first warmup-frac of the trace are served and counted
  // for throughput, but excluded from the latency percentiles.
  cfg.measure_from_cycles = static_cast<std::uint64_t>(
      opt.get_double("warmup-frac") * 1000.0 *
      static_cast<double>(cfg.arrivals.n_requests) /
      cfg.arrivals.rate_per_kcycle);

  const double* thetas = quick ? kQuickThetas : kThetas;
  const std::size_t n_thetas = quick
                                   ? sizeof kQuickThetas / sizeof kQuickThetas[0]
                                   : sizeof kThetas / sizeof kThetas[0];
  const double hot_theta = thetas[n_thetas - 1];

  bench::Report rep(opt);
  std::printf(
      "# txn skew ablation, P=%u (W=%d D=%d, %llu req/cell, %.2fx capacity "
      "= %.3f req/kcycle)\n",
      procs, cfg.warehouses, cfg.districts,
      static_cast<unsigned long long>(cfg.arrivals.n_requests),
      opt.get_double("load-frac"), cfg.arrivals.rate_per_kcycle);
  util::Table t({"theta", "balancer", "p50(kcyc)", "p99(kcyc)", "ratio",
                 "local-miss%", "steals", "moved", "hot%"});

  double p99_uniform = 0.0;    // theta=0 under stealing.
  double p99_hot[3] = {0, 0, 0};  // hot theta per balancer.
  for (std::size_t ti = 0; ti < n_thetas; ++ti) {
    for (int k = 0; k < 3; ++k) {
      apps::txn::Config cell = cfg;
      cell.theta = thetas[ti];
      const sched::Policy pol =
          with_balancer(apps::txn::policy_for(cell), kKinds[k]);
      Runtime rt = make_row_runtime(procs, pol);
      const apps::txn::Result r = apps::txn::run(rt, cell);
      add_row(t, cell.theta, sched::balancer_kind_name(kKinds[k]), r);
      const double p99 = static_cast<double>(r.latency.quantile(0.99));
      if (cell.theta == 0.0 && kKinds[k] == sched::BalancerKind::kStealing) {
        p99_uniform = p99;
      }
      if (cell.theta == hot_theta) p99_hot[k] = p99;
    }
  }

  // The adaptation row: default stealing balancer, latency objective armed
  // with a target of twice the uniform-load p99 — "get the tail back to the
  // no-skew regime". This is the headline row (obs + decision log + flags).
  const std::uint64_t target =
      static_cast<std::uint64_t>(2.0 * p99_uniform) + 1;
  double p99_adapt = 0.0;
  std::uint64_t decisions = 0;
  {
    apps::txn::Config cell = cfg;
    cell.theta = hot_theta;
    SystemConfig sc;
    sc.machine = topo::MachineConfig::dash(procs);
    sc.policy = with_balancer(apps::txn::policy_for(cell),
                              sched::BalancerKind::kStealing);
    sc.race_check = opt.flag("race-check");
    sc.req_trace = opt.given("req-trace");
    sc.adapt = true;
    const std::string& pol_path = opt.get_string("adapt");
    if (!pol_path.empty()) {
      sc.adapt_policy = adaptive::load_adapt_policy(pol_path);
    }
    sc.adapt_policy.enable_balancer = true;  // Allow the rung-2 escalation.
    sc.adapt_policy.latency_target_cycles = target;
    Runtime rt(sc);
    const apps::txn::Result r = apps::txn::run(rt, cell);
    add_row(t, cell.theta, "steal+adapt", r);
    p99_adapt = static_cast<double>(r.latency.quantile(0.99));
    decisions = rt.adaptive_engine() != nullptr
                    ? rt.adaptive_engine()->log().size()
                    : 0;
    rep.obs_from(r.run);
    rep.profile_from(rt);  // Decision log + race verdict + opt-in profile.
  }

  // Placement-blind rows: hints off, so requests carry no affinity (the
  // pump's own PROCESSOR pin stays honored) and spread by stealing — little
  // *queueing* skew, but the hot warehouse's pages are remote to almost
  // every server, so the tail is built from memory stall. The blind+adapt
  // row arms the same latency objective *with the request-trace
  // decomposition sensor*: the engine diagnoses the overshoot as
  // memory-stall-dominated and routes to the migration actuators (rehome
  // the data) instead of the balancer ladder (move the requests).
  double p99_blind = 0.0;
  double p99_blind_adapt = 0.0;
  double blind_first_migration = 0.0;
  std::uint64_t blind_rehomes = 0;
  std::vector<adaptive::Decision> blind_log;
  {
    apps::txn::Config cell = cfg;
    cell.theta = hot_theta;
    cell.hints = false;
    // Heavier transactions at a light offered rate: with 4x the order lines
    // and ~1/4 the arrival rate, queueing is transient (stealing drains the
    // front-end queue into mostly-idle servers) while every line touches
    // remote stock — the tail is service time, built from memory stall.
    cell.lines = cfg.lines * 4;
    cell.arrivals.rate_per_kcycle = 0.2 * capacity;
    cell.measure_from_cycles = static_cast<std::uint64_t>(
        opt.get_double("warmup-frac") * 1000.0 *
        static_cast<double>(cell.arrivals.n_requests) /
        cell.arrivals.rate_per_kcycle);
    // Same recover-the-no-skew-tail target as the steal+adapt row: the
    // initial placement-blind tail (remote-stall service time) overshoots
    // it, the decomposition sensor diagnoses memory dominance, and once the
    // rehome wave brings the tail back under target the escalation stands
    // down — an achievable target bounds the churn.
    const std::uint64_t blind_target = target;
    sched::Policy pol = with_balancer(apps::txn::policy_for(cell),
                                      sched::BalancerKind::kStealing);
    pol.honor_affinity = true;  // For the pump's pin; requests are hint-free.
    {
      Runtime rt = bench::make_runtime(procs, pol);
      const apps::txn::Result r = apps::txn::run(rt, cell);
      add_row(t, cell.theta, "blind", r);
      p99_blind = static_cast<double>(r.latency.quantile(0.99));
    }
    {
      SystemConfig sc;
      sc.machine = topo::MachineConfig::dash(procs);
      sc.policy = pol;
      sc.adapt = true;
      const std::string& pol_path = opt.get_string("adapt");
      if (!pol_path.empty()) {
        sc.adapt_policy = adaptive::load_adapt_policy(pol_path);
      }
      sc.adapt_policy.enable_balancer = true;  // Ladder available, bypassed.
      sc.adapt_policy.latency_target_cycles = blind_target;
      // Pace the rehome wave: each migration charges cycles to a serving
      // processor and invalidates the object's cached lines, so a burst of
      // them mid-traffic *creates* the queueing spike it then reacts to.
      sc.adapt_policy.max_actions_per_epoch = 2;
      sc.req_trace = true;  // The decomposition sensor drives the routing.
      Runtime rt(sc);
      const apps::txn::Result r = apps::txn::run(rt, cell);
      add_row(t, cell.theta, "blind+adapt", r);
      p99_blind_adapt = static_cast<double>(r.latency.quantile(0.99));
      const adaptive::AdaptiveEngine* ae = rt.adaptive_engine();
      if (ae != nullptr) {
        blind_log = ae->log();
        for (const adaptive::Decision& d : blind_log) {
          if (d.rule == obs::AdviceKind::kMigrateObject ||
              d.rule == obs::AdviceKind::kDistributeObject) {
            ++blind_rehomes;
          }
        }
        if (!blind_log.empty()) {
          const adaptive::Decision& d0 = blind_log.front();
          const bool mig = d0.rule == obs::AdviceKind::kMigrateObject ||
                           d0.rule == obs::AdviceKind::kDistributeObject ||
                           d0.action.rfind("escalate=migrate", 0) == 0;
          blind_first_migration = mig ? 1.0 : 0.0;
        }
      }
    }
  }

  rep.table(t);
  // Fraction of the skew-induced p99 inflation the adaptation clawed back
  // (1 = all the way back to the uniform tail, 0 = no better than plain
  // stealing under skew).
  double recovered = 0.0;
  if (p99_hot[0] > p99_uniform) {
    recovered = (p99_hot[0] - p99_adapt) / (p99_hot[0] - p99_uniform);
    if (recovered < 0.0) recovered = 0.0;
    if (recovered > 1.0) recovered = 1.0;
  }
  std::printf(
      "\nshape: at theta=%.2f p99 is %.2f kcyc under stealing vs %.2f "
      "average, %.2f reserve; steal+adapt (target %.2f kcyc) reaches %.2f "
      "kcyc — %.0f%% of the skew penalty recovered (%llu decisions)\n",
      hot_theta, p99_hot[0] / 1e3, p99_hot[1] / 1e3, p99_hot[2] / 1e3,
      static_cast<double>(target) / 1e3, p99_adapt / 1e3, 100.0 * recovered,
      static_cast<unsigned long long>(decisions));
  std::printf(
      "shape: placement-blind p99 %.2f kcyc; blind+adapt %.2f kcyc via "
      "%llu rehomes (first decision %s)\n",
      p99_blind / 1e3, p99_blind_adapt / 1e3,
      static_cast<unsigned long long>(blind_rehomes),
      blind_first_migration != 0.0 ? "migration" : "balancer-ladder");
  if (!blind_log.empty()) {
    std::printf("\n== blind+adapt decisions (%zu) ==\n", blind_log.size());
    for (const adaptive::Decision& d : blind_log) {
      std::printf("  epoch %llu @%llu [%s] %s: %s\n",
                  static_cast<unsigned long long>(d.epoch),
                  static_cast<unsigned long long>(d.cycle),
                  obs::advice_kind_name(d.rule), d.subject.c_str(),
                  d.action.c_str());
    }
  }
  rep.shape("p99_uniform", p99_uniform);
  rep.shape("p99_hot_stealing", p99_hot[0]);
  rep.shape("p99_hot_average", p99_hot[1]);
  rep.shape("p99_hot_reserve", p99_hot[2]);
  rep.shape("p99_hot_adapt", p99_adapt);
  rep.shape("adapt_recovered_frac", recovered);
  rep.shape("p99_blind", p99_blind);
  rep.shape("p99_blind_adapt", p99_blind_adapt);
  rep.shape("blind_first_decision_migration", blind_first_migration);
  rep.shape("blind_rehomes", static_cast<double>(blind_rehomes));
  return rep.finish();
}
