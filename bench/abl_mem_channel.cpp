// abl_mem_channel — offered load x memory backend x balancer for the skewed
// txn serving workload: the bandwidth hockey stick the flat model hides.
//
// The paper's fixed-latency memory model (FlatBackend) charges every fill a
// distance cost plus a single per-cluster occupancy charge, so doubling the
// offered load roughly doubles queueing at the *processors* but the memory
// system itself never saturates. The contended DDR backend models N channels
// x B banks per cluster with open-row timing and bounded FR-FCFS queues, so
// a Zipf-skewed request mix drives the hot cluster's channel to saturation:
// past the knee, fills queue behind bandwidth and the tail diverges from the
// flat model's prediction. The grid serves the same skewed open-loop trace at
// increasing fractions of probed capacity under each backend x balancer:
//
//   flat       the paper model — tails grow smoothly with load;
//   ddr        the contended model (1 channel/cluster, slow burst) — the
//              median tracks flat at low load, but the tail convoys on the
//              hot channel and hockey-sticks as it saturates;
//   stealing   default flat steal scan;
//   reserve    hotness-directed placement — *concentrates* the hot data's
//              fills, so the locality optimum is the bandwidth pessimum.
//
// The headline row arms the adaptive latency objective on the worst cell
// (ddr, placement-blind, memory-heavy requests): the decomposition sensor
// diagnoses a memory-stall-dominated overshoot AND the channel gauges show
// the hot channel saturated, so the engine routes to the bandwidth
// escalation ("escalate=distribute") instead of the migrate gate — spreading
// pages across channels is the only actuator that relieves a saturated
// channel.
#include <algorithm>
#include <climits>
#include <cstdio>
#include <string>
#include <vector>

#include "apps/txn/txn.hpp"
#include "bench_common.hpp"

using namespace cool;

namespace {

constexpr double kLoads[] = {0.5, 0.8, 1.1};
constexpr double kQuickLoads[] = {0.5, 0.9};

constexpr sched::BalancerKind kKinds[] = {sched::BalancerKind::kStealing,
                                          sched::BalancerKind::kReserve};

/// The contended configuration: one channel per cluster and a slow burst, so
/// the per-fill service time is ~2x the flat model's occupancy charge and a
/// skewed mix saturates the hot cluster's single channel well inside the
/// bench's load range. Banks/row timing keep the open-row dynamics (hits vs
/// conflicts) visible in the gauges.
mem::ChannelConfig contended_ddr() {
  mem::ChannelConfig cfg;
  cfg.kind = mem::ChannelConfig::Kind::kDdr;
  cfg.channels_per_cluster = 1;
  cfg.banks_per_channel = 4;
  cfg.queue_depth = 8;
  cfg.row_bytes = 1024;
  cfg.timing.t_burst = 48;
  return cfg;
}

/// Runtime for one grid cell. Reserve needs the profiler (its heat feed);
/// profiling is passive, so the rows stay cycle-comparable.
Runtime make_cell_runtime(std::uint32_t procs, const sched::Policy& pol,
                          const mem::ChannelConfig& chan) {
  SystemConfig sc;
  sc.machine = topo::MachineConfig::dash(procs);
  sc.policy = pol;
  sc.mem_channel = chan;
  sc.profile = pol.balancer == sched::BalancerKind::kReserve;
  return Runtime(sc);
}

sched::Policy with_balancer(sched::Policy base, sched::BalancerKind kind) {
  base.balancer = kind;
  return base;
}

/// Channel-gauge digest of one finished run (all zero under FlatBackend,
/// which reports no channels).
struct ChanView {
  double peak_busy = 0.0;  ///< Hottest channel's busy share of sim time.
  double row_hit = 0.0;    ///< Row hits / all row outcomes.
  std::uint64_t queue_full = 0;
};

ChanView chan_view(const Runtime& rt) {
  const obs::advisor::Signals s = rt.advisor_signals();
  ChanView v;
  if (s.span == 0 || s.chan_busy.empty()) return v;
  const std::uint64_t peak =
      *std::max_element(s.chan_busy.begin(), s.chan_busy.end());
  v.peak_busy = static_cast<double>(peak) / static_cast<double>(s.span);
  const std::uint64_t outcomes =
      s.chan_row_hits + s.chan_row_misses + s.chan_row_conflicts;
  if (outcomes > 0) {
    v.row_hit =
        static_cast<double>(s.chan_row_hits) / static_cast<double>(outcomes);
  }
  v.queue_full = s.chan_queue_full_stalls;
  return v;
}

void add_row(util::Table& t, double load, const char* backend,
             const char* policy, const apps::txn::Result& r,
             const ChanView& v) {
  t.row()
      .cell(load, 2)
      .cell(backend)
      .cell(policy)
      .cell(static_cast<double>(r.latency.quantile(0.5)) / 1e3, 3)
      .cell(static_cast<double>(r.latency.quantile(0.99)) / 1e3, 3)
      .cell(r.served_ratio(), 3)
      .cell(100.0 * v.peak_busy, 1)
      .cell(100.0 * v.row_hit, 1)
      .cell(v.queue_full);
}

}  // namespace

int main(int argc, char** argv) {
  auto opt = bench::standard_options(
      "abl_mem_channel",
      "offered load x memory backend x balancer: the bandwidth hockey stick "
      "the flat memory model hides");
  opt.add_int("warehouses", 14, "warehouses (Zipf population)", 1, INT_MAX);
  opt.add_int("districts", 4, "districts per warehouse", 1, INT_MAX);
  opt.add_int("items", 64, "stock slots per district", 1, INT_MAX);
  opt.add_int("lines", 4, "order lines per request", 1, INT_MAX);
  opt.add_int("requests", 1536, "requests per grid cell",
              1, std::numeric_limits<std::uint32_t>::max());
  opt.add_int("think", 200, "compute cycles per request", 0);
  opt.add_double("theta", 1.2, "Zipf skew over warehouses (fixed per grid)");
  opt.add_double("warmup-frac", 0.4,
                 "fraction of the trace excluded from measured latency");
  opt.add_flag("quick", "smaller trace and fewer load points");
  if (!opt.parse(argc, argv)) return 0;

  const auto procs = static_cast<std::uint32_t>(opt.get_int("procs"));
  const bool quick = opt.flag("quick");
  const double theta = opt.get_double("theta");

  apps::txn::Config cfg;
  cfg.warehouses = quick ? 7 : static_cast<int>(opt.get_int("warehouses"));
  cfg.districts = static_cast<int>(opt.get_int("districts"));
  cfg.items = static_cast<int>(opt.get_int("items"));
  cfg.lines = static_cast<int>(opt.get_int("lines"));
  cfg.think_cycles = static_cast<std::uint64_t>(opt.get_int("think"));
  cfg.arrivals.n_requests =
      quick ? 512 : static_cast<std::uint32_t>(opt.get_int("requests"));
  cfg.theta = theta;

  const mem::ChannelConfig flat;  // Kind::kFlat — the paper model.
  const mem::ChannelConfig ddr = contended_ddr();

  // Uniform-load capacity probe under the *flat* model (theta=0, batch
  // arrivals, default balancer): every cell's offered rate is a fraction of
  // the same number, so the ddr columns overload only through contention,
  // not through a different rate choice.
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

  const double* loads = quick ? kQuickLoads : kLoads;
  const std::size_t n_loads =
      quick ? sizeof kQuickLoads / sizeof kQuickLoads[0]
            : sizeof kLoads / sizeof kLoads[0];

  bench::Report rep(opt);
  std::printf(
      "# mem-channel ablation, P=%u (W=%d theta=%.2f, %llu req/cell, "
      "capacity %.3f req/kcycle; ddr: %u chan/cluster burst=%u)\n",
      procs, cfg.warehouses, theta,
      static_cast<unsigned long long>(cfg.arrivals.n_requests), capacity,
      ddr.channels_per_cluster, ddr.timing.t_burst);
  util::Table t({"load", "mem", "balancer", "p50(kcyc)", "p99(kcyc)", "ratio",
                 "peak-chan%", "rowhit%", "qfull"});

  // Per-load stealing tails for the shape keys; the hockey stick is the
  // *worst* per-load divergence, which lands at the first load past the ddr
  // channel's saturation knee (at the very top both models are in open-loop
  // collapse and re-converge).
  std::vector<double> p99_flat(n_loads, 0.0);
  std::vector<double> p99_ddr(n_loads, 0.0);
  std::vector<double> p50_flat(n_loads, 0.0);
  std::vector<double> p50_ddr(n_loads, 0.0);
  std::vector<double> ddr_peak_sat(n_loads, 0.0);
  double p99_ddr_reserve_top = 0.0;
  for (std::size_t li = 0; li < n_loads; ++li) {
    for (int bk = 0; bk < 2; ++bk) {
      const bool is_ddr = bk == 1;
      for (const sched::BalancerKind kind : kKinds) {
        apps::txn::Config cell = cfg;
        cell.arrivals.rate_per_kcycle = loads[li] * capacity;
        cell.measure_from_cycles = static_cast<std::uint64_t>(
            opt.get_double("warmup-frac") * 1000.0 *
            static_cast<double>(cell.arrivals.n_requests) /
            cell.arrivals.rate_per_kcycle);
        const sched::Policy pol =
            with_balancer(apps::txn::policy_for(cell), kind);
        Runtime rt = make_cell_runtime(procs, pol, is_ddr ? ddr : flat);
        const apps::txn::Result r = apps::txn::run(rt, cell);
        const ChanView v = chan_view(rt);
        add_row(t, loads[li], is_ddr ? "ddr" : "flat",
                sched::balancer_kind_name(kind), r, v);
        const double p99 = static_cast<double>(r.latency.quantile(0.99));
        if (kind == sched::BalancerKind::kStealing) {
          (is_ddr ? p99_ddr : p99_flat)[li] = p99;
          (is_ddr ? p50_ddr : p50_flat)[li] =
              static_cast<double>(r.latency.quantile(0.5));
          if (is_ddr) ddr_peak_sat[li] = v.peak_busy;
        }
        if (is_ddr && kind == sched::BalancerKind::kReserve &&
            li == n_loads - 1) {
          p99_ddr_reserve_top = p99;
        }
      }
    }
  }

  // The adaptation row: the worst-for-bandwidth cell — placement-blind
  // (hints off), memory-heavy requests (4x lines), ddr backend — served at a
  // moderate rate so the overshoot is channel queueing, not front-end queue
  // build-up. The target derives from the same cell under the flat model:
  // "reach the tail the paper's memory model says this load deserves". The
  // decomposition sensor plus the channel gauges route the escalation to
  // distribute (bandwidth-bound), not migrate.
  apps::txn::Config hot = cfg;
  hot.hints = false;
  // Near-total skew, heavy memory-bound transactions, little think time:
  // nearly every fill targets the hot warehouse's cluster, so its single
  // channel is the system bottleneck while the processors still have slack —
  // the regime where moving requests (the balancer ladder) cannot help and
  // re-homing onto another single memory (migrate) only moves the convoy.
  hot.theta = 3.0;
  hot.lines = cfg.lines * 8;
  hot.think_cycles = cfg.think_cycles / 4;
  // A fixed cell in both modes: the routing decision under test is a
  // property of the scenario, so it must not drift with --quick's trace
  // scaling (a longer trace dilutes the cold-cache convoy that the epoch
  // sensor reacts to).
  hot.warehouses = 7;
  hot.items = 1024;
  hot.arrivals.n_requests = 512;
  hot.arrivals.rate_per_kcycle = 0.55;
  const double hot_load = hot.arrivals.rate_per_kcycle / capacity;
  hot.measure_from_cycles = static_cast<std::uint64_t>(
      opt.get_double("warmup-frac") * 1000.0 *
      static_cast<double>(hot.arrivals.n_requests) /
      hot.arrivals.rate_per_kcycle);
  sched::Policy hot_pol = with_balancer(apps::txn::policy_for(hot),
                                        sched::BalancerKind::kStealing);
  hot_pol.honor_affinity = true;  // For the pump's pin; requests are hint-free.

  double p99_hot_flat = 0.0;
  {
    Runtime rt = make_cell_runtime(procs, hot_pol, flat);
    const apps::txn::Result r = apps::txn::run(rt, hot);
    add_row(t, hot_load, "flat", "blind", r, chan_view(rt));
    p99_hot_flat = static_cast<double>(r.latency.quantile(0.99));
  }
  // The uncontrolled tail under the contended backend — what the adapt row
  // has to claw back, and the proof that the overshoot exists.
  double p99_hot_ddr = 0.0;
  {
    Runtime rt = make_cell_runtime(procs, hot_pol, ddr);
    const apps::txn::Result r = apps::txn::run(rt, hot);
    add_row(t, hot_load, "ddr", "blind", r, chan_view(rt));
    p99_hot_ddr = static_cast<double>(r.latency.quantile(0.99));
  }
  const std::uint64_t target =
      static_cast<std::uint64_t>(2.0 * p99_hot_flat) + 1;

  double p99_hot_ddr_adapt = 0.0;
  std::uint64_t bandwidth_decisions = 0;
  double first_decision_bandwidth = 0.0;
  std::vector<adaptive::Decision> adapt_log;
  {
    SystemConfig sc;
    sc.machine = topo::MachineConfig::dash(procs);
    sc.policy = hot_pol;
    sc.mem_channel = ddr;
    sc.race_check = opt.flag("race-check");
    sc.adapt = true;
    const std::string& pol_path = opt.get_string("adapt");
    if (!pol_path.empty()) {
      sc.adapt_policy = adaptive::load_adapt_policy(pol_path);
    }
    sc.adapt_policy.enable_balancer = true;  // Ladder available, bypassed.
    sc.adapt_policy.latency_target_cycles = target;
    // The hot channel running at ~4x its uniform share (12.5% of fills per
    // cluster) is the bandwidth signature on this machine; the engine
    // default is tuned for full-on saturation.
    sc.adapt_policy.bandwidth_saturation_frac = 0.40;
    // Shorter rung freeze: the relief rungs cannot touch a saturated
    // channel, so don't sit on them — reach the routing decision while the
    // warmup window still covers the transient.
    sc.adapt_policy.cooldown_epochs = 2;
    sc.adapt_policy.max_actions_per_epoch = 2;  // Pace the distribute wave.
    sc.req_trace = true;  // The decomposition sensor drives the routing.
    Runtime rt(sc);
    const apps::txn::Result r = apps::txn::run(rt, hot);
    add_row(t, hot_load, "ddr", "blind+adapt", r, chan_view(rt));
    p99_hot_ddr_adapt = static_cast<double>(r.latency.quantile(0.99));
    const adaptive::AdaptiveEngine* ae = rt.adaptive_engine();
    if (ae != nullptr) {
      adapt_log = ae->log();
      for (const adaptive::Decision& d : adapt_log) {
        if (d.rule == obs::AdviceKind::kBandwidthBound) ++bandwidth_decisions;
      }
      // Classify the first *escalation* (the routing choice under test);
      // rung-1 relief decisions may precede it on queue-dominated epochs.
      for (const adaptive::Decision& d : adapt_log) {
        if (d.action.rfind("escalate=", 0) == 0) {
          first_decision_bandwidth =
              d.action.rfind("escalate=distribute", 0) == 0 ? 1.0 : 0.0;
          break;
        }
      }
    }
    rep.obs_from(r.run);
    rep.profile_from(rt);  // Decision log + race verdict.
  }

  rep.table(t);
  // Worst per-load flat-vs-ddr tail ratio (the hockey-stick peak).
  double divergence = 0.0;
  std::size_t knee = 0;
  for (std::size_t li = 0; li < n_loads; ++li) {
    const double r = p99_flat[li] > 0.0 ? p99_ddr[li] / p99_flat[li] : 0.0;
    if (r > divergence) {
      divergence = r;
      knee = li;
    }
  }
  std::printf(
      "\nshape: at %.1fx capacity p99 is %.2f kcyc flat vs %.2f kcyc ddr "
      "(%.1fx divergence, hot channel %.0f%% busy); at %.1fx the medians "
      "agree (p50 %.2f vs %.2f)\n",
      loads[knee], p99_flat[knee] / 1e3, p99_ddr[knee] / 1e3, divergence,
      100.0 * ddr_peak_sat[knee], loads[0], p50_flat[0] / 1e3,
      p50_ddr[0] / 1e3);
  std::printf(
      "shape: blind ddr p99 %.2f kcyc vs flat %.2f; +adapt (target %.2f "
      "kcyc) reaches %.2f kcyc, %llu bandwidth-bound decisions (first "
      "escalation %s)\n",
      p99_hot_ddr / 1e3, p99_hot_flat / 1e3,
      static_cast<double>(target) / 1e3, p99_hot_ddr_adapt / 1e3,
      static_cast<unsigned long long>(bandwidth_decisions),
      first_decision_bandwidth != 0.0 ? "distribute" : "other");
  if (!adapt_log.empty()) {
    std::printf("\n== blind+adapt decisions (%zu) ==\n", adapt_log.size());
    for (const adaptive::Decision& d : adapt_log) {
      std::printf("  epoch %llu @%llu [%s] %s: %s\n",
                  static_cast<unsigned long long>(d.epoch),
                  static_cast<unsigned long long>(d.cycle),
                  obs::advice_kind_name(d.rule), d.subject.c_str(),
                  d.action.c_str());
    }
  }
  rep.shape("p50_flat_low", p50_flat[0]);
  rep.shape("p50_ddr_low", p50_ddr[0]);
  rep.shape("p99_flat_low", p99_flat[0]);
  rep.shape("p99_flat_top", p99_flat[n_loads - 1]);
  rep.shape("p99_ddr_low", p99_ddr[0]);
  rep.shape("p99_ddr_top", p99_ddr[n_loads - 1]);
  rep.shape("tail_divergence_knee", divergence);
  rep.shape("ddr_peak_saturation_knee", ddr_peak_sat[knee]);
  rep.shape("p99_ddr_reserve_top", p99_ddr_reserve_top);
  rep.shape("p99_blind_flat", p99_hot_flat);
  rep.shape("p99_blind_ddr", p99_hot_ddr);
  rep.shape("p99_blind_adapt", p99_hot_ddr_adapt);
  rep.shape("bandwidth_decisions", static_cast<double>(bandwidth_decisions));
  rep.shape("first_decision_bandwidth", first_decision_bandwidth);
  return rep.finish();
}
