// srv_txn_latency — open-loop request latency vs offered load for the txn
// serving workload (src/apps/txn over src/load).
//
// The bench first measures the machine's serving capacity with a batch probe
// (every request arrives at cycle 0; capacity = requests / makespan), then
// sweeps an open-loop Poisson arrival trace at fixed fractions of that
// capacity, through and past saturation. Because arrivals are independent of
// completions, the sweep reproduces the canonical open-loop latency curve:
//
//   below saturation   p99 nearly flat (queueing is transient),
//   at saturation      the knee,
//   past saturation    the backlog grows for the whole trace and p99 blows
//                      up super-linearly while served/offered drops below 1.
//
// The headline (past-saturation) point honours --profile, --race-check,
// --adapt and --latency-target, so the adaptive runtime's latency objective
// can be watched exactly where tail latency is worst. Everything — arrival
// stamps, transaction picks, scheduling — is seeded and simulated, so the
// whole curve is deterministic.
#include <climits>
#include <cstdio>

#include "apps/txn/txn.hpp"
#include "bench_common.hpp"

using namespace cool;

namespace {

/// Offered-load fractions of probed capacity, through and past saturation.
constexpr double kFracs[] = {0.25, 0.5, 0.7, 0.85, 1.0, 1.2, 1.5};
constexpr double kQuickFracs[] = {0.5, 0.85, 1.5};

struct Point {
  double frac = 0.0;
  apps::txn::Result res;
};

}  // namespace

int main(int argc, char** argv) {
  auto opt = bench::standard_options(
      "srv_txn_latency",
      "Open-loop txn serving: latency percentiles vs offered load");
  opt.add_int("warehouses", 14,
              "warehouses (Zipf population; default is a multiple of the "
              "7 serving processors at --procs=8, so theta=0 is uniform)",
              1, INT_MAX);
  opt.add_int("districts", 4, "districts per warehouse", 1, INT_MAX);
  opt.add_int("items", 64, "stock slots per district", 1, INT_MAX);
  opt.add_int("lines", 4, "order lines per request", 1, INT_MAX);
  opt.add_double("theta", 0.0, "Zipf skew over warehouses (0 = uniform)");
  opt.add_int("requests", 2048, "requests per sweep point",
              1, std::numeric_limits<std::uint32_t>::max());
  opt.add_int("think", 200, "compute cycles per request", 0);
  opt.add_string("arrival", "poisson",
                 "arrival process: poisson | bursty | diurnal");
  opt.add_flag("quick", "smaller trace and fewer sweep points");
  if (!opt.parse(argc, argv)) return 0;

  const auto procs = static_cast<std::uint32_t>(opt.get_int("procs"));
  const bool quick = opt.flag("quick");

  apps::txn::Config cfg;
  cfg.warehouses = quick ? 7 : static_cast<int>(opt.get_int("warehouses"));
  cfg.districts = static_cast<int>(opt.get_int("districts"));
  cfg.items = static_cast<int>(opt.get_int("items"));
  cfg.lines = static_cast<int>(opt.get_int("lines"));
  cfg.theta = opt.get_double("theta");
  cfg.think_cycles = static_cast<std::uint64_t>(opt.get_int("think"));
  cfg.arrivals.kind = load::parse_arrival_kind(opt.get_string("arrival"));
  cfg.arrivals.n_requests =
      quick ? 384 : static_cast<std::uint32_t>(opt.get_int("requests"));

  // Capacity probe: everything arrives at once, so the makespan measures
  // pure service capacity (no arrival idle time). Latency numbers from this
  // run are meaningless (they include the batch queueing) and are discarded.
  apps::txn::Config probe = cfg;
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

  bench::Report rep(opt);
  if (rep.text()) {
    std::printf(
        "# txn open-loop latency vs offered load, P=%u (W=%d D=%d theta=%.2f "
        "%s, %llu req/point)\n"
        "# capacity probe: %.3f req/kcycle\n",
        procs, cfg.warehouses, cfg.districts, cfg.theta,
        load::arrival_kind_name(cfg.arrivals.kind),
        static_cast<unsigned long long>(cfg.arrivals.n_requests), capacity);
  }

  const double* fracs = quick ? kQuickFracs : kFracs;
  const std::size_t n_fracs = quick ? sizeof kQuickFracs / sizeof kQuickFracs[0]
                                    : sizeof kFracs / sizeof kFracs[0];

  util::Table t({"load", "offered/kcyc", "served/kcyc", "ratio", "p50(kcyc)",
                 "p99(kcyc)", "p999(kcyc)", "max-inflight"});
  std::vector<Point> points;
  points.reserve(n_fracs);
  for (std::size_t i = 0; i < n_fracs; ++i) {
    apps::txn::Config pc = cfg;
    pc.arrivals.rate_per_kcycle = fracs[i] * capacity;
    const bool headline = i + 1 == n_fracs;
    // The headline (deepest-overload) point honours the analysis flags; the
    // rest of the curve runs the plain runtime so the sweep stays comparable.
    Runtime rt = headline
                     ? bench::make_runtime(procs, apps::txn::policy_for(pc), opt)
                     : bench::make_runtime(procs, apps::txn::policy_for(pc));
    Point pt;
    pt.frac = fracs[i];
    pt.res = apps::txn::run(rt, pc);
    std::uint64_t max_inflight = 0;
    for (const std::uint64_t v : pt.res.inflight) {
      if (v > max_inflight) max_inflight = v;
    }
    char label[16];
    std::snprintf(label, sizeof label, "%.2fx", fracs[i]);
    t.row()
        .cell(label)
        .cell(pt.res.offered_per_kcycle(), 3)
        .cell(pt.res.served_per_kcycle(), 3)
        .cell(pt.res.served_ratio(), 3)
        .cell(static_cast<double>(pt.res.latency.quantile(0.5)) / 1e3, 3)
        .cell(static_cast<double>(pt.res.latency.quantile(0.99)) / 1e3, 3)
        .cell(static_cast<double>(pt.res.latency.quantile(0.999)) / 1e3, 3)
        .cell(max_inflight);
    if (headline) {
      rep.obs_from(pt.res.run);
      rep.profile_from(rt);
    }
    points.push_back(std::move(pt));
  }

  // Named sweep points for the shape summary. Every mode's fraction list
  // contains 0.5, 0.85 and a >1 tail, so the keys exist in quick and full.
  auto at = [&](double frac) -> const apps::txn::Result* {
    for (const Point& p : points) {
      if (p.frac == frac) return &p.res;
    }
    return nullptr;
  };
  const apps::txn::Result* lo = at(0.5);
  const apps::txn::Result* knee = at(0.85);
  const apps::txn::Result& sat = points.back().res;
  const double p99_lo =
      lo != nullptr ? static_cast<double>(lo->latency.quantile(0.99)) : 0.0;
  const double p99_knee =
      knee != nullptr ? static_cast<double>(knee->latency.quantile(0.99)) : 0.0;
  const double p99_sat = static_cast<double>(sat.latency.quantile(0.99));

  rep.table(t);
  if (rep.text()) {
    std::printf(
        "\nshape: p99 %.2f kcyc at 0.85x capacity (%.2fx the 0.5x-load p99); "
        "past saturation p99 %.2f kcyc (%.1fx), served ratio %.2f\n",
        p99_knee / 1e3, p99_lo > 0.0 ? p99_knee / p99_lo : 0.0, p99_sat / 1e3,
        p99_knee > 0.0 ? p99_sat / p99_knee : 0.0, sat.served_ratio());
  }
  rep.shape("peak_capacity_kcyc", capacity);
  rep.shape("p99_frac50", p99_lo);
  rep.shape("p99_frac85", p99_knee);
  rep.shape("p99_past_sat", p99_sat);
  rep.shape("p99_flat_ratio", p99_lo > 0.0 ? p99_knee / p99_lo : 0.0);
  rep.shape("p99_blowup_ratio", p99_knee > 0.0 ? p99_sat / p99_knee : 0.0);
  rep.shape("served_ratio_past_sat", sat.served_ratio());
  return rep.finish();
}
