// Ablation — stealing policies (paper §4.2 and the §6.3 cluster experiment).
//
// Panel Cholesky under the spectrum of stealing policies: no stealing at
// all, default (hint-free tasks and unpinned sets only), stealing pinned
// work anywhere, cluster-first, and cluster-only. Shows the locality /
// load-balance tradeoff the paper discusses: stealing pinned tasks balances
// load but turns local references remote; restricting theft to the cluster
// recovers the locality.
#include <climits>
#include <cstdio>

#include "apps/cholesky/panel.hpp"
#include "bench_common.hpp"

using namespace cool;
using namespace cool::apps::cholesky;

int main(int argc, char** argv) {
  auto opt = bench::standard_options(
      "abl_steal_policy", "Stealing-policy ablation on Panel Cholesky");
  opt.add_int("panels", 192, "number of panels", 2, INT_MAX);
  if (!opt.parse(argc, argv)) return 0;

  PanelConfig cfg;
  cfg.n_panels = static_cast<int>(opt.get_int("panels"));
  cfg.variant = PanelVariant::kDistrAff;
  const auto procs = static_cast<std::uint32_t>(opt.get_int("procs"));

  struct Row {
    const char* name;
    sched::Policy pol;
  };
  sched::Policy base = panel_policy_for(PanelVariant::kDistrAff, procs);

  std::vector<Row> rows;
  {
    Row r{"no stealing", base};
    r.pol.steal_enabled = false;
    r.pol.steal_whole_sets = false;  // validate_policy: steal flags need
                                     // steal_enabled.
    rows.push_back(r);
  }
  rows.push_back({"default (unpinned only)", base});
  {
    Row r{"steal pinned anywhere", base};
    r.pol.steal_object_tasks = true;
    r.pol.steal_pinned_sets = true;
    rows.push_back(r);
  }
  {
    Row r{"steal pinned, cluster-first", base};
    r.pol.steal_object_tasks = true;
    r.pol.steal_pinned_sets = true;
    r.pol.cluster_first = true;
    rows.push_back(r);
  }
  if (topo::MachineConfig::dash(procs).n_clusters() > 1) {
    Row r{"steal pinned, cluster-only", base};
    r.pol.steal_object_tasks = true;
    r.pol.steal_pinned_sets = true;
    r.pol.cluster_only = true;
    rows.push_back(r);
  }
  {
    Row r{"no whole-set stealing", base};
    r.pol.steal_whole_sets = false;
    rows.push_back(r);
  }

  bench::Report rep(opt);
  if (rep.text()) {
    std::printf("# Panel Cholesky (%d panels), Distr+Aff hints, P=%u\n",
                cfg.n_panels, procs);
  }
  util::Table t({"policy", "cycles(M)", "local-miss%", "steals",
                 "remote-cluster", "tasks-stolen"});
  for (const Row& row : rows) {
    Runtime rt = bench::make_runtime(procs, row.pol);
    const PanelResult r = run_panel(rt, cfg);
    t.row()
        .cell(row.name)
        .cell(static_cast<double>(r.run.sim_cycles) / 1e6, 2)
        .cell(100.0 * apps::local_fraction(r.run.mem), 1)
        .cell(r.run.sched.steals)
        .cell(r.run.sched.remote_cluster_steals)
        .cell(r.run.sched.tasks_stolen);
  }
  rep.table(t);
  return rep.finish();
}
