// Table 1 — the affinity-hint taxonomy, measured.
//
// The paper's Table 1 summarises the hints (default, simple affinity, TASK,
// OBJECT, PROCESSOR, plus migrate/home object distribution). This bench runs
// one synthetic workload — M objects distributed round-robin, K tasks per
// object, spawned interleaved so consecutive arrivals belong to different
// affinity sets — under each hint, and reports the scheduling effect each
// hint exists to produce: cache reuse (L1 hits), memory locality (local miss
// service), and placement stability (tasks not stolen).
#include <climits>
#include <cstdio>

#include "apps/synth/taskmix.hpp"
#include "bench_common.hpp"

using namespace cool;
using namespace cool::apps::taskmix;

int main(int argc, char** argv) {
  auto opt = bench::standard_options(
      "tab01_affinity_hints", "Affinity-hint taxonomy microbench (Table 1)");
  opt.add_int("objects", 128, "number of shared objects", 1, INT_MAX);
  opt.add_int("obj-kb", 32, "object size in KiB", 1, INT_MAX);
  opt.add_int("tasks-per-obj", 8, "tasks repeatedly touching each object",
              1, INT_MAX);
  if (!opt.parse(argc, argv)) return 0;

  const auto procs = static_cast<std::uint32_t>(opt.get_int("procs"));
  Config cfg;
  cfg.objects = static_cast<int>(opt.get_int("objects"));
  cfg.obj_kb = static_cast<std::size_t>(opt.get_int("obj-kb"));
  cfg.tasks_per_obj = static_cast<int>(opt.get_int("tasks-per-obj"));

  bench::Report rep(opt);
  if (rep.text()) {
    std::printf(
        "# %d objects x %zu KiB, %d tasks per object, interleaved spawn, P=%u\n",
        cfg.objects, cfg.obj_kb, cfg.tasks_per_obj, procs);
  }

  util::Table t({"hint", "cycles(K)", "L1-hit%", "local-miss%", "stolen%",
                 "steals"});
  for (Hint h : {Hint::kNone, Hint::kSimple, Hint::kTask, Hint::kObject,
                 Hint::kTaskObject, Hint::kProcessor}) {
    Config c = cfg;
    c.hint = h;
    Runtime rt = h == Hint::kTaskObject
                     ? bench::make_runtime(procs, sched::Policy{}, opt)
                     : bench::make_runtime(procs, sched::Policy{});
    const Result r = run(rt, c);
    const auto& ss = r.run.sched;
    t.row()
        .cell(hint_name(h))
        .cell(static_cast<double>(r.run.sim_cycles) / 1e3, 1)
        .cell(100.0 * r.l1_hit_rate, 1)
        .cell(100.0 * apps::local_fraction(r.run.mem), 1)
        .cell(100.0 * static_cast<double>(ss.tasks_stolen) /
                  static_cast<double>(ss.spawned ? ss.spawned : 1),
              1)
        .cell(ss.steals);
    if (h == Hint::kTaskObject) {
      rep.obs_from(r.run);
      rep.profile_from(rt);
    }
  }
  rep.table(t);

  // Object distribution primitives (Table 1's migrate/home rows).
  {
    Runtime rt = bench::make_runtime(procs, sched::Policy{});
    const std::size_t bytes = cfg.obj_kb * 1024;
    double* obj = rt.alloc_array<double>(bytes / sizeof(double), 0);
    std::uint64_t migrate_cost = 0;
    const topo::ProcId home_before = rt.home(obj);
    rt.run([](double* o, std::size_t n, std::uint64_t* cost) -> TaskFn {
      auto& c = co_await self();
      *cost = c.migrate(o, 5, n);
    }(obj, bytes, &migrate_cost));
    if (rep.text()) {
      std::printf(
          "\nmigrate(obj, 5): %llu cycles (%zu pages); home(obj): %u -> %u\n",
          static_cast<unsigned long long>(migrate_cost), (bytes + 4095) / 4096,
          static_cast<unsigned>(home_before),
          static_cast<unsigned>(rt.home(obj)));
    }
    rep.shape("migrate_cycles", static_cast<double>(migrate_cost));
    rep.shape("home_after_migrate", static_cast<double>(rt.home(obj)));
  }
  return rep.finish();
}
