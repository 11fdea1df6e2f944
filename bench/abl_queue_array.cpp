// Ablation — task-affinity queue array size (paper §5).
//
// "Collisions of different task-affinity sets on the same queue can be
// minimized by choosing a suitably large array size." The TaskMix workload
// interleaves spawns across many task-affinity sets; with a large per-server
// array each set gets its own queue and is drained back-to-back (cache
// reuse), while a 1-entry array collapses everything into FIFO interleaving.
// The grouped/interleaved extremes are bracketed by the `spawn grouped` row
// (object-major spawn order: the best case regardless of array size).
#include <climits>
#include <cstdio>

#include "apps/synth/taskmix.hpp"
#include "bench_common.hpp"

using namespace cool;
using namespace cool::apps::taskmix;

int main(int argc, char** argv) {
  auto opt = bench::standard_options(
      "abl_queue_array", "Task-affinity queue array-size ablation (paper §5)");
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
  cfg.hint = Hint::kTaskObject;

  bench::Report rep(opt);
  std::printf(
      "# TaskMix: %d objects x %zu KiB, %d tasks/object, TASK+OBJECT, P=%u\n",
      cfg.objects, cfg.obj_kb, cfg.tasks_per_obj, procs);

  util::Table t({"array-size", "cycles(K)", "L1-hit%", "misses(K)"});
  auto add_row = [&](const std::string& label, const Config& c,
                     std::size_t array_size) {
    sched::Policy pol;
    pol.affinity_array_size = array_size;
    Runtime rt = bench::make_runtime(procs, pol);
    const Result r = run(rt, c);
    t.row()
        .cell(label)
        .cell(static_cast<double>(r.run.sim_cycles) / 1e3, 1)
        .cell(100.0 * r.l1_hit_rate, 1)
        .cell(static_cast<double>(r.run.mem.misses()) / 1e3, 1);
  };
  for (std::size_t size : {1ul, 2ul, 4ul, 16ul, 64ul, 256ul}) {
    add_row(std::to_string(size), cfg, size);
  }
  Config grouped = cfg;
  grouped.interleave = false;
  add_row("(spawn grouped)", grouped, 64);
  rep.table(t);
  return rep.finish();
}
