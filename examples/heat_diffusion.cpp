// Heat diffusion — a standalone grid solver in the style of the paper's
// Ocean case study (§6.1, Figure 5).
//
// A 2-D plate is partitioned into row-strip regions. Each timestep runs a
// Jacobi relaxation as one parallel grid operation per region, closed by a
// waitfor. The regions are explicitly distributed (`migrate`, Figure 5's
// distribute()) so default OBJECT affinity collocates every region task with
// its strip — the example prints how much of the memory traffic stayed local
// with and without the distribution step.
//
//   $ ./heat_diffusion [--n=192] [--steps=8] [--no-distribute]
#include <cmath>
#include <cstdio>
#include <vector>

#include "common/options.hpp"
#include "core/cool.hpp"

using namespace cool;

namespace {

struct Plate {
  int n = 0;
  int regions = 0;
  double* cur = nullptr;   // current temperatures
  double* next = nullptr;  // next-step temperatures

  [[nodiscard]] int row_begin(int r) const { return r * n / regions; }
  [[nodiscard]] int row_end(int r) const { return (r + 1) * n / regions; }
};

TaskFn relax_region(Plate* p, int r) {
  auto& c = co_await self();
  const int n = p->n;
  const int r0 = p->row_begin(r);
  const int r1 = p->row_end(r);
  const int lo = r0 > 0 ? r0 - 1 : 0;
  const int hi = r1 < n ? r1 + 1 : n;

  c.read(&p->cur[static_cast<std::size_t>(lo) * n],
         static_cast<std::size_t>(hi - lo) * n * sizeof(double));
  c.write(&p->next[static_cast<std::size_t>(r0) * n],
          static_cast<std::size_t>(r1 - r0) * n * sizeof(double));

  for (int i = r0; i < r1; ++i) {
    for (int j = 0; j < n; ++j) {
      const std::size_t at = static_cast<std::size_t>(i) * n + j;
      if (i == 0 || i == n - 1 || j == 0 || j == n - 1) {
        p->next[at] = p->cur[at];  // fixed boundary temperature
      } else {
        p->next[at] = 0.25 * (p->cur[at - static_cast<std::size_t>(n)] +
                              p->cur[at + static_cast<std::size_t>(n)] +
                              p->cur[at - 1] + p->cur[at + 1]);
      }
    }
  }
  c.work(static_cast<std::uint64_t>(r1 - r0) * n * 16);
}

TaskFn solve(Plate* p, int steps) {
  auto& c = co_await self();
  for (int s = 0; s < steps; ++s) {
    TaskGroup waitfor;
    for (int r = 0; r < p->regions; ++r) {
      // Default affinity: the task follows the strip it writes.
      c.spawn(Affinity::object(
                  &p->next[static_cast<std::size_t>(p->row_begin(r)) * p->n]),
              waitfor, relax_region(p, r));
    }
    co_await c.wait(waitfor);
    std::swap(p->cur, p->next);
  }
}

}  // namespace

int main(int argc, char** argv) {
  util::Options opt("heat_diffusion", "2-D heat diffusion with region affinity");
  opt.add_int("procs", 32, "simulated processors", 1, UINT32_MAX);
  opt.add_int("n", 192, "plate dimension");
  opt.add_int("steps", 8, "timesteps");
  opt.add_flag("no-distribute", "skip the Figure 5 distribute() step");
  opt.add_flag("trace", "print a per-processor execution timeline");
  if (!opt.parse(argc, argv)) return 0;

  SystemConfig cfg;
  cfg.machine = topo::MachineConfig::dash(
      static_cast<std::uint32_t>(opt.get_int("procs")));
  cfg.trace = opt.flag("trace");
  Runtime rt(cfg);

  Plate p;
  p.n = static_cast<int>(opt.get_int("n"));
  p.regions = static_cast<int>(rt.machine().n_procs);
  const std::size_t cells = static_cast<std::size_t>(p.n) * p.n;
  p.cur = rt.alloc_array<double>(cells, 0);
  p.next = rt.alloc_array<double>(cells, 0);

  // Hot left edge, cold elsewhere.
  for (int i = 0; i < p.n; ++i) {
    p.cur[static_cast<std::size_t>(i) * p.n] = 100.0;
    p.next[static_cast<std::size_t>(i) * p.n] = 100.0;
  }

  if (!opt.flag("no-distribute")) {
    // Figure 5's distribute(): strip r of both grids to processor r.
    for (int r = 0; r < p.regions; ++r) {
      const int r0 = p.row_begin(r);
      const std::size_t bytes = static_cast<std::size_t>(p.row_end(r) - r0) *
                                p.n * sizeof(double);
      rt.migrate(&p.cur[static_cast<std::size_t>(r0) * p.n], r, bytes);
      rt.migrate(&p.next[static_cast<std::size_t>(r0) * p.n], r, bytes);
    }
  }

  rt.run(solve(&p, static_cast<int>(opt.get_int("steps"))));

  double total_heat = 0.0;
  for (std::size_t i = 0; i < cells; ++i) total_heat += p.cur[i];
  const auto mem = rt.monitor()->total();
  std::printf("mean temperature after %lld steps: %.4f\n",
              static_cast<long long>(opt.get_int("steps")),
              total_heat / static_cast<double>(cells));
  std::printf("%llu cycles; %.1f%% of misses serviced in local memory%s\n",
              static_cast<unsigned long long>(rt.sim_time()),
              mem.misses() ? 100.0 * static_cast<double>(mem.local_misses()) /
                                 static_cast<double>(mem.misses())
                           : 0.0,
              opt.flag("no-distribute") ? " (no distribution)" : "");
  if (opt.flag("trace")) {
    std::printf("\n%s",
                obs::render_trace_report(rt.trace_events(),
                                         rt.machine().n_procs, rt.sim_time(),
                                         72)
                    .c_str());
  }
  return 0;
}
