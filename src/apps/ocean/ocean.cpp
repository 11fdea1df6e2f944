#include "apps/ocean/ocean.hpp"

#include <cstdio>
#include <vector>

#include "common/rng.hpp"

namespace cool::apps::ocean {

const char* variant_name(Variant v) {
  switch (v) {
    case Variant::kBase:
      return "Base";
    case Variant::kDistrNoAff:
      return "Distr";
    case Variant::kAffOnly:
      return "AffOnly";
    case Variant::kDistr:
      return "Distr+Aff";
  }
  return "?";
}

sched::Policy policy_for(Variant v) {
  sched::Policy p;
  p.honor_affinity = (v == Variant::kAffOnly || v == Variant::kDistr);
  return p;
}

namespace {

struct App {
  Config cfg;
  int n = 0;
  int regions = 0;
  std::vector<double*> grid;  ///< cfg.grids state grids, n*n each.
  double* scratch = nullptr;  ///< One scratch grid shared by all ops.
  /// Multigrid hierarchy: lvl[0] aliases grid[0]; lvl[k] is (n>>k)^2.
  std::vector<double*> lvl;
  std::vector<double*> lvl_scratch;

  [[nodiscard]] int row_begin(int r) const { return r * n / regions; }
  [[nodiscard]] int row_end(int r) const { return (r + 1) * n / regions; }

  [[nodiscard]] int lvl_n(int k) const { return n >> k; }
  [[nodiscard]] int lvl_regions(int k) const {
    return std::min(regions, lvl_n(k));
  }
  [[nodiscard]] int lvl_row_begin(int k, int r) const {
    return r * lvl_n(k) / lvl_regions(k);
  }
  [[nodiscard]] int lvl_row_end(int k, int r) const {
    return (r + 1) * lvl_n(k) / lvl_regions(k);
  }
};

/// dst-strip = src + alpha * laplacian(src), interior points only.
TaskFn laplace_region(App* a, const double* src, double* dst, int r) {
  auto& c = co_await self();
  const int n = a->n;
  const int r0 = a->row_begin(r);
  const int r1 = a->row_end(r);
  const int read_lo = r0 > 0 ? r0 - 1 : 0;
  const int read_hi = r1 < n ? r1 + 1 : n;

  c.read(&src[static_cast<std::size_t>(read_lo) * n],
         static_cast<std::size_t>(read_hi - read_lo) * n * sizeof(double));
  c.write(&dst[static_cast<std::size_t>(r0) * n],
          static_cast<std::size_t>(r1 - r0) * n * sizeof(double));

  const double alpha = a->cfg.alpha;
  for (int i = r0; i < r1; ++i) {
    for (int j = 0; j < n; ++j) {
      const std::size_t at = static_cast<std::size_t>(i) * n + j;
      if (i == 0 || i == n - 1 || j == 0 || j == n - 1) {
        dst[at] = src[at];  // Fixed boundary.
      } else {
        dst[at] = src[at] + alpha * (src[at - static_cast<std::size_t>(n)] +
                                     src[at + static_cast<std::size_t>(n)] +
                                     src[at - 1] + src[at + 1] - 4.0 * src[at]);
      }
    }
  }
  c.work(static_cast<std::uint64_t>(r1 - r0) * n * 24);  // 6 flops/cell
}

/// dst-strip += beta * src-strip (inter-grid element-wise op).
TaskFn add_region(App* a, double* dst, const double* src, int r) {
  auto& c = co_await self();
  const int n = a->n;
  const int r0 = a->row_begin(r);
  const int r1 = a->row_end(r);

  c.read(&src[static_cast<std::size_t>(r0) * n],
         static_cast<std::size_t>(r1 - r0) * n * sizeof(double));
  c.update(&dst[static_cast<std::size_t>(r0) * n],
           static_cast<std::size_t>(r1 - r0) * n * sizeof(double));

  const double beta = a->cfg.beta;
  for (std::size_t at = static_cast<std::size_t>(r0) * n,
                   end = static_cast<std::size_t>(r1) * n;
       at < end; ++at) {
    dst[at] += beta * src[at];
  }
  c.work(static_cast<std::uint64_t>(r1 - r0) * n * 8);  // 2 flops/cell
}

// --- multigrid level math, shared verbatim by the serial reference ---------

/// scratch rows [r0,r1) = relaxed stencil of `g` (fixed boundary).
void mg_smooth_rows(const double* g, double* scr, int n, int r0, int r1,
                    double alpha) {
  for (int i = r0; i < r1; ++i) {
    for (int j = 0; j < n; ++j) {
      const std::size_t at = static_cast<std::size_t>(i) * n + j;
      if (i == 0 || i == n - 1 || j == 0 || j == n - 1) {
        scr[at] = g[at];
      } else {
        scr[at] = g[at] + alpha * (g[at - static_cast<std::size_t>(n)] +
                                   g[at + static_cast<std::size_t>(n)] +
                                   g[at - 1] + g[at + 1] - 4.0 * g[at]);
      }
    }
  }
}

/// coarse rows [r0,r1) = 4-cell average of `fine` (full weighting).
void mg_restrict_rows(const double* fine, double* coarse, int nc, int r0,
                      int r1) {
  const int nf = nc * 2;
  for (int i = r0; i < r1; ++i) {
    for (int j = 0; j < nc; ++j) {
      const std::size_t f =
          static_cast<std::size_t>(2 * i) * nf + static_cast<std::size_t>(2 * j);
      coarse[static_cast<std::size_t>(i) * nc + j] =
          0.25 * (fine[f] + fine[f + 1] + fine[f + static_cast<std::size_t>(nf)] +
                  fine[f + static_cast<std::size_t>(nf) + 1]);
    }
  }
}

/// fine rows [r0,r1) += gamma * injected coarse correction.
void mg_prolong_rows(double* fine, const double* coarse, int nf, int r0,
                     int r1, double gamma) {
  const int nc = nf / 2;
  for (int i = r0; i < r1; ++i) {
    for (int j = 0; j < nf; ++j) {
      fine[static_cast<std::size_t>(i) * nf + j] +=
          gamma * coarse[static_cast<std::size_t>(i / 2) * nc + (j / 2)];
    }
  }
}

// --- multigrid region tasks -------------------------------------------------

TaskFn mg_smooth_region(App* a, int k, int r) {
  auto& c = co_await self();
  const int n = a->lvl_n(k);
  const int r0 = a->lvl_row_begin(k, r);
  const int r1 = a->lvl_row_end(k, r);
  const int lo = r0 > 0 ? r0 - 1 : 0;
  const int hi = r1 < n ? r1 + 1 : n;
  const double* g = a->lvl[static_cast<std::size_t>(k)];
  double* scr = a->lvl_scratch[static_cast<std::size_t>(k)];
  c.read(&g[static_cast<std::size_t>(lo) * n],
         static_cast<std::size_t>(hi - lo) * n * sizeof(double));
  c.write(&scr[static_cast<std::size_t>(r0) * n],
          static_cast<std::size_t>(r1 - r0) * n * sizeof(double));
  mg_smooth_rows(g, scr, n, r0, r1, a->cfg.alpha);
  c.work(static_cast<std::uint64_t>(r1 - r0) * n * 24);
}

TaskFn mg_copy_region(App* a, int k, int r) {
  auto& c = co_await self();
  const int n = a->lvl_n(k);
  const int r0 = a->lvl_row_begin(k, r);
  const int r1 = a->lvl_row_end(k, r);
  double* g = a->lvl[static_cast<std::size_t>(k)];
  const double* scr = a->lvl_scratch[static_cast<std::size_t>(k)];
  c.read(&scr[static_cast<std::size_t>(r0) * n],
         static_cast<std::size_t>(r1 - r0) * n * sizeof(double));
  c.write(&g[static_cast<std::size_t>(r0) * n],
          static_cast<std::size_t>(r1 - r0) * n * sizeof(double));
  for (std::size_t at = static_cast<std::size_t>(r0) * n,
                   end = static_cast<std::size_t>(r1) * n;
       at < end; ++at) {
    g[at] = scr[at];
  }
  c.work(static_cast<std::uint64_t>(r1 - r0) * n * 4);
}

TaskFn mg_restrict_region(App* a, int k, int r) {
  auto& c = co_await self();
  const int nc = a->lvl_n(k + 1);
  const int r0 = a->lvl_row_begin(k + 1, r);
  const int r1 = a->lvl_row_end(k + 1, r);
  const double* fine = a->lvl[static_cast<std::size_t>(k)];
  double* coarse = a->lvl[static_cast<std::size_t>(k + 1)];
  c.read(&fine[static_cast<std::size_t>(2 * r0) * (2 * nc)],
         static_cast<std::size_t>(2 * (r1 - r0)) * (2 * nc) * sizeof(double));
  c.write(&coarse[static_cast<std::size_t>(r0) * nc],
          static_cast<std::size_t>(r1 - r0) * nc * sizeof(double));
  mg_restrict_rows(fine, coarse, nc, r0, r1);
  c.work(static_cast<std::uint64_t>(r1 - r0) * nc * 16);
}

TaskFn mg_prolong_region(App* a, int k, int r) {
  auto& c = co_await self();
  const int nf = a->lvl_n(k);
  const int r0 = a->lvl_row_begin(k, r);
  const int r1 = a->lvl_row_end(k, r);
  double* fine = a->lvl[static_cast<std::size_t>(k)];
  const double* coarse = a->lvl[static_cast<std::size_t>(k + 1)];
  c.read(&coarse[static_cast<std::size_t>(r0 / 2) * (nf / 2)],
         static_cast<std::size_t>((r1 - r0) / 2 + 1) * (nf / 2) *
             sizeof(double));
  c.update(&fine[static_cast<std::size_t>(r0) * nf],
           static_cast<std::size_t>(r1 - r0) * nf * sizeof(double));
  mg_prolong_rows(fine, coarse, nf, r0, r1, a->cfg.beta * 0.5);
  c.work(static_cast<std::uint64_t>(r1 - r0) * nf * 8);
}

/// One V-cycle over the level hierarchy (each op is a waitfor phase).
TaskFn run_vcycle(App* a) {
  auto& c = co_await self();
  const int L = a->cfg.multigrid_levels;
  auto strip_obj = [a](int k, int r) {
    return Affinity::object(
        &a->lvl[static_cast<std::size_t>(k)]
               [static_cast<std::size_t>(a->lvl_row_begin(k, r)) * a->lvl_n(k)]);
  };
  // Down: smooth, then restrict.
  for (int k = 0; k < L; ++k) {
    {
      TaskGroup waitfor;
      for (int r = 0; r < a->lvl_regions(k); ++r) {
        c.spawn(strip_obj(k, r), waitfor, mg_smooth_region(a, k, r));
      }
      co_await c.wait(waitfor);
    }
    {
      TaskGroup waitfor;
      for (int r = 0; r < a->lvl_regions(k); ++r) {
        c.spawn(strip_obj(k, r), waitfor, mg_copy_region(a, k, r));
      }
      co_await c.wait(waitfor);
    }
    {
      TaskGroup waitfor;
      for (int r = 0; r < a->lvl_regions(k + 1); ++r) {
        c.spawn(strip_obj(k + 1, r), waitfor, mg_restrict_region(a, k, r));
      }
      co_await c.wait(waitfor);
    }
  }
  // Up: prolong the correction, then smooth.
  for (int k = L - 1; k >= 0; --k) {
    {
      TaskGroup waitfor;
      for (int r = 0; r < a->lvl_regions(k); ++r) {
        c.spawn(strip_obj(k, r), waitfor, mg_prolong_region(a, k, r));
      }
      co_await c.wait(waitfor);
    }
    {
      TaskGroup waitfor;
      for (int r = 0; r < a->lvl_regions(k); ++r) {
        c.spawn(strip_obj(k, r), waitfor, mg_smooth_region(a, k, r));
      }
      co_await c.wait(waitfor);
    }
    {
      TaskGroup waitfor;
      for (int r = 0; r < a->lvl_regions(k); ++r) {
        c.spawn(strip_obj(k, r), waitfor, mg_copy_region(a, k, r));
      }
      co_await c.wait(waitfor);
    }
  }
}

/// The region object a task has (default) affinity for: its strip of the
/// grid it writes.
const void* region_obj(const App* a, const double* g, int r) {
  return &g[static_cast<std::size_t>(a->row_begin(r)) * a->n];
}

TaskFn root_task(App* a) {
  auto& c = co_await self();
  for (int s = 0; s < a->cfg.steps; ++s) {
    for (int g = 0; g < a->cfg.grids; ++g) {
      double* grid = a->grid[static_cast<std::size_t>(g)];
      {
        TaskGroup waitfor;
        for (int r = 0; r < a->regions; ++r) {
          c.spawn(Affinity::object(region_obj(a, a->scratch, r)), waitfor,
                  laplace_region(a, grid, a->scratch, r));
        }
        co_await c.wait(waitfor);
      }
      {
        TaskGroup waitfor;
        for (int r = 0; r < a->regions; ++r) {
          c.spawn(Affinity::object(region_obj(a, grid, r)), waitfor,
                  add_region(a, grid, a->scratch, r));
        }
        co_await c.wait(waitfor);
      }
    }
    if (a->cfg.multigrid_levels > 0) {
      // SPLASH Ocean's multigrid solve phase: a V-cycle on the first grid,
      // run as a sub-task (tasks block only at their own top level).
      TaskGroup waitfor;
      c.spawn(Affinity::none(), waitfor, run_vcycle(a));
      co_await c.wait(waitfor);
    }
  }
}

void init_grids(const Config& cfg, std::vector<std::vector<double>>& out) {
  util::Rng rng(cfg.seed);
  out.assign(static_cast<std::size_t>(cfg.grids),
             std::vector<double>(static_cast<std::size_t>(cfg.n) * cfg.n));
  for (auto& g : out) {
    for (auto& x : g) x = rng.next_double();
  }
}

}  // namespace

Result run(Runtime& rt, const Config& cfg) {
  COOL_CHECK(cfg.n >= 8, "ocean: grid too small");
  COOL_CHECK(cfg.grids >= 1 && cfg.steps >= 1, "ocean: empty problem");
  const auto P = rt.machine().n_procs;

  App app;
  app.cfg = cfg;
  app.n = cfg.n;
  app.regions = static_cast<int>(P) * std::max(1, cfg.regions_per_proc);
  COOL_CHECK(app.regions <= cfg.n, "ocean: more regions than rows");

  std::vector<std::vector<double>> init;
  init_grids(cfg, init);

  const std::size_t cells = static_cast<std::size_t>(cfg.n) * cfg.n;
  app.grid.resize(static_cast<std::size_t>(cfg.grids));
  for (int g = 0; g < cfg.grids; ++g) {
    app.grid[static_cast<std::size_t>(g)] = rt.alloc_array<double>(cells, 0);
    std::copy(init[static_cast<std::size_t>(g)].begin(),
              init[static_cast<std::size_t>(g)].end(),
              app.grid[static_cast<std::size_t>(g)]);
  }
  app.scratch = rt.alloc_array<double>(cells, 0);

  if (cfg.multigrid_levels > 0) {
    // Test the level count first: shifting an int by 32 or more is undefined.
    COOL_CHECK(cfg.multigrid_levels < 32 && cfg.n >> cfg.multigrid_levels >= 8,
               "ocean: too many multigrid levels for this grid");
    app.lvl.push_back(app.grid[0]);
    app.lvl_scratch.push_back(app.scratch);
    for (int k = 1; k <= cfg.multigrid_levels; ++k) {
      const std::size_t nk = static_cast<std::size_t>(cfg.n >> k);
      app.lvl.push_back(rt.alloc_array<double>(nk * nk, 0));
      app.lvl_scratch.push_back(rt.alloc_array<double>(nk * nk, 0));
    }
  }

  // The Figure 5 distribute() step: corresponding regions of every grid to
  // the same processor's local memory (setup-time; not charged).
  const bool distribute =
      cfg.variant == Variant::kDistr || cfg.variant == Variant::kDistrNoAff;
  if (distribute) {
    for (int r = 0; r < app.regions; ++r) {
      const auto target = static_cast<std::int64_t>(
          r / std::max(1, cfg.regions_per_proc));
      const int r0 = app.row_begin(r);
      const int r1 = app.row_end(r);
      const std::size_t bytes =
          static_cast<std::size_t>(r1 - r0) * cfg.n * sizeof(double);
      for (int g = 0; g < cfg.grids; ++g) {
        rt.migrate(&app.grid[static_cast<std::size_t>(g)]
                            [static_cast<std::size_t>(r0) * cfg.n],
                   target, bytes);
      }
      rt.migrate(&app.scratch[static_cast<std::size_t>(r0) * cfg.n], target,
                 bytes);
    }
    // Distribute the coarse multigrid levels the same way.
    for (int k = 1; k <= cfg.multigrid_levels; ++k) {
      const int nk = app.lvl_n(k);
      for (int r = 0; r < app.lvl_regions(k); ++r) {
        const int r0 = app.lvl_row_begin(k, r);
        const int r1 = app.lvl_row_end(k, r);
        const std::size_t bytes =
            static_cast<std::size_t>(r1 - r0) * nk * sizeof(double);
        rt.migrate(&app.lvl[static_cast<std::size_t>(k)]
                           [static_cast<std::size_t>(r0) * nk],
                   r, bytes);
        rt.migrate(&app.lvl_scratch[static_cast<std::size_t>(k)]
                                   [static_cast<std::size_t>(r0) * nk],
                   r, bytes);
      }
    }
  }

  // Name the major arrays for the locality profiler (after distribute(), so
  // the registered homes reflect the placement the run actually sees).
  {
    char name[32];
    for (int g = 0; g < cfg.grids; ++g) {
      std::snprintf(name, sizeof name, "grid[%d]", g);
      rt.profile_register(name, app.grid[static_cast<std::size_t>(g)],
                          cells * sizeof(double));
    }
    rt.profile_register("scratch", app.scratch, cells * sizeof(double));
    for (int k = 1; k <= cfg.multigrid_levels; ++k) {
      const std::size_t nk = static_cast<std::size_t>(cfg.n >> k);
      std::snprintf(name, sizeof name, "mg_lvl[%d]", k);
      rt.profile_register(name, app.lvl[static_cast<std::size_t>(k)],
                          nk * nk * sizeof(double));
      std::snprintf(name, sizeof name, "mg_scratch[%d]", k);
      rt.profile_register(name, app.lvl_scratch[static_cast<std::size_t>(k)],
                          nk * nk * sizeof(double));
    }
  }

  rt.run(root_task(&app));

  double checksum = 0.0;
  for (int g = 0; g < cfg.grids; ++g) {
    for (std::size_t i = 0; i < cells; ++i) {
      checksum += app.grid[static_cast<std::size_t>(g)][i];
    }
  }
  for (int k = 1; k <= cfg.multigrid_levels; ++k) {
    const std::size_t nk = static_cast<std::size_t>(cfg.n >> k);
    for (std::size_t i = 0; i < nk * nk; ++i) {
      checksum += app.lvl[static_cast<std::size_t>(k)][i];
    }
  }
  Result res;
  res.checksum = checksum;
  res.run = collect(rt, checksum);
  return res;
}

double serial_checksum(const Config& cfg, std::uint32_t) {
  std::vector<std::vector<double>> grids;
  init_grids(cfg, grids);
  const int n = cfg.n;
  std::vector<double> scratch(static_cast<std::size_t>(n) * n, 0.0);
  // Multigrid level buffers (index 0 unused: level 0 is grids[0]/scratch).
  std::vector<std::vector<double>> mg_lvl(
      static_cast<std::size_t>(cfg.multigrid_levels) + 1);
  std::vector<std::vector<double>> mg_scr(
      static_cast<std::size_t>(cfg.multigrid_levels) + 1);
  mg_scr[0] = std::vector<double>(static_cast<std::size_t>(n) * n, 0.0);
  for (int k = 1; k <= cfg.multigrid_levels; ++k) {
    const std::size_t nk = static_cast<std::size_t>(n >> k);
    mg_lvl[static_cast<std::size_t>(k)].assign(nk * nk, 0.0);
    mg_scr[static_cast<std::size_t>(k)].assign(nk * nk, 0.0);
  }

  for (int s = 0; s < cfg.steps; ++s) {
    for (int g = 0; g < cfg.grids; ++g) {
      auto& grid = grids[static_cast<std::size_t>(g)];
      for (int i = 0; i < n; ++i) {
        for (int j = 0; j < n; ++j) {
          const std::size_t at = static_cast<std::size_t>(i) * n + j;
          if (i == 0 || i == n - 1 || j == 0 || j == n - 1) {
            scratch[at] = grid[at];
          } else {
            scratch[at] =
                grid[at] +
                cfg.alpha * (grid[at - static_cast<std::size_t>(n)] +
                             grid[at + static_cast<std::size_t>(n)] +
                             grid[at - 1] + grid[at + 1] - 4.0 * grid[at]);
          }
        }
      }
      for (std::size_t at = 0; at < scratch.size(); ++at) {
        grid[at] += cfg.beta * scratch[at];
      }
    }
    if (cfg.multigrid_levels > 0) {
      // Mirror the parallel V-cycle exactly, via the same row helpers.
      const int L = cfg.multigrid_levels;
      auto level_data = [&](int k) -> double* {
        return k == 0 ? grids[0].data() : mg_lvl[static_cast<std::size_t>(k)].data();
      };
      for (int k = 0; k < L; ++k) {
        const int nk = n >> k;
        mg_smooth_rows(level_data(k), mg_scr[static_cast<std::size_t>(k)].data(),
                       nk, 0, nk, cfg.alpha);
        std::copy(mg_scr[static_cast<std::size_t>(k)].begin(),
                  mg_scr[static_cast<std::size_t>(k)].begin() +
                      static_cast<std::ptrdiff_t>(nk) * nk,
                  level_data(k));
        mg_restrict_rows(level_data(k), level_data(k + 1), nk / 2, 0, nk / 2);
      }
      for (int k = L - 1; k >= 0; --k) {
        const int nk = n >> k;
        mg_prolong_rows(level_data(k), level_data(k + 1), nk, 0, nk,
                        cfg.beta * 0.5);
        mg_smooth_rows(level_data(k), mg_scr[static_cast<std::size_t>(k)].data(),
                       nk, 0, nk, cfg.alpha);
        std::copy(mg_scr[static_cast<std::size_t>(k)].begin(),
                  mg_scr[static_cast<std::size_t>(k)].begin() +
                      static_cast<std::ptrdiff_t>(nk) * nk,
                  level_data(k));
      }
    }
  }
  double checksum = 0.0;
  for (const auto& g : grids) {
    for (double x : g) checksum += x;
  }
  for (int k = 1; k <= cfg.multigrid_levels; ++k) {
    const std::size_t nk = static_cast<std::size_t>(n >> k);
    for (std::size_t i = 0; i < nk * nk; ++i) {
      checksum += mg_lvl[static_cast<std::size_t>(k)][i];
    }
  }
  return checksum;
}

}  // namespace cool::apps::ocean
