#include "apps/cholesky/panel.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>

#include "common/rng.hpp"

namespace cool::apps::cholesky {

const char* panel_variant_name(PanelVariant v) {
  switch (v) {
    case PanelVariant::kBase:
      return "Base";
    case PanelVariant::kDistr:
      return "Distr";
    case PanelVariant::kDistrAff:
      return "Distr+Aff";
    case PanelVariant::kDistrAffCluster:
      return "Distr+Aff+ClusterStealing";
  }
  return "?";
}

sched::Policy panel_policy_for(PanelVariant v, std::uint32_t n_procs) {
  sched::Policy p;
  p.honor_affinity =
      v == PanelVariant::kDistrAff || v == PanelVariant::kDistrAffCluster;
  if (v == PanelVariant::kDistrAffCluster) {
    // The paper's cluster-scheduling experiment: idle processors may steal —
    // even OBJECT-pinned update tasks — but only within their cluster, so a
    // stolen task still references the destination panel in cluster-local
    // memory. On a one-cluster machine "within the cluster" means anywhere,
    // so the restriction is dropped there (validate_policy rejects the
    // vacuous flag).
    p.steal_object_tasks = true;
    p.steal_pinned_sets = true;
    p.cluster_only = topo::MachineConfig::dash(n_procs).n_clusters() > 1;
  }
  return p;
}

namespace {

struct Structure {
  std::vector<int> cols;                   ///< Columns per panel.
  std::vector<std::size_t> len;            ///< Doubles of data per panel.
  std::vector<std::vector<int>> targets;   ///< Panels each panel modifies.
  std::vector<int> pending;                ///< Modifier count per panel.
  std::uint64_t n_updates = 0;
};

Structure make_structure(const PanelConfig& cfg) {
  COOL_CHECK(cfg.n_panels >= 2, "panel: need at least two panels");
  COOL_CHECK(cfg.min_cols >= 1 && cfg.max_cols >= cfg.min_cols,
             "panel: bad column bounds");
  // Every panel then has at least one row, so no update overlap is empty.
  COOL_CHECK(cfg.row_scale >= 1, "panel: row scale must be at least 1");
  util::Rng rng(cfg.seed);
  const int n = cfg.n_panels;
  Structure s;
  s.cols.resize(static_cast<std::size_t>(n));
  s.len.resize(static_cast<std::size_t>(n));
  s.targets.resize(static_cast<std::size_t>(n));
  s.pending.assign(static_cast<std::size_t>(n), 0);

  for (int p = 0; p < n; ++p) {
    s.cols[static_cast<std::size_t>(p)] = static_cast<int>(
        rng.next_in(cfg.min_cols, cfg.max_cols));
    const std::size_t rows =
        static_cast<std::size_t>(n - p) *
            static_cast<std::size_t>(cfg.row_scale) +
        rng.next_below(16);
    s.len[static_cast<std::size_t>(p)] =
        rows * static_cast<std::size_t>(s.cols[static_cast<std::size_t>(p)]);
  }
  // Elimination-forest structure: every panel has (at most) one parent to its
  // right; a panel's updates go to its parent and, with decreasing
  // probability, further ancestors up the chain (sparse Cholesky fill follows
  // the elimination-tree path). Panels that are nobody's target — roughly the
  // tree's leaves, a large fraction — are ready immediately, which is where
  // sparse Cholesky's task parallelism comes from.
  std::vector<int> parent(static_cast<std::size_t>(n), -1);
  for (int p = 0; p < n - 1; ++p) {
    const int q = p + 1 + static_cast<int>(rng.next_below(
                              static_cast<std::uint64_t>(cfg.parent_span)));
    parent[static_cast<std::size_t>(p)] = q < n ? q : -1;
  }
  for (int p = 0; p < n - 1; ++p) {
    auto& tg = s.targets[static_cast<std::size_t>(p)];
    int q = parent[static_cast<std::size_t>(p)];
    int hops = 0;
    while (q >= 0 && hops < cfg.extra_span) {
      if (hops == 0 || rng.next_double() < cfg.extra_edge_prob) {
        tg.push_back(q);
      }
      q = parent[static_cast<std::size_t>(q)];
      ++hops;
    }
    for (int t : tg) ++s.pending[static_cast<std::size_t>(t)];
    s.n_updates += tg.size();
  }
  return s;
}

/// Integer-valued "completion" of a panel: deterministic, commutative-safe.
void complete_math(double* d, std::size_t len) {
  for (std::size_t i = 0; i < len; ++i) {
    const auto v = static_cast<std::int64_t>(d[i]);
    d[i] = static_cast<double>(((v % 100003) * 31 + static_cast<std::int64_t>(
                                                        i % 257)) %
                               1021);
  }
}

/// Integer-valued update contribution: depends only on the (final) source.
/// Only the tail of the source panel — the rows overlapping the destination's
/// row range — participates, as in real supernodal cmod: far targets read a
/// small slice of the source, near targets most of it.
std::size_t overlap_len(std::size_t dst_len, std::size_t src_len) {
  return std::min(dst_len, src_len);
}

void update_math(double* dst, std::size_t dst_len, const double* src,
                 std::size_t src_len) {
  const std::size_t olen = overlap_len(dst_len, src_len);
  const double* tail = src + (src_len - olen);
  // dst[i] += tail[i % olen], walked in olen-sized chunks: the same additions
  // in the same order, without a divide per element.
  for (std::size_t base = 0; base < dst_len; base += olen) {
    const std::size_t n = std::min(olen, dst_len - base);
    for (std::size_t j = 0; j < n; ++j) dst[base + j] += tail[j];
  }
}

struct App {
  PanelConfig cfg;
  Structure st;
  std::vector<double*> panel;   ///< Panel data blocks.
  std::deque<Mutex> mu;         ///< Per-panel monitor (mutex function).
  std::vector<int> pending;     ///< Runtime copy of st.pending.
  TaskGroup group;

  Affinity update_affinity(int dst, int src) const {
    if (cfg.variant == PanelVariant::kBase || cfg.variant == PanelVariant::kDistr) {
      return Affinity::none();
    }
    // Figure 13: affinity(src, TASK); affinity(this, OBJECT).
    return Affinity::task_object(panel[static_cast<std::size_t>(src)],
                                 panel[static_cast<std::size_t>(dst)]);
  }
  Affinity complete_affinity(int p) const {
    if (cfg.variant == PanelVariant::kBase || cfg.variant == PanelVariant::kDistr) {
      return Affinity::none();
    }
    return Affinity::object(panel[static_cast<std::size_t>(p)]);
  }
};

TaskFn update_panel(App* a, int dst, int src);

/// CompletePanel: internal completion, then produce the updates this panel
/// owes to panels on its right (paper Figure 13).
TaskFn complete_panel(App* a, int p) {
  auto& c = co_await self();
  double* d = a->panel[static_cast<std::size_t>(p)];
  const std::size_t len = a->st.len[static_cast<std::size_t>(p)];
  const auto cols = static_cast<std::uint64_t>(
      a->st.cols[static_cast<std::size_t>(p)]);

  c.update(d, len * sizeof(double));
  complete_math(d, len);
  // Internal factorization: ~cols fused multiply-adds per panel element,
  // at ~4 cycles per R3000 flop.
  c.work(len * cols * 4);

  for (int q : a->st.targets[static_cast<std::size_t>(p)]) {
    c.spawn(a->update_affinity(q, p), a->group, update_panel(a, q, p));
  }
}

/// UpdatePanel: `parallel mutex` on the destination panel.
TaskFn update_panel(App* a, int dst, int src) {
  auto& c = co_await self();
  auto g = co_await c.lock(a->mu[static_cast<std::size_t>(dst)]);

  double* d = a->panel[static_cast<std::size_t>(dst)];
  const double* sp = a->panel[static_cast<std::size_t>(src)];
  const std::size_t dlen = a->st.len[static_cast<std::size_t>(dst)];
  const std::size_t slen = a->st.len[static_cast<std::size_t>(src)];

  const std::size_t olen = overlap_len(dlen, slen);
  c.read(sp + (slen - olen), olen * sizeof(double));
  c.update(d, dlen * sizeof(double));
  update_math(d, dlen, sp, slen);
  // Supernodal update: cols_src multiply-add pairs per destination element.
  c.work(dlen * static_cast<std::uint64_t>(
                    a->st.cols[static_cast<std::size_t>(src)]) *
         8);

  if (--a->pending[static_cast<std::size_t>(dst)] == 0) {
    c.spawn(a->complete_affinity(dst), a->group, complete_panel(a, dst));
  }
}

TaskFn root_task(App* a) {
  auto& c = co_await self();
  // Start with the initially ready panels (paper Figure 13 main()). Read the
  // structure's counts, not the runtime ones: under real threads the panels
  // spawned so far already run, and a panel whose last update has arrived
  // has had its completion spawned by that update.
  for (int p = 0; p < a->cfg.n_panels; ++p) {
    if (a->st.pending[static_cast<std::size_t>(p)] == 0) {
      c.spawn(a->complete_affinity(p), a->group, complete_panel(a, p));
    }
  }
  co_await c.wait(a->group);
}

void init_panel_data(double* d, std::size_t len, int p) {
  for (std::size_t i = 0; i < len; ++i) {
    d[i] = static_cast<double>((static_cast<std::size_t>(p) * 131 + i * 7) %
                               509);
  }
}

}  // namespace

PanelResult run_panel(Runtime& rt, const PanelConfig& cfg) {
  const auto P = rt.machine().n_procs;
  App app;
  app.cfg = cfg;
  app.st = make_structure(cfg);
  app.pending = app.st.pending;

  const bool distribute = cfg.variant != PanelVariant::kBase;
  app.panel.resize(static_cast<std::size_t>(cfg.n_panels));
  for (int p = 0; p < cfg.n_panels; ++p) {
    // Distribute panels across processors' memories round-robin
    // (Figure 13: `for p: migrate(panel+p, p)`), or all on processor 0.
    const std::int64_t home = distribute ? (p % static_cast<int>(P)) : 0;
    app.panel[static_cast<std::size_t>(p)] = rt.alloc_array<double>(
        app.st.len[static_cast<std::size_t>(p)], home);
    init_panel_data(app.panel[static_cast<std::size_t>(p)],
                    app.st.len[static_cast<std::size_t>(p)], p);
  }
  for (int p = 0; p < cfg.n_panels; ++p) app.mu.emplace_back();

  {
    char name[28];
    for (int p = 0; p < cfg.n_panels; ++p) {
      std::snprintf(name, sizeof name, "panel[%d]", p);
      rt.profile_register(
          name, app.panel[static_cast<std::size_t>(p)],
          app.st.len[static_cast<std::size_t>(p)] * sizeof(double));
    }
  }

  rt.run(root_task(&app));

  double checksum = 0.0;
  for (int p = 0; p < cfg.n_panels; ++p) {
    const double* d = app.panel[static_cast<std::size_t>(p)];
    for (std::size_t i = 0; i < app.st.len[static_cast<std::size_t>(p)]; ++i) {
      checksum += d[i];
    }
  }

  PanelResult res;
  res.checksum = checksum;
  res.updates = app.st.n_updates;
  res.run = collect(rt, checksum);
  return res;
}

double panel_serial_checksum(const PanelConfig& cfg) {
  Structure st = make_structure(cfg);
  std::vector<std::vector<double>> panel(static_cast<std::size_t>(cfg.n_panels));
  for (int p = 0; p < cfg.n_panels; ++p) {
    panel[static_cast<std::size_t>(p)].resize(
        st.len[static_cast<std::size_t>(p)]);
    init_panel_data(panel[static_cast<std::size_t>(p)].data(),
                    st.len[static_cast<std::size_t>(p)], p);
  }
  // Topological order: every modifier has a smaller index than its target,
  // and by induction panel p has received all updates by the time the loop
  // reaches it.
  for (int p = 0; p < cfg.n_panels; ++p) {
    auto& d = panel[static_cast<std::size_t>(p)];
    complete_math(d.data(), d.size());
    for (int q : st.targets[static_cast<std::size_t>(p)]) {
      auto& t = panel[static_cast<std::size_t>(q)];
      update_math(t.data(), t.size(), d.data(), d.size());
    }
  }
  double checksum = 0.0;
  for (const auto& d : panel) {
    for (double x : d) checksum += x;
  }
  return checksum;
}

}  // namespace cool::apps::cholesky
