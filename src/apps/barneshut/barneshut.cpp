#include "apps/barneshut/barneshut.hpp"

#include <algorithm>
#include <cmath>

#include "common/rng.hpp"

namespace cool::apps::barneshut {

const char* variant_name(Variant v) {
  switch (v) {
    case Variant::kBase:
      return "Base";
    case Variant::kDistrAff:
      return "Distr+Aff";
  }
  return "?";
}

sched::Policy policy_for(Variant v) {
  sched::Policy p;
  p.honor_affinity = v == Variant::kDistrAff;
  return p;
}

namespace {

struct Body {
  double pos[3];
  double vel[3];
  double acc[3];
  double mass;
};

constexpr int kLeafCap = 16;  // keeps the tree compact enough to cache well

struct Node {
  double center[3];  ///< Cell centre.
  double half;       ///< Half side length.
  double com[3];     ///< Centre of mass.
  double mass;
  std::int32_t child[8];  ///< -1 = absent. Leaf iff n_bodies >= 0.
  std::int32_t bodies[kLeafCap];
  std::int32_t n_bodies;  ///< -1 for internal nodes.
};

struct App {
  Config cfg;
  Body* body = nullptr;
  Node* node = nullptr;  ///< Pool, reused each step.
  int node_cap = 0;
  int n_nodes = 0;
  int n_blocks = 0;

  [[nodiscard]] int block_begin(int b) const { return b * cfg.block_size; }
  [[nodiscard]] int block_end(int b) const {
    return std::min(cfg.n_bodies, (b + 1) * cfg.block_size);
  }
};

int new_node(App* a, const double center[3], double half) {
  COOL_CHECK(a->n_nodes < a->node_cap, "barneshut: node pool exhausted");
  Node& n = a->node[a->n_nodes];
  for (int d = 0; d < 3; ++d) {
    n.center[d] = center[d];
    n.com[d] = 0.0;
  }
  n.half = half;
  n.mass = 0.0;
  for (int k = 0; k < 8; ++k) n.child[k] = -1;
  n.n_bodies = 0;
  return a->n_nodes++;
}

int octant_of(const Node& n, const Body& b) {
  int oct = 0;
  for (int d = 0; d < 3; ++d) {
    if (b.pos[d] >= n.center[d]) oct |= 1 << d;
  }
  return oct;
}

void child_center(const Node& n, int oct, double out[3]) {
  for (int d = 0; d < 3; ++d) {
    out[d] = n.center[d] + ((oct >> d) & 1 ? 0.5 : -0.5) * n.half;
  }
}

void insert_body(App* a, int node_idx, int body_idx, int depth) {
  Node* n = &a->node[node_idx];
  if (n->n_bodies >= 0) {  // leaf
    if (n->n_bodies < kLeafCap || depth > 40) {
      COOL_CHECK(n->n_bodies < kLeafCap,
                 "barneshut: coincident bodies overflow a leaf");
      n->bodies[n->n_bodies++] = body_idx;
      return;
    }
    // Split: push the resident bodies down.
    std::int32_t old[kLeafCap];
    const int cnt = n->n_bodies;
    for (int i = 0; i < cnt; ++i) old[i] = n->bodies[i];
    n->n_bodies = -1;
    for (int i = 0; i < cnt; ++i) {
      // (re-fetch: new_node may reallocate nothing — pool is stable — but
      // n may have been invalidated by recursion below; re-index instead.)
      Node& nn = a->node[node_idx];
      const int oct = octant_of(nn, a->body[old[i]]);
      if (nn.child[oct] < 0) {
        double cc[3];
        child_center(nn, oct, cc);
        nn.child[oct] = new_node(a, cc, nn.half * 0.5);
      }
      insert_body(a, a->node[node_idx].child[oct], old[i], depth + 1);
    }
    // fall through to insert the new body into this (now internal) node
    n = &a->node[node_idx];
  }
  const int oct = octant_of(*n, a->body[body_idx]);
  if (n->child[oct] < 0) {
    double cc[3];
    child_center(*n, oct, cc);
    const int fresh = new_node(a, cc, n->half * 0.5);
    a->node[node_idx].child[oct] = fresh;
  }
  insert_body(a, a->node[node_idx].child[oct], body_idx, depth + 1);
}

/// Bottom-up mass/centre-of-mass summary.
void summarize(App* a, int node_idx) {
  Node& n = a->node[node_idx];
  if (n.n_bodies >= 0) {
    for (int i = 0; i < n.n_bodies; ++i) {
      const Body& b = a->body[n.bodies[i]];
      n.mass += b.mass;
      for (int d = 0; d < 3; ++d) n.com[d] += b.mass * b.pos[d];
    }
  } else {
    for (int k = 0; k < 8; ++k) {
      if (n.child[k] < 0) continue;
      summarize(a, n.child[k]);
      const Node& ch = a->node[n.child[k]];
      n.mass += ch.mass;
      for (int d = 0; d < 3; ++d) n.com[d] += ch.mass * ch.com[d];
    }
  }
  if (n.mass > 0.0) {
    for (int d = 0; d < 3; ++d) n.com[d] /= n.mass;
  }
}

void accumulate(const double from[3], const double to[3], double mass,
                double eps, double acc[3]) {
  double dx[3];
  double r2 = eps * eps;
  for (int d = 0; d < 3; ++d) {
    dx[d] = from[d] - to[d];
    r2 += dx[d] * dx[d];
  }
  const double inv = mass / (r2 * std::sqrt(r2));
  for (int d = 0; d < 3; ++d) acc[d] += inv * dx[d];
}

/// Tree-walk force on one body; each visited node is charged through the
/// memory model (the hot upper levels of the tree stay cached).
void body_force(Ctx& c, App* a, int body_idx, std::vector<int>& stack,
                double acc[3], std::uint64_t* visits) {
  const Body& b = a->body[body_idx];
  const double theta2 = a->cfg.theta * a->cfg.theta;
  acc[0] = acc[1] = acc[2] = 0.0;
  stack.clear();
  stack.push_back(0);
  while (!stack.empty()) {
    const Node& n = a->node[stack.back()];
    stack.pop_back();
    c.read(&n, sizeof(Node));
    ++*visits;
    if (n.mass <= 0.0) continue;
    if (n.n_bodies >= 0) {  // leaf: exact interactions
      for (int i = 0; i < n.n_bodies; ++i) {
        if (n.bodies[i] == body_idx) continue;
        const Body& o = a->body[n.bodies[i]];
        accumulate(o.pos, b.pos, o.mass, a->cfg.eps, acc);
      }
      continue;
    }
    double dx2 = 0.0;
    for (int d = 0; d < 3; ++d) {
      const double dd = n.com[d] - b.pos[d];
      dx2 += dd * dd;
    }
    const double size = 2.0 * n.half;
    if (size * size < theta2 * dx2) {
      accumulate(n.com, b.pos, n.mass, a->cfg.eps, acc);
    } else {
      for (int k = 0; k < 8; ++k) {
        if (n.child[k] >= 0) stack.push_back(n.child[k]);
      }
    }
  }
}

TaskFn force_block(App* a, int blk) {
  auto& c = co_await self();
  const int lo = a->block_begin(blk);
  const int hi = a->block_end(blk);
  c.read(&a->body[lo], static_cast<std::size_t>(hi - lo) * sizeof(Body));

  std::vector<int> stack;
  stack.reserve(128);
  std::uint64_t visits = 0;
  for (int i = lo; i < hi; ++i) {
    double acc[3];
    body_force(c, a, i, stack, acc, &visits);
    for (int d = 0; d < 3; ++d) a->body[i].acc[d] = acc[d];
  }
  c.work(visits * 60);  // ~15 flops per node interaction
  c.write(&a->body[lo], static_cast<std::size_t>(hi - lo) * sizeof(Body));
}

TaskFn integrate_block(App* a, int blk) {
  auto& c = co_await self();
  const int lo = a->block_begin(blk);
  const int hi = a->block_end(blk);
  c.update(&a->body[lo], static_cast<std::size_t>(hi - lo) * sizeof(Body));
  const double dt = a->cfg.dt;
  for (int i = lo; i < hi; ++i) {
    Body& b = a->body[i];
    for (int d = 0; d < 3; ++d) {
      b.vel[d] += b.acc[d] * dt;
      b.pos[d] += b.vel[d] * dt;
    }
  }
  c.work(static_cast<std::uint64_t>(hi - lo) * 12);
}

Affinity block_affinity(App* a, int blk) {
  if (a->cfg.variant == Variant::kBase) return Affinity::none();
  return Affinity::object(&a->body[a->block_begin(blk)]);
}

TaskFn root_task(App* a, double* max_err) {
  auto& c = co_await self();
  for (int s = 0; s < a->cfg.steps; ++s) {
    // (Re)build the octree — serial in the main task, like the original
    // COOL port's sequential tree build between parallel phases.
    a->n_nodes = 0;
    double lo = a->body[0].pos[0], hi = lo;
    for (int i = 0; i < a->cfg.n_bodies; ++i) {
      for (int d = 0; d < 3; ++d) {
        lo = std::min(lo, a->body[i].pos[d]);
        hi = std::max(hi, a->body[i].pos[d]);
      }
    }
    const double centre[3] = {(lo + hi) / 2, (lo + hi) / 2, (lo + hi) / 2};
    const int root = new_node(a, centre, (hi - lo) / 2 + 1e-9);
    COOL_CHECK(root == 0, "barneshut: root must be node 0");
    c.read(a->body, static_cast<std::size_t>(a->cfg.n_bodies) * sizeof(Body));
    for (int i = 0; i < a->cfg.n_bodies; ++i) insert_body(a, 0, i, 0);
    summarize(a, 0);
    // Build charge: one bulk write over the node pool plus per-insert path
    // work (the path nodes are hot in the builder's cache).
    c.write(a->node, static_cast<std::size_t>(a->n_nodes) * sizeof(Node));
    c.work(static_cast<std::uint64_t>(a->cfg.n_bodies) * 60 +
           static_cast<std::uint64_t>(a->n_nodes) * 16);

    {
      TaskGroup waitfor;
      for (int b = 0; b < a->n_blocks; ++b) {
        c.spawn(block_affinity(a, b), waitfor, force_block(a, b));
      }
      co_await c.wait(waitfor);
    }

    if (s == 0 && max_err != nullptr) {
      // Validate tree forces against direct summation for sampled bodies.
      double worst = 0.0;
      for (int i = 0; i < a->cfg.n_bodies; i += std::max(1, a->cfg.n_bodies / 32)) {
        double direct[3] = {0, 0, 0};
        const Body& b = a->body[i];
        for (int j = 0; j < a->cfg.n_bodies; ++j) {
          if (j == i) continue;
          accumulate(a->body[j].pos, b.pos, a->body[j].mass, a->cfg.eps,
                     direct);
        }
        double dnorm = 0.0, enorm = 0.0;
        for (int d = 0; d < 3; ++d) {
          dnorm += direct[d] * direct[d];
          const double e = direct[d] - b.acc[d];
          enorm += e * e;
        }
        if (dnorm > 0.0) {
          worst = std::max(worst, std::sqrt(enorm / dnorm));
        }
      }
      *max_err = worst;
    }

    {
      TaskGroup waitfor;
      for (int b = 0; b < a->n_blocks; ++b) {
        c.spawn(block_affinity(a, b), waitfor, integrate_block(a, b));
      }
      co_await c.wait(waitfor);
    }
  }
}

}  // namespace

Result run(Runtime& rt, const Config& cfg) {
  COOL_CHECK(cfg.n_bodies >= 16, "barneshut: too few bodies");
  COOL_CHECK(cfg.block_size >= 1, "barneshut: bad block size");
  COOL_CHECK(cfg.steps >= 1, "barneshut: no timesteps");
  const auto P = rt.machine().n_procs;

  App app;
  app.cfg = cfg;
  app.n_blocks = (cfg.n_bodies + cfg.block_size - 1) / cfg.block_size;
  app.node_cap = 4 * cfg.n_bodies + 64;

  app.body = rt.alloc_array<Body>(static_cast<std::size_t>(cfg.n_bodies), 0);
  app.node = rt.alloc_array<Node>(static_cast<std::size_t>(app.node_cap), 0);

  // Plummer-like initial conditions: bodies clustered around the centre with
  // a heavy tail, small random velocities, equal masses.
  util::Rng rng(cfg.seed);
  for (int i = 0; i < cfg.n_bodies; ++i) {
    Body& b = app.body[i];
    const double r =
        1.0 / std::sqrt(std::pow(rng.next_double() * 0.99 + 0.005, -2.0 / 3.0) -
                        1.0);
    // Random direction.
    double v[3];
    double norm = 0.0;
    for (int d = 0; d < 3; ++d) {
      v[d] = rng.next_gaussian();
      norm += v[d] * v[d];
    }
    norm = std::sqrt(norm) + 1e-12;
    for (int d = 0; d < 3; ++d) {
      b.pos[d] = r * v[d] / norm;
      b.vel[d] = 0.05 * rng.next_gaussian();
      b.acc[d] = 0.0;
    }
    b.mass = 1.0 / cfg.n_bodies;
  }

  if (cfg.variant == Variant::kDistrAff) {
    // Distribute body blocks round-robin; spread the (read-shared) tree pool
    // too so its bandwidth demand is not concentrated on one memory.
    for (int b = 0; b < app.n_blocks; ++b) {
      const int lo = app.block_begin(b);
      const int hi = app.block_end(b);
      rt.migrate(&app.body[lo], b % static_cast<int>(P),
                 static_cast<std::size_t>(hi - lo) * sizeof(Body));
    }
    const std::size_t node_bytes =
        static_cast<std::size_t>(app.node_cap) * sizeof(Node);
    const std::size_t slab = node_bytes / P + 1;
    for (std::uint32_t p = 0; p < P; ++p) {
      const std::size_t off = static_cast<std::size_t>(p) * slab;
      if (off >= node_bytes) break;
      rt.migrate(reinterpret_cast<char*>(app.node) + off, p,
                 std::min(slab, node_bytes - off));
    }
  }

  rt.profile_register("bodies", app.body,
                      static_cast<std::size_t>(cfg.n_bodies) * sizeof(Body));
  rt.profile_register("tree_nodes", app.node,
                      static_cast<std::size_t>(app.node_cap) * sizeof(Node));

  double max_err = 0.0;
  rt.run(root_task(&app, &max_err));

  Result res;
  res.max_force_error = max_err;
  for (int i = 0; i < cfg.n_bodies; ++i) {
    const Body& b = app.body[i];
    double v2 = 0.0;
    for (int d = 0; d < 3; ++d) v2 += b.vel[d] * b.vel[d];
    res.energy += 0.5 * b.mass * v2;
  }
  res.run = collect(rt, res.energy);
  return res;
}

}  // namespace cool::apps::barneshut
