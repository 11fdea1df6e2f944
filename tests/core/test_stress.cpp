// Randomised stress tests: generate random task DAGs with mixed affinity
// hints, mutex-protected counters and nested groups, run them under both
// engines, and check that the results are exactly what a sequential
// evaluation would produce.
#include <gtest/gtest.h>

#include <atomic>
#include <type_traits>
#include <vector>

#include "common/rng.hpp"
#include "core/cool.hpp"

namespace cool {
namespace {

struct Graph {
  // Node i waits for all parents < i, then adds its weight to a shared,
  // mutex-protected accumulator and to its own slot.
  std::vector<std::vector<int>> children;
  std::vector<int> pending;
  std::vector<long> weight;
  int n = 0;
};

Graph make_graph(int n, std::uint64_t seed) {
  util::Rng rng(seed);
  Graph g;
  g.n = n;
  g.children.resize(static_cast<std::size_t>(n));
  g.pending.assign(static_cast<std::size_t>(n), 0);
  g.weight.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    g.weight[static_cast<std::size_t>(i)] = rng.next_in(1, 100);
    // Each node other than 0 gets 1..3 parents among earlier nodes.
    if (i > 0) {
      const int parents = static_cast<int>(rng.next_in(1, 3));
      for (int k = 0; k < parents; ++k) {
        const int p = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(i)));
        g.children[static_cast<std::size_t>(p)].push_back(i);
        ++g.pending[static_cast<std::size_t>(i)];
      }
    }
  }
  return g;
}

struct Shared {
  Graph g;
  Mutex mu;                 // protects `total` and `pending`
  long total = 0;
  std::vector<long> slot;
  double* blob = nullptr;   // arena memory for affinity hints
  TaskGroup group;
};

// Deterministic per-node hint mix (no shared RNG: tasks call this
// concurrently under the thread engine).
Affinity random_aff(Shared* s, int node) {
  switch ((node * 2654435761u) % 5) {
    case 0:
      return Affinity::none();
    case 1:
      return Affinity::object(&s->blob[node * 64]);
    case 2:
      return Affinity::task(&s->blob[(node % 7) * 512]);
    case 3:
      return Affinity::processor(node);
    default:
      return Affinity::task_object(&s->blob[(node % 5) * 512],
                                   &s->blob[node * 64]);
  }
}

TaskFn node_task(Shared* s, int node);

TaskFn node_task(Shared* s, int node) {
  auto& c = co_await self();
  c.work(static_cast<std::uint64_t>(
      s->g.weight[static_cast<std::size_t>(node)]));
  std::vector<int> ready;
  {
    auto g = co_await c.lock(s->mu);
    s->total += s->g.weight[static_cast<std::size_t>(node)];
    s->slot[static_cast<std::size_t>(node)] += 1;
    for (int ch : s->g.children[static_cast<std::size_t>(node)]) {
      if (--s->g.pending[static_cast<std::size_t>(ch)] == 0) {
        ready.push_back(ch);
      }
    }
  }
  for (int ch : ready) {
    c.spawn(random_aff(s, ch), s->group, node_task(s, ch));
  }
}

TaskFn root(Shared* s) {
  auto& c = co_await self();
  c.spawn(random_aff(s, 0), s->group, node_task(s, 0));
  co_await c.wait(s->group);
}

// gtest names each instantiation after the raw bytes of its Params, so the
// struct must hold no indeterminate padding: `reserved` fills the hole
// after `nodes` and stays zero, keeping the test names stable across runs.
struct Params {
  int nodes;
  std::uint32_t reserved = 0;
  std::uint64_t seed;
  std::uint32_t procs;
  SystemConfig::Mode mode;
};
static_assert(std::has_unique_object_representations_v<Params>,
              "Params must have no padding bytes");

class DagStress : public ::testing::TestWithParam<Params> {};

TEST_P(DagStress, EveryNodeRunsExactlyOnce) {
  const Params prm = GetParam();
  SystemConfig sc;
  sc.mode = prm.mode;
  sc.machine = topo::MachineConfig::dash(prm.procs);
  Runtime rt(sc);

  Shared s;
  s.g = make_graph(prm.nodes, prm.seed);
  s.slot.assign(static_cast<std::size_t>(prm.nodes), 0);
  s.blob = rt.alloc_array<double>(64 * 1024, 0);

  rt.run(root(&s));

  long expect = 0;
  for (long w : s.g.weight) expect += w;
  EXPECT_EQ(s.total, expect);
  for (int i = 0; i < prm.nodes; ++i) {
    EXPECT_EQ(s.slot[static_cast<std::size_t>(i)], 1) << "node " << i;
  }
  EXPECT_EQ(rt.tasks_completed(), static_cast<std::uint64_t>(prm.nodes) + 1);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DagStress,
    ::testing::Values(Params{.nodes = 50, .seed = 1, .procs = 4,
                             .mode = SystemConfig::Mode::kSim},
                      Params{.nodes = 200, .seed = 2, .procs = 8,
                             .mode = SystemConfig::Mode::kSim},
                      Params{.nodes = 500, .seed = 3, .procs = 32,
                             .mode = SystemConfig::Mode::kSim},
                      Params{.nodes = 1000, .seed = 4, .procs = 16,
                             .mode = SystemConfig::Mode::kSim},
                      Params{.nodes = 50, .seed = 5, .procs = 4,
                             .mode = SystemConfig::Mode::kThreads},
                      Params{.nodes = 200, .seed = 6, .procs = 8,
                             .mode = SystemConfig::Mode::kThreads},
                      Params{.nodes = 500, .seed = 7, .procs = 16,
                             .mode = SystemConfig::Mode::kThreads}));

// Failure injection: one node throws; the error must surface, and the engine
// must stay reusable afterwards (no leaked state corrupting the next run).
TEST(DagStressFailure, ExceptionSurfacesAndEngineSurvives) {
  SystemConfig sc;
  sc.machine = topo::MachineConfig::dash(8);
  Runtime rt(sc);
  auto boom = []() -> TaskFn {
    auto& c = co_await self();
    TaskGroup waitfor;
    for (int i = 0; i < 20; ++i) {
      c.spawn(Affinity::none(), waitfor, [](int k) -> TaskFn {
        auto& cc = co_await self();
        cc.work(100);
        if (k == 13) throw util::Error("injected failure");
      }(i));
    }
    co_await c.wait(waitfor);
  };
  EXPECT_THROW(rt.run(boom()), util::Error);
  // A fresh runtime still works (engine-level state was not corrupted).
  SystemConfig sc2;
  sc2.machine = topo::MachineConfig::dash(8);
  Runtime rt2(sc2);
  int ok = 0;
  rt2.run([](int* o) -> TaskFn {
    co_await self();
    *o = 1;
  }(&ok));
  EXPECT_EQ(ok, 1);
}

TEST(DagStressFailure, ThreadEngineExceptionSurfaces) {
  SystemConfig sc;
  sc.mode = SystemConfig::Mode::kThreads;
  sc.machine = topo::MachineConfig::dash(4);
  Runtime rt(sc);
  EXPECT_THROW(rt.run([]() -> TaskFn {
    auto& c = co_await self();
    TaskGroup waitfor;
    for (int i = 0; i < 10; ++i) {
      c.spawn(Affinity::none(), waitfor, [](int k) -> TaskFn {
        co_await self();
        if (k == 7) throw util::Error("thread injected failure");
      }(i));
    }
    co_await c.wait(waitfor);
  }()),
               util::Error);
}

}  // namespace
}  // namespace cool
