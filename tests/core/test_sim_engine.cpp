#include "core/sim_engine.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "core/cool.hpp"

namespace cool {
namespace {

SystemConfig sim_cfg(std::uint32_t procs) {
  SystemConfig cfg;
  cfg.mode = SystemConfig::Mode::kSim;
  cfg.machine = topo::MachineConfig::dash(procs);
  return cfg;
}

TEST(SimEngine, RootTaskRuns) {
  Runtime rt(sim_cfg(4));
  int x = 0;
  rt.run([](int* p) -> TaskFn {
    *p = 7;
    co_return;
  }(&x));
  EXPECT_EQ(x, 7);
  EXPECT_EQ(rt.tasks_completed(), 1u);
  EXPECT_GT(rt.sim_time(), 0u);
}

TaskFn child_add(std::vector<int>* v, int i) {
  auto& c = co_await self();
  c.work(100);
  (*v)[static_cast<std::size_t>(i)] = i * 2;
}

TaskFn fanout_root(std::vector<int>* v, int n) {
  auto& c = co_await self();
  TaskGroup waitfor;
  for (int i = 0; i < n; ++i) {
    c.spawn(Affinity::none(), waitfor, child_add(v, i));
  }
  co_await c.wait(waitfor);
}

TEST(SimEngine, FanOutJoinRunsAllChildren) {
  Runtime rt(sim_cfg(8));
  std::vector<int> v(100, -1);
  rt.run(fanout_root(&v, 100));
  for (int i = 0; i < 100; ++i) EXPECT_EQ(v[static_cast<std::size_t>(i)], i * 2);
  EXPECT_EQ(rt.tasks_completed(), 101u);
}

TEST(SimEngine, Deterministic) {
  auto once = [] {
    Runtime rt(sim_cfg(8));
    std::vector<int> v(64, 0);
    rt.run(fanout_root(&v, 64));
    return rt.sim_time();
  };
  const auto t1 = once();
  const auto t2 = once();
  EXPECT_EQ(t1, t2);
  EXPECT_GT(t1, 0u);
}

TEST(SimEngine, ParallelismShortensSimTime) {
  auto time_with = [](std::uint32_t procs) {
    Runtime rt(sim_cfg(procs));
    std::vector<int> v(256, 0);
    rt.run([](std::vector<int>* vv) -> TaskFn {
      auto& c = co_await self();
      TaskGroup waitfor;
      for (int i = 0; i < 256; ++i) {
        c.spawn(Affinity::none(), waitfor, [](std::vector<int>* v2, int j) -> TaskFn {
          auto& cc = co_await self();
          cc.work(5000);
          (*v2)[static_cast<std::size_t>(j)] = 1;
        }(vv, i));
      }
      co_await c.wait(waitfor);
    }(&v));
    return rt.sim_time();
  };
  const auto t1 = time_with(1);
  const auto t8 = time_with(8);
  EXPECT_LT(t8 * 4, t1);  // At least 4x speedup on 8 procs.
}

TEST(SimEngine, WorkChargesCycles) {
  Runtime rt(sim_cfg(1));
  rt.run([]() -> TaskFn {
    auto& c = co_await self();
    c.work(123456);
  }());
  EXPECT_GE(rt.sim_time(), 123456u);
}

TEST(SimEngine, MemoryAccessChargesLatency) {
  Runtime rt(sim_cfg(2));
  double* data = rt.alloc_array<double>(64, /*home=*/0);
  rt.run([](double* d) -> TaskFn {
    auto& c = co_await self();
    c.read(d, 64 * sizeof(double));
  }(data));
  const auto* mon = rt.monitor();
  ASSERT_NE(mon, nullptr);
  const auto total = mon->total();
  EXPECT_EQ(total.reads, 32u);  // 512 bytes / 16-byte lines
  EXPECT_GT(total.misses(), 0u);
}

TEST(SimEngine, ObjectAffinityRunsOnHomeProcessor) {
  Runtime rt(sim_cfg(8));
  double* data = rt.alloc_array<double>(512, /*home=*/5);
  topo::ProcId ran_on = 99;
  rt.run([](double* d, topo::ProcId* out) -> TaskFn {
    auto& c = co_await self();
    TaskGroup waitfor;
    c.spawn(Affinity::object(d), waitfor,
            [](topo::ProcId* o) -> TaskFn {
              auto& cc = co_await self();
              *o = cc.proc();
            }(out));
    co_await c.wait(waitfor);
  }(data, &ran_on));
  EXPECT_EQ(ran_on, 5u);
}

TEST(SimEngine, ProcessorAffinityModulo) {
  Runtime rt(sim_cfg(8));
  topo::ProcId ran_on = 99;
  rt.run([](topo::ProcId* out) -> TaskFn {
    auto& c = co_await self();
    TaskGroup waitfor;
    c.spawn(Affinity::processor(11), waitfor,  // 11 mod 8 == 3
            [](topo::ProcId* o) -> TaskFn {
              auto& cc = co_await self();
              *o = cc.proc();
            }(out));
    co_await c.wait(waitfor);
  }(&ran_on));
  EXPECT_EQ(ran_on, 3u);
}

// Processors whose clocks are equal resume in id order. The root runs first
// (proc 0) and pins one task to each other processor in descending id order;
// those processors all still sit at clock 0, so their tasks must start in
// ascending id order regardless of spawn order.
TEST(SimEngine, EqualClocksResumeInIdOrder) {
  Runtime rt(sim_cfg(8));
  std::vector<topo::ProcId> order;
  rt.run([](std::vector<topo::ProcId>* out) -> TaskFn {
    auto& c = co_await self();
    TaskGroup waitfor;
    for (std::int64_t p = 7; p >= 1; --p) {
      c.spawn(Affinity::processor(p), waitfor,
              [](std::vector<topo::ProcId>* o) -> TaskFn {
                auto& cc = co_await self();
                o->push_back(cc.proc());
              }(out));
    }
    co_await c.wait(waitfor);
  }(&order));
  EXPECT_EQ(order, (std::vector<topo::ProcId>{1, 2, 3, 4, 5, 6, 7}));
}

TEST(SimEngine, NestedSpawnsComplete) {
  Runtime rt(sim_cfg(4));
  std::vector<int> hits(64, 0);
  rt.run([](std::vector<int>* h) -> TaskFn {
    auto& c = co_await self();
    TaskGroup waitfor;
    for (int i = 0; i < 8; ++i) {
      c.spawn(Affinity::none(), waitfor, [](std::vector<int>* hh, int base,
                                            TaskGroup* grp) -> TaskFn {
        auto& cc = co_await self();
        for (int j = 0; j < 8; ++j) {
          cc.spawn(Affinity::none(), *grp, [](std::vector<int>* v, int k) -> TaskFn {
            auto& c3 = co_await self();
            c3.work(10);
            (*v)[static_cast<std::size_t>(k)] = 1;
          }(hh, base * 8 + j));
        }
      }(h, i, &waitfor));
    }
    co_await c.wait(waitfor);
  }(&hits));
  for (int v : hits) EXPECT_EQ(v, 1);
  EXPECT_EQ(rt.tasks_completed(), 1u + 8u + 64u);
}

TEST(SimEngine, TaskExceptionPropagates) {
  Runtime rt(sim_cfg(2));
  EXPECT_THROW(rt.run([]() -> TaskFn {
    co_await self();
    throw util::Error("boom");
  }()),
               util::Error);
}

TEST(SimEngine, DeadlockDetected) {
  Runtime rt(sim_cfg(2));
  // A task that locks a mutex twice deadlocks on itself.
  EXPECT_THROW(rt.run([]() -> TaskFn {
    auto& c = co_await self();
    static Mutex mu;  // static: outlives the aborted task frame
    auto g1 = co_await c.lock(mu);
    auto g2 = co_await c.lock(mu);
  }()),
               util::Error);
}

TEST(SimEngine, MigrateMovesHome) {
  Runtime rt(sim_cfg(8));
  double* data = rt.alloc_array<double>(512, /*home=*/0);
  rt.run([](double* d) -> TaskFn {
    auto& c = co_await self();
    c.migrate(d, 6, 512 * sizeof(double));
  }(data));
  EXPECT_EQ(rt.home(data), 6u);
}

TEST(SimEngine, YieldAllowsInterleaving) {
  Runtime rt(sim_cfg(1));
  std::vector<int> order;
  rt.run([](std::vector<int>* ord) -> TaskFn {
    auto& c = co_await self();
    TaskGroup waitfor;
    c.spawn(Affinity::none(), waitfor, [](std::vector<int>* o) -> TaskFn {
      auto& cc = co_await self();
      o->push_back(1);
      co_await cc.yield();
      o->push_back(3);
    }(ord));
    c.spawn(Affinity::none(), waitfor, [](std::vector<int>* o) -> TaskFn {
      co_await self();
      o->push_back(2);
    }(ord));
    co_await c.wait(waitfor);
  }(&order));
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 2);
  EXPECT_EQ(order[2], 3);
}

TEST(SimEngine, UtilizationAccounted) {
  Runtime rt(sim_cfg(4));
  std::vector<int> v(32, 0);
  rt.run(fanout_root(&v, 32));
  const auto util = rt.utilization();
  std::uint64_t busy = 0;
  for (const auto& u : util) busy += u.busy;
  EXPECT_GT(busy, 0u);
}

TEST(SimEngine, SchedStatsTrackSpawns) {
  Runtime rt(sim_cfg(4));
  std::vector<int> v(16, 0);
  rt.run(fanout_root(&v, 16));
  EXPECT_EQ(rt.sched_stats().spawned, 17u);  // root + 16 children
}

}  // namespace
}  // namespace cool
