#include "core/thread_engine.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "core/cool.hpp"

namespace cool {
namespace {

SystemConfig thr_cfg(std::uint32_t procs) {
  SystemConfig cfg;
  cfg.mode = SystemConfig::Mode::kThreads;
  cfg.machine = topo::MachineConfig::dash(procs);
  cfg.thread_timeout_ms = 30000;
  return cfg;
}

TEST(ThreadEngine, RootTaskRuns) {
  Runtime rt(thr_cfg(4));
  std::atomic<int> x{0};
  rt.run([](std::atomic<int>* p) -> TaskFn {
    p->store(7);
    co_return;
  }(&x));
  EXPECT_EQ(x.load(), 7);
}

TEST(ThreadEngine, FanOutJoin) {
  Runtime rt(thr_cfg(8));
  std::vector<std::atomic<int>> v(200);
  rt.run([](std::vector<std::atomic<int>>* vv) -> TaskFn {
    auto& c = co_await self();
    TaskGroup waitfor;
    for (int i = 0; i < 200; ++i) {
      c.spawn(Affinity::none(), waitfor,
              [](std::atomic<int>* slot, int val) -> TaskFn {
                co_await self();
                slot->store(val);
              }(&(*vv)[static_cast<std::size_t>(i)], i + 1));
    }
    co_await c.wait(waitfor);
  }(&v));
  for (int i = 0; i < 200; ++i) EXPECT_EQ(v[static_cast<std::size_t>(i)].load(), i + 1);
  EXPECT_EQ(rt.tasks_completed(), 201u);
}

TEST(ThreadEngine, MutexMutualExclusionUnderRealConcurrency) {
  Runtime rt(thr_cfg(8));
  struct Shared {
    Mutex mu;
    int unprotected = 0;  // plain int: torn if mutual exclusion fails
  } sh;
  rt.run([](Shared* s) -> TaskFn {
    auto& c = co_await self();
    TaskGroup waitfor;
    for (int i = 0; i < 32; ++i) {
      c.spawn(Affinity::none(), waitfor, [](Shared* ss) -> TaskFn {
        auto& cc = co_await self();
        for (int k = 0; k < 50; ++k) {
          auto g = co_await cc.lock(ss->mu);
          ++ss->unprotected;
        }
      }(s));
    }
    co_await c.wait(waitfor);
  }(&sh));
  EXPECT_EQ(sh.unprotected, 32 * 50);
}

TEST(ThreadEngine, CondProducerConsumer) {
  Runtime rt(thr_cfg(4));
  struct Slot {
    Mutex mu;
    Cond nonempty, nonfull;
    bool full = false;
    int value = 0;
  } slot;
  long sum = 0;
  const int n = 200;
  rt.run([](Slot* s, long* out, int count) -> TaskFn {
    auto& c = co_await self();
    TaskGroup waitfor;
    c.spawn(Affinity::none(), waitfor, [](Slot* ss, int cnt) -> TaskFn {
      auto& cc = co_await self();
      for (int i = 1; i <= cnt; ++i) {
        auto g = co_await cc.lock(ss->mu);
        while (ss->full) co_await cc.wait(ss->nonfull, ss->mu);
        ss->value = i;
        ss->full = true;
        ss->nonempty.signal(cc);
      }
    }(s, count));
    c.spawn(Affinity::none(), waitfor, [](Slot* ss, long* acc, int cnt) -> TaskFn {
      auto& cc = co_await self();
      for (int i = 0; i < cnt; ++i) {
        auto g = co_await cc.lock(ss->mu);
        while (!ss->full) co_await cc.wait(ss->nonempty, ss->mu);
        *acc += ss->value;
        ss->full = false;
        ss->nonfull.signal(cc);
      }
    }(s, out, count));
    co_await c.wait(waitfor);
  }(&slot, &sum, n));
  EXPECT_EQ(sum, static_cast<long>(n) * (n + 1) / 2);
}

TEST(ThreadEngine, ExceptionPropagates) {
  Runtime rt(thr_cfg(4));
  EXPECT_THROW(rt.run([]() -> TaskFn {
    co_await self();
    throw util::Error("thread boom");
  }()),
               util::Error);
}

TEST(ThreadEngine, TimeoutDetectsDeadlock) {
  SystemConfig cfg = thr_cfg(2);
  cfg.thread_timeout_ms = 300;
  Runtime rt(cfg);
  static Mutex mu;  // outlives the stuck frame
  EXPECT_THROW(rt.run([]() -> TaskFn {
    auto& c = co_await self();
    auto g1 = co_await c.lock(mu);
    auto g2 = co_await c.lock(mu);  // self-deadlock
  }()),
               util::Error);
}

// Each hop lands a task pinned to a worker that has gone to sleep, so the
// enqueue itself must wake that worker: no other worker may steal a
// PROCESSOR-pinned task. The root (on proc 0) places a parent on proc 1; the
// parent waits until worker 0 sleeps, then places a child on proc 0 and
// blocks; the child waits until worker 1 sleeps, then completes, which
// resumes the parent on proc 1. A lost wakeup on place or on resume
// deadlocks the run, and the timeout turns that into a failure.
TEST(ThreadEngine, EnqueueWakesThePinnedSleeper) {
  SystemConfig cfg = thr_cfg(2);
  cfg.thread_timeout_ms = 5000;
  Runtime rt(cfg);
  std::atomic<int> done{0};
  rt.run([](std::atomic<int>* d) -> TaskFn {
    auto& c = co_await self();
    TaskGroup outer;
    c.spawn(Affinity::processor(1), outer, [](std::atomic<int>* dd) -> TaskFn {
      auto& cc = co_await self();
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      TaskGroup inner;
      cc.spawn(Affinity::processor(0), inner, [](std::atomic<int>* d3) -> TaskFn {
        co_await self();
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        d3->fetch_add(1);
      }(dd));
      co_await cc.wait(inner);
      dd->fetch_add(1);
    }(d));
    co_await c.wait(outer);
  }(&done));
  EXPECT_EQ(done.load(), 2);
}

// The idle counters keep their sched.idle.* names under the thread engine,
// and the simulator, which never sleeps, no longer reports them.
TEST(ThreadEngine, IdleCountersKeepTheirNames) {
  auto root = []() -> TaskFn {
    auto& c = co_await self();
    TaskGroup g;
    c.spawn(Affinity::processor(1), g, []() -> TaskFn {
      co_await self();
      // Long enough for worker 0, whose root is blocked, to fall asleep.
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }());
    co_await c.wait(g);
  };
  Runtime thr(thr_cfg(2));
  thr.run(root());
  const obs::Snapshot s = thr.obs_snapshot();
  ASSERT_EQ(s.values.count("sched.idle.sleeps"), 1u);
  ASSERT_EQ(s.values.count("sched.idle.wakeups"), 1u);
  EXPECT_GT(s.values.at("sched.idle.sleeps"), 0u);
  // Every worker left its last sleep before it was joined.
  EXPECT_EQ(s.values.at("sched.idle.wakeups"), s.values.at("sched.idle.sleeps"));

  SystemConfig sim;
  sim.machine = topo::MachineConfig::dash(2);
  Runtime rs(sim);
  rs.run(root());
  EXPECT_EQ(rs.obs_snapshot().values.count("sched.idle.sleeps"), 0u);
  EXPECT_EQ(rs.obs_snapshot().values.count("sched.idle.wakeups"), 0u);
}

TEST(ThreadEngine, HomeAndMigrateBookkeeping) {
  Runtime rt(thr_cfg(8));
  double* d = rt.alloc_array<double>(1024, /*home=*/2);
  EXPECT_EQ(rt.home(d), 2u);
  rt.migrate(d, 5, 1024 * sizeof(double));
  EXPECT_EQ(rt.home(d), 5u);
}

TEST(ThreadEngine, ManyPhasesStress) {
  Runtime rt(thr_cfg(8));
  std::atomic<long> total{0};
  rt.run([](std::atomic<long>* acc) -> TaskFn {
    auto& c = co_await self();
    for (int phase = 0; phase < 20; ++phase) {
      TaskGroup waitfor;
      for (int i = 0; i < 20; ++i) {
        c.spawn(Affinity::processor(i), waitfor,
                [](std::atomic<long>* a) -> TaskFn {
                  co_await self();
                  a->fetch_add(1);
                }(acc));
      }
      co_await c.wait(waitfor);
    }
  }(&total));
  EXPECT_EQ(total.load(), 400);
}

}  // namespace
}  // namespace cool
