// ThreadEngine's idle/wakeup protocol, driven directly: IdleGates next to a
// real Scheduler, the way the engine's workers use the pair. Suite names
// carry "ThreadEngine" so the TSan CI filter for test_core runs them.
#include "core/idle_gates.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "common/check.hpp"
#include "sched/scheduler.hpp"

namespace cool {
namespace {

// A worker sleeping in wait() wakes when work is placed for it, and
// notify_all() releases a sleeper whose give-up predicate turns true.
TEST(ThreadEngineIdle, ProtocolWakesSleepers) {
  const topo::MachineConfig machine = topo::MachineConfig::dash(2);
  sched::Scheduler s(machine, sched::Policy{},
                     [](std::uint64_t, topo::ProcId toucher) { return toucher; });
  IdleGates idle(machine.n_procs);

  // Sleeper on proc 1; wake it by placing a task for it.
  std::atomic<bool> got{false};
  std::thread sleeper([&] {
    for (;;) {
      const std::uint64_t seen = idle.version();
      const auto acq = s.acquire(1);
      if (acq.task != nullptr) {
        got.store(true);
        return;
      }
      if (acq.contended) continue;
      idle.wait(1, seen, [] { return false; });
    }
  });
  sched::TaskDesc t;
  t.aff = sched::Affinity::processor(1);
  idle.signal(s.place(&t, 0));
  sleeper.join();
  EXPECT_TRUE(got.load());

  // Sleeper released by notify_all once the stop flag is up.
  std::atomic<bool> stop{false};
  std::thread idler([&] {
    while (!stop.load()) {
      const std::uint64_t seen = idle.version();
      if (s.acquire(0).task != nullptr) continue;
      idle.wait(0, seen, [&] { return stop.load(); });
    }
  });
  stop.store(true);
  idle.notify_all();
  idler.join();
}

TEST(ThreadEngineIdle, WorkVersionNeverDecreases) {
  // Paranoid checking also advances the floor on every bump.
  util::ScopedCheckLevel lvl(util::CheckLevel::kParanoid);
  IdleGates idle(4);
  std::uint64_t last = idle.version();
  for (topo::ProcId p = 0; p < 8; ++p) {
    idle.signal(p % 4);
    const std::uint64_t now = idle.version();
    EXPECT_GT(now, last);  // every signal bumps the version
    last = now;
    idle.check_monotonic();  // asserts version >= recorded floor
  }
  idle.notify_all();
  EXPECT_GT(idle.version(), last);
  idle.check_monotonic();
}

}  // namespace
}  // namespace cool
