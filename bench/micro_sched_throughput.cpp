// Scheduler-scaling microbenchmark: tasks/sec of spawn (place) + acquire +
// steal on one shared Scheduler across 1..N real OS threads, one thread per
// server. This is the contended-path benchmark for the sharded scheduler —
// with the old engine-wide lock, throughput fell as threads were added; with
// per-server locking it must not.
//
// Output: a cool-bench/1 JSON record (obs/bench_json.hpp) with one series row
// per thread count, on stdout, or in the file or directory --json-out names.
// Its rates are host time, so two runs never give the same record.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "common/options.hpp"
#include "common/table.hpp"
#include "obs/bench_json.hpp"
#include "sched/scheduler.hpp"
#include "topology/machine.hpp"

namespace {

using namespace cool;

struct Result {
  std::uint32_t threads = 0;
  std::size_t tasks = 0;
  double seconds = 0.0;
  std::uint64_t steals = 0;
};

/// A reusable task: `in_flight` is set by the placing owner and cleared by
/// whichever thread acquires the task, so a descriptor is never re-placed
/// while still sitting on (or stolen onto) some queue.
struct BenchTask {
  sched::TaskDesc d;
  std::atomic<bool> in_flight{false};
};

/// Each worker owns one server id and a pool of `batch` descriptors. It
/// places every free descriptor (a mix of task-affinity sets and plain
/// tasks, spawner = its own server) and acquires in between — acquires hit
/// the local queue first and steal from the other servers when it runs dry,
/// so the loop exercises place, pop, and the try_lock steal scan
/// concurrently. Runs until `grand_total` tasks were acquired fleet-wide.
void worker(sched::Scheduler& s, topo::ProcId id, std::size_t n_tasks,
            std::size_t batch, std::atomic<std::size_t>& acquired_total,
            std::size_t grand_total) {
  std::vector<BenchTask> pool(batch);
  for (BenchTask& b : pool) b.d.owner = &b;
  // Per-thread affinity objects: 4 sets per server, page-aligned like real
  // COOL objects so the key-mixing path is exercised.
  const std::uint64_t obj_base = 0x1000000ull * (id + 1);
  std::size_t placed = 0;
  // The exit condition is also the destruction barrier for `pool`: another
  // worker's steal writes to our descriptors' list hooks, and only its
  // release-increment of `acquired_total` below orders those writes before
  // this thread sees the final count and runs ~pool. Relaxed here would race.
  while (acquired_total.load(std::memory_order_acquire) < grand_total) {
    for (BenchTask& b : pool) {
      if (placed >= n_tasks) break;
      if (b.in_flight.load(std::memory_order_acquire)) continue;
      b.in_flight.store(true, std::memory_order_relaxed);
      if (placed % 2 == 0) {
        b.d.aff = sched::Affinity::task(
            reinterpret_cast<void*>(obj_base + (placed % 4) * 4096));
      } else {
        b.d.aff = sched::Affinity::none();
      }
      s.place(&b.d, id);
      ++placed;
    }
    const auto acq = s.acquire(id);
    if (acq.task != nullptr) {
      static_cast<BenchTask*>(acq.task->owner)
          ->in_flight.store(false, std::memory_order_release);
      // Release: orders every queue/hook write this thread made (including
      // steals of other workers' descriptors) before the acquire-load above.
      acquired_total.fetch_add(1, std::memory_order_release);
    } else if (!acq.contended) {
      std::this_thread::yield();
    }
  }
}

Result run_once(std::uint32_t n_threads, std::size_t tasks_per_thread,
                std::size_t batch) {
  const topo::MachineConfig machine = topo::MachineConfig::dash(n_threads);
  sched::Policy pol;
  pol.steal_object_tasks = true;
  sched::Scheduler s(machine, pol, [n_threads](std::uint64_t a, topo::ProcId) {
    return static_cast<topo::ProcId>((a >> 24) % n_threads);
  });

  const std::size_t grand_total = tasks_per_thread * n_threads;
  std::atomic<std::size_t> acquired_total{0};
  // cool-lint: allow(determinism): host-throughput bench measures real time
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (std::uint32_t i = 0; i < n_threads; ++i) {
    threads.emplace_back([&, i] {
      worker(s, static_cast<topo::ProcId>(i), tasks_per_thread, batch,
             acquired_total, grand_total);
    });
  }
  for (auto& t : threads) t.join();
  // cool-lint: allow(determinism): host-throughput bench measures real time
  const auto t1 = std::chrono::steady_clock::now();

  Result r;
  r.threads = n_threads;
  r.tasks = acquired_total.load();
  r.seconds = std::chrono::duration<double>(t1 - t0).count();
  r.steals = s.stats().steals;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  util::Options opt("micro_sched_throughput",
                    "tasks/sec of place+acquire+steal across 1..N threads");
  opt.add_int("max-threads", 8, "largest thread (= server) count in the sweep");
  opt.add_int("tasks", 100000, "tasks per thread per measurement");
  opt.add_int("batch", 64, "tasks placed per worker batch");
  opt.add_int("warmup", 1, "warm-up repetitions before the measured run");
  opt.add_string("json-out", "",
                 "write the JSON record to this file or directory "
                 "(default: stdout)");
  if (!opt.parse(argc, argv)) return 0;

  const auto max_threads =
      static_cast<std::uint32_t>(std::max<std::int64_t>(1, opt.get_int("max-threads")));
  const auto tasks = static_cast<std::size_t>(opt.get_int("tasks"));
  const auto batch = static_cast<std::size_t>(std::max<std::int64_t>(1, opt.get_int("batch")));

  obs::BenchRecord rec(opt.program());
  rec.set_config(opt);
  util::Table t({"threads", "tasks", "seconds", "tasks_per_sec", "steals"});
  double peak = 0.0;
  for (std::uint32_t n = 1; n <= max_threads; n *= 2) {
    for (std::int64_t w = 0; w < opt.get_int("warmup"); ++w) {
      (void)run_once(n, tasks / 10 + 1, batch);
    }
    const Result r = run_once(n, tasks, batch);
    const double rate =
        r.seconds > 0 ? static_cast<double>(r.tasks) / r.seconds : 0.0;
    peak = std::max(peak, rate);
    t.row()
        .cell(static_cast<std::uint64_t>(r.threads))
        .cell(static_cast<std::uint64_t>(r.tasks))
        .cell(r.seconds, 4)
        .cell(rate, 1)
        .cell(r.steals);
  }
  rec.add_series(t);
  rec.add_shape("peak_tasks_per_sec", peak);
  const std::string& out = opt.get_string("json-out");
  if (out.empty()) {
    const std::string j = rec.to_json();
    std::fwrite(j.data(), 1, j.size(), stdout);
    std::fputc('\n', stdout);
    return 0;
  }
  if (!rec.write_to(out)) {
    std::fprintf(stderr, "failed to write record to %s\n", out.c_str());
    return 1;
  }
  return 0;
}
