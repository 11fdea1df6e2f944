// Quickstart — the COOL model in ~60 lines.
//
// Distribute an array across processor memories, spawn one task per chunk
// with OBJECT affinity (each task runs where its chunk lives), wait for them
// with a waitfor group, and read the DASH performance counters.
//
//   $ ./quickstart [--procs=32] [--chunks=64]
#include <cstdio>

#include "common/options.hpp"
#include "core/cool.hpp"

using namespace cool;

namespace {

// A COOL "parallel function": sums one chunk into its first element.
TaskFn sum_chunk(double* chunk, std::size_t n) {
  auto& c = co_await self();          // execution context
  c.read(chunk, n * sizeof(double));  // simulated memory references
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) total += chunk[i];
  chunk[0] = total;                   // real computation, real result
  c.write(chunk, sizeof(double));
  c.work(n * 4);                      // ~1 flop per element
}

TaskFn main_task(Runtime& rt, double** chunks, int n_chunks,
                 std::size_t chunk_len) {
  auto& c = co_await self();
  TaskGroup waitfor;  // the paper's `waitfor { ... }` scope
  for (int i = 0; i < n_chunks; ++i) {
    // OBJECT affinity: run where chunk i is homed (round-robin distributed).
    c.spawn(Affinity::object(chunks[i]), waitfor,
            sum_chunk(chunks[i], chunk_len));
  }
  co_await c.wait(waitfor);
  (void)rt;
}

}  // namespace

int main(int argc, char** argv) {
  util::Options opt("quickstart", "COOL quickstart: distributed array sum");
  opt.add_int("procs", 32, "simulated processors", 1, UINT32_MAX);
  opt.add_int("chunks", 64, "array chunks (one task each)");
  opt.add_int("chunk-kb", 32, "chunk size in KiB");
  if (!opt.parse(argc, argv)) return 0;

  SystemConfig cfg;  // defaults: simulated 32-processor DASH
  cfg.machine = topo::MachineConfig::dash(
      static_cast<std::uint32_t>(opt.get_int("procs")));
  Runtime rt(cfg);

  const int n_chunks = static_cast<int>(opt.get_int("chunks"));
  const std::size_t chunk_len =
      static_cast<std::size_t>(opt.get_int("chunk-kb")) * 1024 / sizeof(double);

  std::vector<double*> chunks;
  double expect = 0.0;
  for (int i = 0; i < n_chunks; ++i) {
    // Placed allocation: chunk i in processor (i mod P)'s local memory.
    chunks.push_back(rt.alloc_array<double>(chunk_len, i));
    for (std::size_t j = 0; j < chunk_len; ++j) {
      chunks[static_cast<std::size_t>(i)][j] = 0.001 * static_cast<double>(j % 97);
      expect += chunks[static_cast<std::size_t>(i)][j];
    }
  }

  rt.run(main_task(rt, chunks.data(), n_chunks, chunk_len));

  double got = 0.0;
  for (double* chunk : chunks) got += chunk[0];

  const auto mem = rt.monitor()->total();
  std::printf("sum = %.3f (expected %.3f)\n", got, expect);
  std::printf("completed in %llu simulated cycles on %u processors\n",
              static_cast<unsigned long long>(rt.sim_time()),
              rt.machine().n_procs);
  std::printf("memory: %llu accesses, %llu misses, %.1f%% serviced locally\n",
              static_cast<unsigned long long>(mem.accesses()),
              static_cast<unsigned long long>(mem.misses()),
              mem.misses() ? 100.0 * static_cast<double>(mem.local_misses()) /
                                 static_cast<double>(mem.misses())
                           : 0.0);
  std::printf("scheduler: %llu tasks spawned, %llu stolen\n",
              static_cast<unsigned long long>(rt.sched_stats().spawned),
              static_cast<unsigned long long>(rt.sched_stats().tasks_stolen));
  return 0;
}
