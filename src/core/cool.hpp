// Umbrella header for the COOL reproduction library.
//
// Quick tour (see examples/quickstart.cpp for a runnable version):
//
//   cool::SystemConfig cfg;                      // DASH, 32 procs, simulated
//   cool::Runtime rt(cfg);
//   double* data = rt.alloc_array<double>(N, /*home=*/0);
//
//   cool::TaskFn worker(double* d, int i) {
//     auto& c = co_await cool::self();           // execution context
//     c.read(&d[i], sizeof d[i]);                // simulated references
//     d[i] = i;                                  // real computation
//     c.write(&d[i], sizeof d[i]);
//   }
//
//   cool::TaskFn main_task(cool::Runtime& rt, double* d, int n) {
//     auto& c = co_await cool::self();
//     cool::TaskGroup waitfor;                   // the paper's waitfor scope
//     for (int i = 0; i < n; ++i)
//       c.spawn(cool::Affinity::object(&d[i]), waitfor, worker(d, i));
//     co_await c.wait(waitfor);
//   }
//
//   rt.run(main_task(rt, data, N));
//   std::uint64_t cycles = rt.sim_time();
#pragma once

#include "core/costs.hpp"
#include "core/ctx.hpp"
#include "core/record.hpp"
#include "core/runtime.hpp"
#include "core/sim_engine.hpp"
#include "core/sync.hpp"
#include "core/patterns.hpp"
#include "core/taskfn.hpp"
#include "core/thread_engine.hpp"
#include "sched/affinity.hpp"
#include "topology/machine.hpp"
