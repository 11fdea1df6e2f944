// Pipeline monitor — COOL's monitor-style synchronisation (§2): mutex
// member functions and condition variables, used to build a bounded-buffer
// pipeline of three stages (produce → transform → consume) with backpressure.
//
// This exercises the concurrency features the case studies use only lightly,
// and runs under BOTH engines: the deterministic simulator and real threads
// (--threads), producing the same totals.
//
// It doubles as the observability demo: --trace records task spans into the
// obs ring buffers (blocked spans show every monitor contention) and
// --chrome-out writes a Chrome-trace JSON you can load in chrome://tracing
// or Perfetto; the obs metrics snapshot prints either way.
//
//   $ ./pipeline_monitor [--items=500] [--threads] [--trace]
//                        [--chrome-out=pipeline.json]
#include <cstdio>
#include <fstream>

#include "common/options.hpp"
#include "core/cool.hpp"
#include "obs/trace.hpp"

using namespace cool;

namespace {

/// A bounded single-slot channel: the paper's monitor pattern (a mutex
/// object + condition variables for "not empty" / "not full").
struct Channel {
  Mutex mu;
  Cond nonempty;
  Cond nonfull;
  bool full = false;
  bool closed = false;
  long value = 0;
};

TaskFn producer(Channel* out, int items) {
  auto& c = co_await self();
  for (int i = 1; i <= items; ++i) {
    auto g = co_await c.lock(out->mu);
    while (out->full) co_await c.wait(out->nonfull, out->mu);
    out->value = i;
    out->full = true;
    c.work(50);
    out->nonempty.signal(c);
  }
  auto g = co_await c.lock(out->mu);
  out->closed = true;
  out->nonempty.broadcast(c);
}

TaskFn transformer(Channel* in, Channel* out) {
  auto& c = co_await self();
  for (;;) {
    long v = 0;
    {
      auto g = co_await c.lock(in->mu);
      while (!in->full && !in->closed) co_await c.wait(in->nonempty, in->mu);
      if (!in->full && in->closed) break;
      v = in->value;
      in->full = false;
      in->nonfull.signal(c);
    }
    c.work(200);  // "transform"
    v = v * 2 + 1;
    {
      auto g = co_await c.lock(out->mu);
      while (out->full) co_await c.wait(out->nonfull, out->mu);
      out->value = v;
      out->full = true;
      out->nonempty.signal(c);
    }
  }
  auto g = co_await c.lock(out->mu);
  out->closed = true;
  out->nonempty.broadcast(c);
}

TaskFn consumer(Channel* in, long* sum, long* count) {
  auto& c = co_await self();
  for (;;) {
    auto g = co_await c.lock(in->mu);
    while (!in->full && !in->closed) co_await c.wait(in->nonempty, in->mu);
    if (!in->full && in->closed) break;
    *sum += in->value;
    ++*count;
    in->full = false;
    in->nonfull.signal(c);
  }
}

TaskFn run_pipeline(Channel* a, Channel* b, int items, long* sum, long* count) {
  auto& c = co_await self();
  TaskGroup waitfor;
  c.spawn(Affinity::processor(0), waitfor, producer(a, items));
  c.spawn(Affinity::processor(1), waitfor, transformer(a, b));
  c.spawn(Affinity::processor(2), waitfor, consumer(b, sum, count));
  co_await c.wait(waitfor);
}

}  // namespace

int main(int argc, char** argv) {
  util::Options opt("pipeline_monitor",
                    "monitor-synchronised three-stage pipeline");
  opt.add_int("items", 500, "items to push through the pipeline");
  opt.add_flag("threads", "run on real threads instead of the simulator");
  opt.add_flag("trace", "record task spans into the obs ring buffers");
  opt.add_string("chrome-out", "",
                 "write a Chrome-trace JSON here (implies --trace)");
  if (!opt.parse(argc, argv)) return 0;

  SystemConfig cfg;
  cfg.mode = opt.flag("threads") ? SystemConfig::Mode::kThreads
                                 : SystemConfig::Mode::kSim;
  cfg.machine = topo::MachineConfig::dash(4);
  cfg.trace = opt.flag("trace") || !opt.get_string("chrome-out").empty();
  Runtime rt(cfg);

  const int items = static_cast<int>(opt.get_int("items"));
  Channel a, b;
  long sum = 0;
  long count = 0;
  rt.run(run_pipeline(&a, &b, items, &sum, &count));

  // Each item i becomes 2i+1; sum = 2*(n(n+1)/2) + n = n(n+2).
  const long expect = static_cast<long>(items) * (items + 2);
  std::printf("engine: %s\n", opt.flag("threads") ? "threads" : "simulator");
  std::printf("consumed %ld items, sum %ld (expected %ld) — %s\n", count, sum,
              expect, sum == expect ? "ok" : "MISMATCH");
  if (!opt.flag("threads")) {
    std::printf("simulated cycles: %llu\n",
                static_cast<unsigned long long>(rt.sim_time()));
  }

  // Metrics come for free from the runtime's counters, named by
  // obs_snapshot(); the monitor pattern shows up as blocked spans and steals.
  const auto snap = rt.obs_snapshot();
  const auto val = [&](const char* k) -> unsigned long long {
    const auto it = snap.values.find(k);
    return it == snap.values.end() ? 0 : it->second;
  };
  std::printf("obs: tasks=%llu steals=%llu resumes=%llu\n",
              val("tasks.completed"), val("sched.steals"),
              val("sched.resumes"));

  if (cfg.trace) {
    std::uint64_t blocked = 0;
    for (const auto& e : rt.trace_events()) {
      if (e.kind == obs::EventKind::kTaskSpan &&
          obs::span_end(e.flags) == obs::kSpanBlocked) {
        ++blocked;
      }
    }
    std::printf("trace: %zu events, %llu blocked spans (monitor contention)\n",
                rt.trace_events().size(),
                static_cast<unsigned long long>(blocked));
  }
  const std::string& chrome = opt.get_string("chrome-out");
  if (!chrome.empty()) {
    std::ofstream out(chrome, std::ios::binary);
    out << rt.chrome_trace() << "\n";
    std::printf("wrote %s (load in chrome://tracing)\n", chrome.c_str());
  }
  return 0;
}
