#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "core/cool.hpp"
#include "obs/json.hpp"

namespace cool {
namespace {

using obs::render_trace_report;

/// The task spans of `rt`'s trace, in trace_events() order.
std::vector<obs::Event> task_spans(const Runtime& rt) {
  std::vector<obs::Event> out;
  for (const obs::Event& e : rt.trace_events()) {
    if (e.kind == obs::EventKind::kTaskSpan) out.push_back(e);
  }
  return out;
}

bool ended(const obs::Event& e, std::uint8_t end) {
  return obs::span_end(e.flags) == end;
}

bool stolen(const obs::Event& e) { return (e.flags & obs::kSpanStolen) != 0; }

Runtime traced_rt(std::uint32_t procs) {
  SystemConfig sc;
  sc.machine = topo::MachineConfig::dash(procs);
  sc.trace = true;
  return Runtime(sc);
}

TaskFn fanout(int n) {
  auto& c = co_await self();
  TaskGroup waitfor;
  for (int i = 0; i < n; ++i) {
    c.spawn(Affinity::none(), waitfor, []() -> TaskFn {
      auto& cc = co_await self();
      cc.work(1000);
    }());
  }
  co_await c.wait(waitfor);
}

TEST(Trace, DisabledByDefault) {
  SystemConfig sc;
  sc.machine = topo::MachineConfig::dash(4);
  Runtime rt(sc);
  rt.run(fanout(8));
  EXPECT_TRUE(rt.trace_events().empty());
}

TEST(Trace, RecordsOneSpanPerResume) {
  Runtime rt = traced_rt(4);
  rt.run(fanout(16));
  // 16 children complete in one span each; the root has >= 2 spans (it
  // blocks on the group wait).
  const auto tr = task_spans(rt);
  std::uint64_t completed = 0;
  for (const auto& e : tr) {
    if (ended(e, obs::kSpanCompleted)) ++completed;
  }
  EXPECT_EQ(completed, 17u);
  EXPECT_GE(tr.size(), 18u);
}

TEST(Trace, SpansDoNotOverlapPerProcessor) {
  Runtime rt = traced_rt(8);
  rt.run(fanout(64));
  std::map<topo::ProcId, std::vector<std::pair<std::uint64_t, std::uint64_t>>>
      by_proc;
  for (const auto& e : task_spans(rt)) {
    EXPECT_LE(e.start, e.end);
    by_proc[e.proc].push_back({e.start, e.end});
  }
  for (auto& [p, spans] : by_proc) {
    std::sort(spans.begin(), spans.end());
    for (std::size_t i = 1; i < spans.size(); ++i) {
      EXPECT_GE(spans[i].first, spans[i - 1].second)
          << "overlap on proc " << p;
    }
  }
}

TEST(Trace, BusyCyclesMatchUtilization) {
  Runtime rt = traced_rt(4);
  rt.run(fanout(32));
  std::vector<std::uint64_t> traced_busy(4, 0);
  for (const auto& e : task_spans(rt)) traced_busy[e.proc] += e.end - e.start;
  const auto util = rt.utilization();
  for (int p = 0; p < 4; ++p) {
    EXPECT_EQ(traced_busy[static_cast<std::size_t>(p)],
              util[static_cast<std::size_t>(p)].busy);
  }
}

TEST(Trace, StolenSpansFlagged) {
  Runtime rt = traced_rt(8);
  // Hint-free tasks spawned from one proc: most get stolen by idle procs.
  rt.run(fanout(32));
  std::uint64_t n_stolen = 0;
  for (const auto& e : task_spans(rt)) n_stolen += stolen(e) ? 1 : 0;
  EXPECT_GT(n_stolen, 0u);
}

TEST(Trace, BlockedSpanRecorded) {
  Runtime rt = traced_rt(2);
  Mutex mu;
  rt.run([](Mutex* m) -> TaskFn {
    auto& c = co_await self();
    TaskGroup waitfor;
    c.spawn(Affinity::none(), waitfor, [](Mutex* mm) -> TaskFn {
      auto& cc = co_await self();
      auto g = co_await cc.lock(*mm);
      cc.work(5000);
    }(m));
    c.spawn(Affinity::none(), waitfor, [](Mutex* mm) -> TaskFn {
      auto& cc = co_await self();
      auto g = co_await cc.lock(*mm);  // contends -> blocked span
      cc.work(10);
    }(m));
    co_await c.wait(waitfor);
  }(&mu));
  bool saw_blocked = false;
  for (const auto& e : task_spans(rt)) {
    saw_blocked |= ended(e, obs::kSpanBlocked);
  }
  EXPECT_TRUE(saw_blocked);
}

TEST(Trace, ReportRendersAllProcessors) {
  Runtime rt = traced_rt(4);
  rt.run(fanout(32));
  const std::string report =
      render_trace_report(rt.trace_events(), 4, rt.sim_time(), 32);
  for (const char* label : {"p0", "p1", "p2", "p3", "busy%", "timeline"}) {
    EXPECT_NE(report.find(label), std::string::npos) << label;
  }
}

TEST(Trace, ReportHandlesEmptyTrace) {
  const std::string report = render_trace_report({}, 2, 0, 16);
  EXPECT_NE(report.find("p0"), std::string::npos);
}

TEST(Trace, RingCapacityBoundsRetainedEvents) {
  SystemConfig sc;
  sc.machine = topo::MachineConfig::dash(2);
  sc.trace = true;
  sc.trace_ring_capacity = 8;  // Tiny ring: a 64-task fanout must wrap.
  Runtime rt(sc);
  rt.run(fanout(64));
  EXPECT_LE(rt.trace_events().size(), 16u);  // <= capacity per processor.
  const auto snap = rt.obs_snapshot();
  EXPECT_GT(snap.values.at("obs.trace.dropped"), 0u);
  EXPECT_EQ(snap.values.at("obs.trace.events"), rt.trace_events().size());
}

TEST(Trace, ChromeExportParsesAndCoversSpans) {
  Runtime rt = traced_rt(4);
  rt.run(fanout(16));
  const std::string text = rt.chrome_trace();
  obs::json::Value v;
  std::string err;
  ASSERT_TRUE(obs::json::parse(text, v, &err)) << err;
  ASSERT_NE(v.find("traceEvents"), nullptr);
  EXPECT_EQ(v.find("traceEvents")->arr.size(), rt.trace_events().size());
}

TEST(Trace, ThreadEngineRecordsSpans) {
  SystemConfig sc;
  sc.machine = topo::MachineConfig::dash(4);
  sc.mode = SystemConfig::Mode::kThreads;
  sc.trace = true;
  Runtime rt(sc);
  rt.run(fanout(32));
  const auto events = rt.trace_events();
  std::uint64_t completed = 0;
  for (const auto& e : events) {
    if (e.kind == obs::EventKind::kTaskSpan) {
      EXPECT_LE(e.start, e.end);  // Wall-clock µs, monotonic per span.
      if (obs::span_end(e.flags) == obs::kSpanCompleted) ++completed;
    }
  }
  // 32 children + root complete exactly once each.
  EXPECT_EQ(completed, 33u);
  // The span view and the ASCII report work under kThreads too.
  EXPECT_GE(task_spans(rt).size(), 33u);
  const std::string report = render_trace_report(events, 4, 0, 32);
  EXPECT_NE(report.find("p0"), std::string::npos);
}

}  // namespace
}  // namespace cool
