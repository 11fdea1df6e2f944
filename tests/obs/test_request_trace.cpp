// RequestTraceRecorder: the decomposition identity on synthetic stamp
// sequences, steal-penalty accounting, mid-span completion capping, stall
// attribution, span-ring wrap, exemplar selection, and the Chrome JSON export
// (flow pairing, escaping-safe structure).
#include "obs/request_trace.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "memsim/access_observer.hpp"
#include "obs/json.hpp"

namespace cool::obs {
namespace {

mem::AccessInfo access(topo::ProcId proc, std::uint32_t stall) {
  mem::AccessInfo info;
  info.proc = proc;
  info.stall = stall;
  return info;
}

/// Count the finalized identity: every component of a finalized request must
/// reconstruct the end-to-end latency exactly (not within a tolerance).
void expect_identity(const ReqStat& s) {
  ASSERT_TRUE(s.finalized);
  EXPECT_EQ(s.queue_wait + s.service + s.steal_penalty,
            s.completion - s.arrival);
  EXPECT_LE(s.memory_stall, s.service);
}

TEST(RequestTrace, SingleDispatchIdentity) {
  RequestTraceRecorder rec(2, 64, 4);
  rec.begin_run({100}, 0);
  rec.on_admit(0, 110);
  // Ready at admission, dispatched 40 cycles later, runs 200 cycles.
  rec.on_dispatch(0, 0, 110, 150, 5, false, false, 0);
  rec.on_complete(0, 350);
  rec.on_span_end(0, 350);
  const ReqStat& s = rec.stat(0);
  expect_identity(s);
  EXPECT_EQ(s.service, 200u);
  EXPECT_EQ(s.steal_penalty, 0u);  // local dispatch: overhead is queue time
  EXPECT_EQ(s.queue_wait, 50u);    // 10 admit batching + 40 dispatch gap
  EXPECT_EQ(s.dispatches, 1u);
  EXPECT_EQ(rec.completed(), 1u);
  EXPECT_EQ(rec.measured(), 1u);
}

TEST(RequestTrace, StealPenaltyIsMinOfOverheadAndGap) {
  RequestTraceRecorder rec(2, 64, 4);
  rec.begin_run({0, 0}, 0);
  rec.on_admit(0, 0);
  rec.on_admit(1, 0);
  // Request 0: gap (30) exceeds overhead (12) -> penalty = overhead.
  rec.on_dispatch(1, 0, 10, 40, 12, /*stolen=*/true, false, 0);
  rec.on_complete(0, 100);
  rec.on_span_end(1, 100);
  // Request 1: overhead (50) exceeds gap (8) -> penalty = gap; the rest of
  // the charged overhead hid inside the not-yet-ready wait.
  rec.on_dispatch(0, 1, 192, 200, 50, /*stolen=*/true, false, 1);
  rec.on_complete(1, 260);
  rec.on_span_end(0, 260);
  EXPECT_EQ(rec.stat(0).steal_penalty, 12u);
  EXPECT_EQ(rec.stat(0).steal_hops, 1u);
  EXPECT_EQ(rec.stat(1).steal_penalty, 8u);
  expect_identity(rec.stat(0));
  expect_identity(rec.stat(1));
}

TEST(RequestTrace, BalancerMoveCountsAsMoveNotSteal) {
  RequestTraceRecorder rec(2, 64, 4);
  rec.begin_run({0}, 0);
  rec.on_admit(0, 0);
  rec.on_dispatch(1, 0, 0, 20, 6, false, /*moved=*/true, 0);
  rec.on_complete(0, 50);
  rec.on_span_end(1, 50);
  EXPECT_EQ(rec.stat(0).moves, 1u);
  EXPECT_EQ(rec.stat(0).steal_hops, 0u);
  EXPECT_EQ(rec.stat(0).steal_penalty, 6u);
  expect_identity(rec.stat(0));
}

TEST(RequestTrace, CompletionMidSpanCapsService) {
  RequestTraceRecorder rec(1, 64, 4);
  rec.begin_run({0}, 0);
  rec.on_admit(0, 0);
  rec.on_dispatch(0, 0, 0, 10, 0, false, false, 0);
  // The request calls complete() at 70 but the task unwinds until 90; the
  // trailing 20 cycles are not the request's service.
  rec.on_complete(0, 70);
  rec.on_span_end(0, 90);
  const ReqStat& s = rec.stat(0);
  EXPECT_EQ(s.service, 60u);
  expect_identity(s);
}

TEST(RequestTrace, MultiSpanBlockingRequest) {
  RequestTraceRecorder rec(2, 64, 4);
  rec.begin_run({0}, 0);
  rec.on_admit(0, 5);
  rec.on_dispatch(0, 0, 5, 10, 0, false, false, 0);
  rec.on_span_end(0, 40);  // blocks on a monitor after 30 cycles
  rec.on_dispatch(1, 0, 40, 60, 4, true, false, 0);  // resumed by a thief
  rec.on_complete(0, 100);
  rec.on_span_end(1, 100);
  const ReqStat& s = rec.stat(0);
  EXPECT_EQ(s.dispatches, 2u);
  EXPECT_EQ(s.service, 70u);  // 30 + 40
  EXPECT_EQ(s.steal_penalty, 4u);
  EXPECT_EQ(s.queue_wait, 26u);  // 5 admit + 5 first gap + 16 resume gap
  expect_identity(s);
}

TEST(RequestTrace, MemoryStallAttributesToCurrentRequestOnly) {
  RequestTraceRecorder rec(2, 64, 4);
  rec.begin_run({0, 0}, 0);
  rec.on_admit(0, 0);
  rec.on_admit(1, 0);
  rec.on_dispatch(0, 0, 0, 0, 0, false, false, 0);
  rec.on_access(access(0, 30));  // request 0's stall
  rec.on_access(access(1, 99));  // no request on proc 1: dropped
  rec.on_complete(0, 100);
  rec.on_span_end(0, 100);
  rec.on_access(access(0, 50));  // no open span anymore: dropped
  EXPECT_EQ(rec.stat(0).memory_stall, 30u);
  EXPECT_EQ(rec.stat(1).memory_stall, 0u);
}

TEST(RequestTrace, PostCompleteAccessesNotCharged) {
  RequestTraceRecorder rec(1, 64, 4);
  rec.begin_run({0}, 0);
  rec.on_admit(0, 0);
  rec.on_dispatch(0, 0, 0, 0, 0, false, false, 0);
  rec.on_access(access(0, 10));
  rec.on_complete(0, 50);
  rec.on_access(access(0, 40));  // unwind traffic after complete()
  rec.on_span_end(0, 80);
  EXPECT_EQ(rec.stat(0).memory_stall, 10u);
  expect_identity(rec.stat(0));
}

TEST(RequestTrace, StallClampedToService) {
  RequestTraceRecorder rec(1, 64, 4);
  rec.begin_run({0}, 0);
  rec.on_admit(0, 0);
  rec.on_dispatch(0, 0, 0, 0, 0, false, false, 0);
  rec.on_access(access(0, 1000));  // stall charge exceeds the span itself
  rec.on_complete(0, 100);
  rec.on_span_end(0, 100);
  EXPECT_EQ(rec.stat(0).service, 100u);
  EXPECT_EQ(rec.stat(0).memory_stall, 100u);
}

TEST(RequestTrace, UntaggedTasksIgnored) {
  RequestTraceRecorder rec(1, 64, 4);
  rec.begin_run({0}, 0);
  rec.on_dispatch(0, RequestTraceRecorder::kNoRequest, 0, 10, 0, false, false,
                  0);
  rec.on_span_end(0, 20);
  rec.on_access(access(0, 5));
  EXPECT_EQ(rec.total_spans(), 0u);
  EXPECT_EQ(rec.completed(), 0u);
}

TEST(RequestTrace, RingWrapCountsDropsButKeepsBreakdownExact) {
  RequestTraceRecorder rec(1, /*ring_capacity=*/4, 4);
  std::vector<std::uint64_t> arrivals(10, 0);
  rec.begin_run(arrivals, 0);
  std::uint64_t t = 0;
  for (std::uint32_t r = 0; r < 10; ++r) {
    rec.on_admit(r, t);
    rec.on_dispatch(0, r, t, t + 1, 0, false, false, 0);
    rec.on_complete(r, t + 11);
    rec.on_span_end(0, t + 11);
    t += 20;
  }
  EXPECT_EQ(rec.dropped(0), 6u);  // 10 spans into a 4-deep ring
  EXPECT_EQ(rec.total_dropped(), 6u);
  EXPECT_EQ(rec.total_spans(), 4u);
  // The accumulators are O(1) per event, not ring-backed: all 10 breakdowns
  // survive the wrap.
  EXPECT_EQ(rec.completed(), 10u);
  for (std::uint32_t r = 0; r < 10; ++r) expect_identity(rec.stat(r));
  EXPECT_EQ(rec.summary().dropped, 6u);
}

TEST(RequestTrace, MeasurementWindowFiltersSummaryNotTotals) {
  RequestTraceRecorder rec(1, 64, 4);
  rec.begin_run({0, 1000}, /*measure_from=*/500);
  for (std::uint32_t r = 0; r < 2; ++r) {
    const std::uint64_t a = r == 0 ? 0 : 1000;
    rec.on_admit(r, a);
    rec.on_dispatch(0, r, a, a + 10, 0, false, false, 0);
    rec.on_complete(r, a + 60);
    rec.on_span_end(0, a + 60);
  }
  EXPECT_EQ(rec.completed(), 2u);
  EXPECT_EQ(rec.measured(), 1u);
  // The sensor's sums cover both requests, the measured sample only one.
  EXPECT_EQ(rec.stall_sums().queue_wait,
            rec.stat(0).queue_wait + rec.stat(1).queue_wait);
  EXPECT_GT(rec.stall_sums().queue_wait,
            rec.measured_sample().queue_wait.sum());
  EXPECT_EQ(rec.measured_sample().queue_wait.count(), 1u);
  EXPECT_EQ(rec.summary().count, 1u);
}

TEST(RequestTrace, ExemplarSelectionSlowestFirstTiesByLowerId) {
  RequestTraceRecorder rec(1, 64, /*n_exemplars=*/2);
  // Latencies: req0 = 50, req1 = 90, req2 = 90, req3 = 30.
  const std::vector<std::uint64_t> arrivals{0, 100, 200, 300};
  const std::vector<std::uint64_t> lat{50, 90, 90, 30};
  rec.begin_run(arrivals, 0);
  for (std::uint32_t r = 0; r < 4; ++r) {
    rec.on_admit(r, arrivals[r]);
    rec.on_dispatch(0, r, arrivals[r], arrivals[r] + 5, 0, false, false, 0);
    rec.on_complete(r, arrivals[r] + lat[r]);
    rec.on_span_end(0, arrivals[r] + lat[r]);
  }
  const std::vector<ReqExemplar> ex = rec.exemplars();
  ASSERT_EQ(ex.size(), 2u);
  EXPECT_EQ(ex[0].req, 1u);  // 90, lower id wins the tie
  EXPECT_EQ(ex[1].req, 2u);
  ASSERT_EQ(ex[0].spans.size(), 1u);
  EXPECT_EQ(ex[0].spans[0].start, 105u);
  EXPECT_EQ(rec.summary().exemplars, 2u);
}

TEST(RequestTrace, ExemplarSpansSortedAcrossRings) {
  RequestTraceRecorder rec(3, 64, 1);
  rec.begin_run({0}, 0);
  rec.on_admit(0, 0);
  rec.on_dispatch(2, 0, 0, 10, 0, false, false, 0);
  rec.on_span_end(2, 20);
  rec.on_dispatch(0, 0, 20, 30, 0, true, false, 2);
  rec.on_span_end(0, 40);
  rec.on_dispatch(1, 0, 40, 50, 0, true, false, 0);
  rec.on_complete(0, 60);
  rec.on_span_end(1, 60);
  const std::vector<ReqExemplar> ex = rec.exemplars();
  ASSERT_EQ(ex.size(), 1u);
  ASSERT_EQ(ex[0].spans.size(), 3u);
  EXPECT_EQ(ex[0].spans[0].proc, 2u);
  EXPECT_EQ(ex[0].spans[1].proc, 0u);
  EXPECT_EQ(ex[0].spans[2].proc, 1u);
  EXPECT_EQ(ex[0].stat.steal_hops, 2u);
}

TEST(RequestTrace, MigrationAnnotationAttachesToCurrentRequest) {
  RequestTraceRecorder rec(1, 64, 1);
  rec.begin_run({0}, 0);
  rec.on_admit(0, 0);
  rec.on_dispatch(0, 0, 0, 10, 0, false, false, 0);
  rec.on_migration(0, 15, 25, 4096);
  rec.on_complete(0, 50);
  rec.on_span_end(0, 50);
  const std::vector<ReqExemplar> ex = rec.exemplars();
  ASSERT_EQ(ex.size(), 1u);
  ASSERT_EQ(ex[0].spans.size(), 2u);
  EXPECT_EQ(ex[0].spans[1].kind, ReqSpanKind::kMigrate);
  EXPECT_EQ(ex[0].spans[1].aux, 4096u);
  // Migration spans annotate; they do not perturb the breakdown.
  expect_identity(ex[0].stat);
}

/// Walk a Chrome trace JSON and pair up flow events by id.
struct FlowCheck {
  std::uint64_t starts = 0;
  std::uint64_t finishes = 0;
  std::uint64_t paired = 0;
  std::vector<std::string> names;
};

FlowCheck check_flows(const std::string& text) {
  json::Value v;
  std::string err;
  EXPECT_TRUE(json::parse(text, v, &err)) << err;
  FlowCheck fc;
  const json::Value* events = v.find("traceEvents");
  if (events == nullptr) return fc;
  std::vector<std::pair<double, bool>> seen;  // (id, is_start)
  for (const json::Value& e : events->arr) {
    const json::Value* ph = e.find("ph");
    if (ph == nullptr || !ph->is_string()) continue;
    if (ph->str == "s" || ph->str == "f") {
      const json::Value* id = e.find("id");
      EXPECT_NE(id, nullptr);
      seen.emplace_back(id->num, ph->str == "s");
      if (ph->str == "s") ++fc.starts; else ++fc.finishes;
      const json::Value* name = e.find("name");
      if (name != nullptr && ph->str == "s") fc.names.push_back(name->str);
      if (ph->str == "f") {
        const json::Value* bp = e.find("bp");
        EXPECT_NE(bp, nullptr);
        EXPECT_EQ(bp->str, "e");
      }
    }
  }
  for (const auto& [id, is_start] : seen) {
    if (!is_start) continue;
    for (const auto& [id2, is_start2] : seen) {
      if (!is_start2 && id2 == id) {
        ++fc.paired;
        break;
      }
    }
  }
  return fc;
}

TEST(RequestTrace, ChromeJsonFlowsPairPerHop) {
  RequestTraceRecorder rec(3, 64, 1);
  rec.begin_run({0}, 0);
  rec.on_admit(0, 2);
  rec.on_dispatch(0, 0, 2, 10, 0, false, false, 0);
  rec.on_span_end(0, 20);
  rec.on_dispatch(1, 0, 20, 30, 3, true, false, 0);   // steal hop
  rec.on_span_end(1, 40);
  rec.on_dispatch(2, 0, 40, 50, 3, false, true, 1);   // balancer move
  rec.on_complete(0, 60);
  rec.on_span_end(2, 60);
  const FlowCheck fc = check_flows(rec.exemplar_chrome_json());
  EXPECT_EQ(fc.starts, 2u);
  EXPECT_EQ(fc.finishes, 2u);
  EXPECT_EQ(fc.paired, 2u);
  ASSERT_EQ(fc.names.size(), 2u);
  EXPECT_EQ(fc.names[0], "steal");
  EXPECT_EQ(fc.names[1], "move");
}

TEST(RequestTrace, ChromeJsonFirstSpanStealChainsFromAdmission) {
  // The common serving case: a single-dispatch request acquired by theft.
  // There is no previous exec span, so the flow must chain from the
  // admission stamp on the synthetic front row.
  RequestTraceRecorder rec(2, 64, 1);
  rec.begin_run({0}, 0);
  rec.on_admit(0, 5);
  rec.on_dispatch(1, 0, 5, 20, 4, true, false, 0);
  rec.on_complete(0, 60);
  rec.on_span_end(1, 60);
  const std::string text = rec.exemplar_chrome_json();
  const FlowCheck fc = check_flows(text);
  EXPECT_EQ(fc.paired, 1u);
  ASSERT_EQ(fc.names.size(), 1u);
  EXPECT_EQ(fc.names[0], "steal");
  // The start event sits on the front row (tid == n_procs) at the admission
  // stamp.
  json::Value v;
  ASSERT_TRUE(json::parse(text, v));
  bool found = false;
  for (const json::Value& e : v.find("traceEvents")->arr) {
    const json::Value* ph = e.find("ph");
    if (ph != nullptr && ph->is_string() && ph->str == "s") {
      EXPECT_EQ(e.find("tid")->num, 2.0);  // front row for n_procs == 2
      EXPECT_EQ(e.find("ts")->num, 5.0);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(RequestTrace, ChromeJsonAdmissionArgsCarryExactBreakdown) {
  RequestTraceRecorder rec(2, 64, 1);
  rec.begin_run({100}, 0);
  rec.on_admit(0, 110);
  rec.on_dispatch(1, 0, 110, 140, 10, true, false, 0);
  rec.on_access(access(1, 25));
  rec.on_complete(0, 240);
  rec.on_span_end(1, 240);
  json::Value v;
  ASSERT_TRUE(json::parse(rec.exemplar_chrome_json(), v));
  const json::Value* args = nullptr;
  for (const json::Value& e : v.find("traceEvents")->arr) {
    const json::Value* name = e.find("name");
    if (name != nullptr && name->str == "req 0 wait-admit") {
      args = e.find("args");
    }
  }
  ASSERT_NE(args, nullptr);
  const double total = args->find("total")->num;
  const double qw = args->find("queue_wait")->num;
  const double svc = args->find("service")->num;
  const double sp = args->find("steal_penalty")->num;
  const double stall = args->find("memory_stall")->num;
  const double compute = args->find("compute")->num;
  EXPECT_EQ(total, 140.0);
  EXPECT_EQ(qw + svc + sp, total);  // exact, not within tolerance
  EXPECT_EQ(compute + stall, svc);
  EXPECT_EQ(args->find("steal_hops")->num, 1.0);
}

TEST(RequestTrace, BeginRunResetsEverything) {
  RequestTraceRecorder rec(1, 4, 2);
  rec.begin_run({0, 0, 0, 0, 0, 0}, 0);
  for (std::uint32_t r = 0; r < 6; ++r) {
    rec.on_admit(r, 0);
    rec.on_dispatch(0, r, 0, 1, 0, false, false, 0);
    rec.on_complete(r, 10);
    rec.on_span_end(0, 10);
  }
  EXPECT_GT(rec.total_dropped(), 0u);
  rec.begin_run({7}, 3);
  EXPECT_EQ(rec.completed(), 0u);
  EXPECT_EQ(rec.total_dropped(), 0u);
  EXPECT_EQ(rec.total_spans(), 0u);
  EXPECT_EQ(rec.stall_sums().queue_wait, 0u);
  EXPECT_EQ(rec.stat(0).arrival, 7u);
}

}  // namespace
}  // namespace cool::obs
