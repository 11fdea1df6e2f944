// Request tracing over the live txn serving app: the decomposition identity
// must hold exactly for every completed request of a real run, the recorder
// must see every completion the admission ledger counts, and attaching it
// must not perturb the simulation at all.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>

#include "apps/txn/txn.hpp"
#include "obs/json.hpp"
#include "obs/request_trace.hpp"

namespace cool::apps::txn {
namespace {

Config serving_cfg() {
  Config cfg;
  cfg.warehouses = 7;
  cfg.districts = 2;
  cfg.items = 32;
  cfg.lines = 3;
  cfg.theta = 1.2;  // hot-warehouse skew: steals and queueing both happen
  cfg.arrivals.rate_per_kcycle = 4.0;
  cfg.arrivals.n_requests = 256;
  return cfg;
}

Runtime make_rt(std::uint32_t procs, const Config& cfg, bool trace,
                bool pin_break = false) {
  SystemConfig sc;
  sc.machine = topo::MachineConfig::dash(procs);
  sc.policy = policy_for(cfg);
  // Requests are OBJECT-pinned to their warehouse; only pin-break stealing
  // relocates them (what the adaptive ladder's rung 2 switches on).
  sc.policy.steal_object_tasks = pin_break;
  sc.req_trace = trace;
  return Runtime(sc);
}

TEST(TxnReqTrace, IdentityHoldsExactlyForEveryRequest) {
  const Config cfg = serving_cfg();
  Runtime rt = make_rt(8, cfg, true);
  const Result r = run(rt, cfg);
  const obs::RequestTraceRecorder* rec = rt.request_trace();
  ASSERT_NE(rec, nullptr);
  // Every completion the admission ledger counted was traced and finalized.
  EXPECT_EQ(rec->completed(), r.ledger.completed);
  std::uint64_t stalled = 0;
  for (std::uint32_t req = 0; req < cfg.arrivals.n_requests; ++req) {
    const obs::ReqStat& s = rec->stat(req);
    ASSERT_TRUE(s.finalized) << "request " << req;
    // The decomposition identity, exact — not within a tolerance.
    EXPECT_EQ(s.queue_wait + s.service + s.steal_penalty,
              s.completion - s.arrival)
        << "request " << req;
    EXPECT_LE(s.memory_stall, s.service) << "request " << req;
    EXPECT_GE(s.dispatches, 1u) << "request " << req;
    stalled += s.memory_stall;
  }
  // A NUMA simulation with remote stock rows must charge *some* stall.
  EXPECT_GT(stalled, 0u);
  EXPECT_TRUE(r.breakdown.present);
  EXPECT_EQ(r.breakdown.count, rec->measured());
}

TEST(TxnReqTrace, SkewedServingCapturesStealHops) {
  Config cfg = serving_cfg();
  cfg.arrivals.rate_per_kcycle = 8.0;  // saturate the hot warehouse
  Runtime rt = make_rt(8, cfg, true, /*pin_break=*/true);
  run(rt, cfg);
  const obs::RequestTraceRecorder* rec = rt.request_trace();
  ASSERT_NE(rec, nullptr);
  std::uint64_t hops = 0;
  for (std::uint32_t req = 0; req < cfg.arrivals.n_requests; ++req) {
    hops += rec->stat(req).steal_hops;
  }
  EXPECT_GT(hops, 0u);
  // At least one tail exemplar exists and its span chain was gathered.
  const auto ex = rec->exemplars();
  ASSERT_FALSE(ex.empty());
  EXPECT_FALSE(ex[0].spans.empty());
  // The Chrome export parses as JSON elsewhere (obs tests); here just check
  // it is non-trivial for a real run.
  EXPECT_GT(rec->exemplar_chrome_json().size(), 2u * ex.size());
}

// The headline point (1.5x probed capacity) of `srv_txn_latency --procs=8
// --quick --req-trace=<path> --latency-target=3000`: every exported
// exemplar carries the exact decomposition, flows pair up, and one is a
// steal hop.
TEST(TxnReqTrace, LatencyTargetHeadlineExportsExactExemplars) {
  Config cfg;
  cfg.warehouses = 7;
  cfg.arrivals.n_requests = 384;
  Config probe = cfg;
  probe.arrivals.rate_per_kcycle = 1e6;  // all at once: pure service rate
  Runtime prt = make_rt(8, probe, false);
  const double capacity = 1000.0 * static_cast<double>(cfg.arrivals.n_requests) /
                          static_cast<double>(run(prt, probe).run.sim_cycles);
  cfg.arrivals.rate_per_kcycle = 1.5 * capacity;
  SystemConfig sc;
  sc.machine = topo::MachineConfig::dash(8);
  sc.policy = policy_for(cfg);
  sc.req_trace = true;
  sc.adapt = true;
  sc.adapt_policy.latency_target_cycles = 3000;
  Runtime rt(sc);
  run(rt, cfg);
  const obs::RequestTraceRecorder* rec = rt.request_trace();
  ASSERT_NE(rec, nullptr);
  EXPECT_GT(rec->summary().count, 0u);
  EXPECT_EQ(rec->total_dropped(), 0u);

  obs::json::Value v;
  ASSERT_TRUE(obs::json::parse(rec->exemplar_chrome_json(), v));
  int admits = 0;
  std::set<double> starts;
  std::set<double> finishes;
  bool steal = false;
  for (const obs::json::Value& e : v.find("traceEvents")->arr) {
    const std::string& ph = e.find("ph")->str;
    const std::string& name = e.find("name")->str;
    if (ph == "s" || ph == "f") {
      (ph == "s" ? starts : finishes).insert(e.find("id")->num);
    }
    steal = steal || (ph == "s" && name == "steal");
    if (ph != "X" || !name.ends_with("wait-admit")) continue;
    ++admits;
    const auto at = [&](const char* k) { return e.find("args")->find(k)->num; };
    EXPECT_EQ(at("queue_wait") + at("service") + at("steal_penalty"),
              at("total"))
        << name;
    EXPECT_EQ(at("compute") + at("memory_stall"), at("service")) << name;
  }
  EXPECT_GT(admits, 0);
  EXPECT_EQ(starts, finishes);
  EXPECT_TRUE(steal);
}

TEST(TxnReqTrace, OffByDefaultAndAbsentFromResults) {
  const Config cfg = serving_cfg();
  Runtime rt = make_rt(8, cfg, false);
  const Result r = run(rt, cfg);
  EXPECT_EQ(rt.request_trace(), nullptr);
  EXPECT_FALSE(r.breakdown.present);
  EXPECT_EQ(r.breakdown.count, 0u);
}

TEST(TxnReqTrace, AttachingTheRecorderPerturbsNothing) {
  // The recorder is passive: byte-identical simulation with it on and off.
  const Config cfg = serving_cfg();
  Runtime rt_off = make_rt(8, cfg, false);
  const Result off = run(rt_off, cfg);
  Runtime rt_on = make_rt(8, cfg, true);
  const Result on = run(rt_on, cfg);
  EXPECT_EQ(off.latency.sum(), on.latency.sum());
  EXPECT_EQ(off.latency.max(), on.latency.max());
  EXPECT_EQ(off.stock_moved, on.stock_moved);
  EXPECT_EQ(off.run.sched.steals, on.run.sched.steals);
  EXPECT_EQ(off.run.mem.latency_cycles, on.run.mem.latency_cycles);
}

}  // namespace
}  // namespace cool::apps::txn
