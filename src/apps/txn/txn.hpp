// txn — a TPC-C-new-order-style transactional serving workload.
//
// The SPLASH case studies are batch programs; this app is the repo's first
// *server*: requests arrive on an open-loop trace (src/load) and each one
// executes a new-order-shaped transaction against warehouse state held in
// COOL objects:
//
//   warehouse w  ->  districts (w,0..D-1), each owning
//                      a header page   { next_o_id, ytd_qty }
//                      a stock slice   int64 stock[items]
//
// A request picks a warehouse by Zipf(theta) rank (rank 0 is the hot
// warehouse), a district uniformly, then under the district's monitor reads
// the item catalog, decrements `lines` stock slots, and bumps the order
// counter — the classic read-catalog / update-stock / insert-order shape.
// Processor 0 is the front-end (the admission pump occupies it for the whole
// trace); every district's pages are homed on one of the P-1 serving
// processors (warehouse w lives on 1 + w mod (P-1)) and requests carry
// OBJECT affinity on the district's stock, so Zipf skew over warehouses
// becomes *processor* skew the profiler, the balancers, and the adaptive
// engine's latency objective can all see and act on. With hints off the
// requests are placement-blind.
//
// All randomness (arrival stamps, warehouse/district/item picks) is drawn
// up front from seeded PRNGs, so a run is a pure function of its Config.
#pragma once

#include <cstdint>
#include <vector>

#include "apps/common/harness.hpp"
#include "core/cool.hpp"
#include "load/arrivals.hpp"
#include "load/driver.hpp"
#include "obs/hist.hpp"
#include "obs/request_trace.hpp"

namespace cool::apps::txn {

struct Config {
  int warehouses = 8;
  int districts = 4;   ///< Per warehouse.
  int items = 64;      ///< Stock slots per district.
  int lines = 4;       ///< Order lines per request.
  double theta = 0.0;  ///< Zipf skew over warehouses (0 = uniform).
  bool hints = true;   ///< OBJECT affinity on the district's stock.
  std::uint64_t think_cycles = 200;  ///< Pure compute per request.
  std::uint64_t admit_epoch_cycles = 500;  ///< Admission batch window.
  /// Measurement interval start (simulated cycle): requests arriving before
  /// it are served but excluded from Result::latency, TPC-ramp style.
  std::uint64_t measure_from_cycles = 0;
  load::ArrivalConfig arrivals;  ///< Open-loop trace (rate, kind, seed, n).
  std::uint64_t key_seed = 0xc001;  ///< Warehouse/district/item pick stream.
};

struct Result {
  apps::RunResult run;
  obs::LatencyHist latency;       ///< Per-request latency (cycles).
  load::AdmissionLedger ledger;   ///< generated / admitted / completed.
  std::vector<std::uint64_t> inflight;  ///< Per-admission-epoch in-flight.
  std::uint64_t last_arrival = 0;
  std::uint64_t served_in_window = 0;  ///< Completions before last arrival.
  std::uint64_t orders = 0;       ///< Sum of district order counters.
  std::uint64_t stock_moved = 0;  ///< Total quantity decremented (checksum).
  std::uint64_t hot_requests = 0; ///< Requests that hit warehouse rank 0.
  /// Latency decomposition over measured requests (present only when the
  /// runtime was built with SystemConfig::req_trace).
  obs::BreakdownSummary breakdown;

  /// Offered load over the arrival window, requests per kcycle.
  [[nodiscard]] double offered_per_kcycle() const;
  /// Serving throughput inside the arrival window, requests per kcycle.
  [[nodiscard]] double served_per_kcycle() const;
  /// served/offered ratio in the window: ~1 below saturation, <1 past it.
  [[nodiscard]] double served_ratio() const;
};

/// Default serving policy (affinity honored; balancer = caller's choice).
sched::Policy policy_for(const Config& cfg);

/// Run the serving trace to completion under `cfg`. Verifies admission
/// conservation (cool-check ledger) and stock conservation before returning.
Result run(Runtime& rt, const Config& cfg);

}  // namespace cool::apps::txn
