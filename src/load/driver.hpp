// Epoch-batched admission: the bridge from an arrival trace to the runtime.
//
// The Driver owns a precomputed arrival trace (load/arrivals.hpp) and runs
// an *admission pump* task that walks it in epoch batches: it advances its
// own simulated clock to each epoch boundary with Ctx::work() — so
// admission consumes one processor, like a real dispatcher thread — and
// spawns every request that arrived inside the epoch as a task carrying its
// request id and true arrival stamp. Batching is felis-style epoch design:
// admission cost is amortised over the batch, and each request's measured
// latency honestly includes its admission delay (completion cycle minus
// *arrival* cycle, not minus spawn cycle).
//
// Because the pump occupies its processor for the whole trace, callers
// should treat that processor as the front-end node and home served data on
// the remaining P-1 processors (as apps/txn does): work pinned to the
// pump's processor would only run after the last arrival. Each spawned
// request carries ready_time = the pump's clock, and dispatch honors it, so
// serving processors idle forward to a request's admission time rather than
// running it before it "exists".
//
// Because arrivals come from the trace and not from completions, the loop is
// open: when offered load exceeds capacity nothing slows the pump down, the
// scheduler's queues grow, and the growing queueing delay appears directly
// in the latency histogram — the classic hockey-stick p99.
//
// The Driver keeps a conservation ledger (generated / admitted / completed)
// which verify() feeds through cool-check's admission invariant: every
// generated request must be admitted exactly once and every admitted request
// must complete exactly once.
//
// Deterministic-simulation scoped: the pump and complete() share plain
// counters and a LatencyHist under the sim engine's one-thread execution
// model. Do not drive a Mode::kThreads runtime with it.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/cool.hpp"
#include "obs/hist.hpp"
#include "obs/request_trace.hpp"

namespace cool::load {

/// Exactly-once admission accounting, checked by cool-check.
struct AdmissionLedger {
  std::uint64_t generated = 0;  ///< Requests in the arrival trace.
  std::uint64_t admitted = 0;   ///< Requests spawned into the runtime.
  std::uint64_t completed = 0;  ///< Requests that called complete().
};

struct DriverConfig {
  /// Admission batch window, in simulated cycles. Arrivals are released at
  /// the end of the epoch containing their stamp.
  std::uint64_t epoch_cycles = 1000;
  /// TPC-style measurement interval: requests *arriving* before this cycle
  /// are excluded from measured_latency() (0 = measure everything). The
  /// full histogram (latency()) always covers the whole trace — it is the
  /// adaptive engine's live sensor and must see the ramp.
  std::uint64_t measure_from_cycles = 0;
};

/// Build the body of request `id` (arrival stamp attached for latency
/// accounting — the task must end by calling Driver::complete(id, c.now())).
using RequestFn = std::function<TaskFn(std::uint32_t id, std::uint64_t arrival)>;

/// Placement hint for request `id` (e.g. OBJECT affinity on the hot key's
/// home data).
using PlaceFn = std::function<Affinity(std::uint32_t id)>;

class Driver {
 public:
  Driver(std::vector<std::uint64_t> arrivals, DriverConfig cfg = {});

  /// The admission pump root task: run it with Runtime::run(). Spawns every
  /// request and waits for all of them before finishing. The pump pins
  /// itself to the processor it starts on and *yields at every epoch
  /// boundary*, so host execution order tracks simulated time and the
  /// scheduler's queues only ever hold requests that have actually arrived
  /// — balancers and the profiler see the true instantaneous queue state,
  /// not the whole future trace.
  TaskFn pump(PlaceFn place, RequestFn make);

  /// Called by each request task as its last act.
  void complete(std::uint32_t id, std::uint64_t now_cycles);

  /// Attach (or with nullptr, detach) the request-trace recorder: the pump
  /// stamps each request's admission at spawn, complete() stamps its
  /// completion, and the engine (which holds the same recorder) chains the
  /// dispatch spans in between. Declares this driver's arrival trace and
  /// measurement interval to the recorder. Call before pump() runs.
  void set_trace(obs::RequestTraceRecorder* rt) {
    trace_ = rt;
    if (rt != nullptr) rt->begin_run(arrivals_, cfg_.measure_from_cycles);
  }

  /// Throws util::Error (via the cool-check admission invariant) if any
  /// request was dropped or double-counted. Call after Runtime::run().
  void verify() const;

  [[nodiscard]] const obs::LatencyHist& latency() const noexcept {
    return hist_;
  }
  /// Latency of requests arriving inside the measurement interval
  /// (DriverConfig::measure_from_cycles; the whole trace by default).
  [[nodiscard]] const obs::LatencyHist& measured_latency() const noexcept {
    return measured_hist_;
  }
  [[nodiscard]] const AdmissionLedger& ledger() const noexcept {
    return ledger_;
  }
  [[nodiscard]] const std::vector<std::uint64_t>& arrivals() const noexcept {
    return arrivals_;
  }
  /// Stamp of the last arrival: the end of the offered-load window.
  [[nodiscard]] std::uint64_t last_arrival() const noexcept {
    return arrivals_.empty() ? 0 : arrivals_.back();
  }
  /// Completions that happened inside the offered-load window (completion
  /// cycle <= last arrival) — the numerator of the served/offered ratio.
  [[nodiscard]] std::uint64_t served_in_window() const noexcept {
    return served_in_window_;
  }
  /// In-flight requests (arrived but not yet completed, in simulated time)
  /// at every admission-epoch boundary, reconstructed from the arrival and
  /// completion stamps after the run: under overload this sequence grows
  /// without bound until the trace ends.
  [[nodiscard]] std::vector<std::uint64_t> inflight_samples() const;

 private:
  /// The pinned epoch loop; pump() spawns it with PROCESSOR affinity so the
  /// front-end cannot be stolen or moved once it starts yielding.
  TaskFn pump_epochs(PlaceFn place, RequestFn make);

  std::vector<std::uint64_t> arrivals_;
  DriverConfig cfg_;
  AdmissionLedger ledger_;
  obs::LatencyHist hist_;
  obs::LatencyHist measured_hist_;  ///< Arrivals >= measure_from_cycles.
  std::vector<std::uint64_t> completions_;  ///< Completion stamps, any order.
  std::uint64_t served_in_window_ = 0;
  obs::RequestTraceRecorder* trace_ = nullptr;  ///< Null unless --req-trace.
};

}  // namespace cool::load
