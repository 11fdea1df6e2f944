// Per-request causal tracing with tail-latency decomposition.
//
// The serving layer (load::Driver + srv benches) reports request latency as
// one number per request; this recorder splits that number into *why*:
//
//   end_to_end = completion - arrival
//              = queue_wait + service + steal_penalty          (exact, by
//                                                               construction)
//   service    = compute + memory_stall                        (stall cycles
//                                                               attributed via
//                                                               the existing
//                                                               AccessObserver
//                                                               tap)
//
// Component definitions (see DESIGN.md §14 for the derivation):
//   * service       — cycles the request actually executed: the sum of its
//                     dispatch spans [t0, t_end), with the final span capped
//                     at the completion stamp.
//   * memory_stall  — the subset of service charged by the memory system
//                     while this request was current on its processor.
//   * steal_penalty — per stolen/moved dispatch, min(charged steal or move
//                     overhead, t0 - ready_time): the part of the dispatch
//                     gap the theft itself added. Overhead charged before the
//                     idle-forward to ready_time hides inside the wait and
//                     costs the request nothing — the min() keeps the
//                     component honest.
//   * queue_wait    — everything else: admission batching delay, time queued
//                     runnable, monitor waits, and dispatch/prefetch/adapt
//                     overhead ahead of each span. Computed as the remainder,
//                     so the identity above holds exactly for every request,
//                     not within a tolerance.
//
// Mechanics: the engine tags request tasks with sched::TaskDesc::req and
// calls on_dispatch/on_span_end around every resume; the load::Driver stamps
// admission and completion. Spans land in per-processor obs::Ring<ReqSpan>s,
// the single-writer wrap-and-count ring obs::TraceBuffer also is (drops are
// surfaced, never silent); per-request accumulators are O(1) per event, so
// the breakdown histograms stay exact even when span rings wrap. Everything
// is passive: recording charges no simulated cycles, and when the recorder
// is not attached (--req-trace off) the engine does a single null check per
// dispatch and the memory system never sees the observer.
//
// Sim-engine scoped and single-threaded, like load::Driver.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "memsim/access_observer.hpp"
#include "obs/hist.hpp"
#include "obs/trace.hpp"
#include "topology/machine.hpp"

namespace cool::obs {

/// Kind of one recorded request span.
enum class ReqSpanKind : std::uint8_t {
  kExec = 0,   ///< One dispatch: the request ran [start, end) on `proc`.
  kMigrate,    ///< The running request migrated pages (Ctx::migrate).
};

/// ReqSpan flag bits (kExec spans).
constexpr std::uint8_t kReqSpanStolen = 0x1;  ///< Dispatch acquired by theft.
constexpr std::uint8_t kReqSpanMoved = 0x2;   ///< Dispatch after balancer move.

/// One entry in a per-processor request-span ring.
struct ReqSpan {
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  std::uint32_t req = 0;
  std::uint32_t aux = 0;  ///< kExec stolen/moved: victim proc; kMigrate: bytes.
  topo::ProcId proc = 0;
  ReqSpanKind kind = ReqSpanKind::kExec;
  std::uint8_t flags = 0;
};

/// Per-request breakdown accumulator (exposed for tests; cycle units).
struct ReqStat {
  std::uint64_t arrival = 0;
  std::uint64_t admission = 0;   ///< Pump clock when the task was spawned.
  std::uint64_t completion = 0;
  std::uint64_t service = 0;
  std::uint64_t memory_stall = 0;
  std::uint64_t steal_penalty = 0;
  std::uint64_t queue_wait = 0;  ///< Valid once finalized.
  std::uint32_t dispatches = 0;
  std::uint16_t steal_hops = 0;
  std::uint16_t moves = 0;
  bool admitted = false;
  bool completed = false;
  bool finalized = false;  ///< Breakdown recorded into the histograms.
};

/// The four component histograms of a set of completed requests.
struct BreakdownSample {
  LatencyHist queue_wait;
  LatencyHist service;
  LatencyHist memory_stall;
  LatencyHist steal_penalty;
};

/// Queue-wait and memory-stall sums over every completed request: all of
/// the decomposition the adaptive engine's breakdown sensor reads (it
/// compares the two components' growth per epoch).
struct StallSums {
  std::uint64_t queue_wait = 0;
  std::uint64_t memory_stall = 0;
};

/// End-of-run breakdown over the measurement interval, for bench tables.
struct BreakdownSummary {
  bool present = false;
  std::uint64_t count = 0;
  double mean_queue_wait = 0.0;
  double mean_service = 0.0;
  double mean_memory_stall = 0.0;
  double mean_steal_penalty = 0.0;
  std::uint64_t p99_queue_wait = 0;
  std::uint64_t p99_service = 0;
  std::uint64_t p99_memory_stall = 0;
  std::uint64_t p99_steal_penalty = 0;
  std::uint64_t dropped = 0;     ///< Span-ring events lost to wrap.
  std::uint64_t exemplars = 0;   ///< Tail exemplars retained.
};

/// One of the K slowest measured requests, with its gathered span chain
/// (possibly partial if a span ring wrapped — see dropped()).
struct ReqExemplar {
  std::uint32_t req = 0;
  ReqStat stat;
  std::vector<ReqSpan> spans;  ///< Sorted by (start, proc, end).
};

class RequestTraceRecorder final : public mem::AccessObserver {
 public:
  /// Request-id sentinel for tasks that are not requests. Must equal
  /// sched::kNoRequest (static_asserted where the two meet).
  static constexpr std::uint32_t kNoRequest = 0xffffffffu;

  RequestTraceRecorder(std::uint32_t n_procs, std::size_t ring_capacity,
                       std::size_t n_exemplars);

  // --- driver-side stamps ---------------------------------------------------
  /// Declare the run's arrival trace (request id i arrived at arrivals[i])
  /// and the measurement interval start. Resets all state.
  void begin_run(const std::vector<std::uint64_t>& arrivals,
                 std::uint64_t measure_from);
  /// Request `req` was spawned into the runtime at `admission` (the pump's
  /// clock, which is the task's initial ready_time).
  void on_admit(std::uint32_t req, std::uint64_t admission);
  /// Request `req` called Driver::complete at `completion`. The breakdown is
  /// finalized when its current span closes (completion lands mid-span).
  void on_complete(std::uint32_t req, std::uint64_t completion);

  // --- engine-side stamps ---------------------------------------------------
  /// Request `req` is about to resume on `p` at `t_start`. `ready` is the
  /// task's ready_time at acquire, `overhead` the dispatch/steal/move cycles
  /// charged, `stolen`/`moved`/`victim` the acquire provenance.
  void on_dispatch(topo::ProcId p, std::uint32_t req, std::uint64_t ready,
                   std::uint64_t t_start, std::uint64_t overhead, bool stolen,
                   bool moved, topo::ProcId victim);
  /// The span opened by the matching on_dispatch on `p` ended at `t_end`.
  void on_span_end(topo::ProcId p, std::uint64_t t_end);
  /// The request currently on `p` (if any) migrated `bytes` over
  /// [start, end) — recorded as a causal annotation span.
  void on_migration(topo::ProcId p, std::uint64_t start, std::uint64_t end,
                    std::uint64_t bytes);

  // --- mem::AccessObserver --------------------------------------------------
  /// Attribute the line's stall cycles to the request currently executing on
  /// info.proc (memory_stall component). Passive by the observer contract.
  void on_access(const mem::AccessInfo& info) override;
  void on_inval(std::uint64_t, topo::ProcId, int) override {}

  // --- results --------------------------------------------------------------
  [[nodiscard]] std::uint64_t completed() const noexcept { return completed_; }
  [[nodiscard]] std::uint64_t measured() const noexcept { return measured_; }
  /// Per-ring and total span drops (events lost to wrap).
  [[nodiscard]] std::uint64_t dropped(topo::ProcId p) const;
  [[nodiscard]] std::uint64_t total_dropped() const;
  [[nodiscard]] std::uint64_t total_spans() const;
  [[nodiscard]] std::uint32_t n_procs() const noexcept {
    return static_cast<std::uint32_t>(rings_.size());
  }
  /// Accumulator for request `req` (tests; valid ids only).
  [[nodiscard]] const ReqStat& stat(std::uint32_t req) const;

  /// Queue-wait and memory-stall sums over ALL completed requests — the
  /// adaptive engine's breakdown sensor.
  [[nodiscard]] StallSums stall_sums() const noexcept { return all_; }
  /// Component histograms over the measurement interval only.
  [[nodiscard]] const BreakdownSample& measured_sample() const noexcept {
    return measured_sample_;
  }
  [[nodiscard]] BreakdownSummary summary() const;

  /// The K slowest finalized requests from the measurement interval, slowest
  /// first (ties broken by lower id), with their span chains.
  [[nodiscard]] std::vector<ReqExemplar> exemplars() const;
  /// Exemplars rendered as Chrome trace-event JSON: exec spans as "X" events
  /// per processor row, an admission-wait span on a synthetic front row, and
  /// flow arrows ("s"/"f" pairs) between consecutive spans that changed
  /// processor — named "steal"/"move"/"hop" by the destination's provenance.
  /// Each admission event carries the full breakdown in its args.
  [[nodiscard]] std::string exemplar_chrome_json() const;

 private:
  struct Pending {
    std::uint32_t req = kNoRequest;
    std::uint64_t start = 0;
    std::uint32_t victim = 0;
    std::uint8_t flags = 0;
  };
  void finalize(std::uint32_t req);

  std::size_t n_exemplars_;
  std::vector<Ring<ReqSpan>> rings_;  ///< One per processor.
  std::vector<Pending> pending_;   ///< Open dispatch per processor.
  std::vector<ReqStat> stats_;     ///< Indexed by request id.
  std::uint64_t measure_from_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t measured_ = 0;
  StallSums all_;
  BreakdownSample measured_sample_;
};

}  // namespace cool::obs
