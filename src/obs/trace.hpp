// Structured event tracing: per-processor ring buffers of typed events,
// exportable as Chrome-trace JSON (load in chrome://tracing or Perfetto).
//
// Each processor (sim) or worker (threads) records into its own
// fixed-capacity ring with no synchronisation on the hot path — single
// writer per buffer, readers merge after the run. When a ring wraps, the
// oldest events are dropped and counted, so tracing a long run costs bounded
// memory and, crucially for the simulation engine, never perturbs the
// simulated clocks: recording an event performs no allocation after
// construction and charges no cycles.
//
// Timestamps are engine-defined: simulated cycles under SimEngine,
// microseconds since run start under ThreadEngine. The Chrome exporter
// writes them to the `ts`/`dur` fields unchanged (Chrome interprets them as
// microseconds, which makes one simulated cycle render as one "µs").
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "topology/machine.hpp"

namespace cool::obs {

enum class EventKind : std::uint8_t {
  kTaskSpan = 0,  ///< One task resume: a=task seq; flags carry end/stolen.
  kSteal,         ///< Successful steal: a=victim proc, b=tasks acquired.
  kMigration,     ///< Page migration: a=target proc, b=bytes.
  kIdleGap,       ///< Processor waited for a task's data/ready time.
  kAdaptation,    ///< Adaptive-runtime decision: a=decision index into the
                  ///< adaptation log, b=rule (obs::AdviceKind).
  kBalance,       ///< Balancer decision: a=source server (move) or target
                  ///< server (reservation), b=tasks affected; flags carry
                  ///< the decision kind (kBalanceMove / kBalanceReserve).
};

/// kBalance flag values (which balancer decision the event records).
constexpr std::uint8_t kBalanceMove = 0;     ///< An Average move executed.
constexpr std::uint8_t kBalanceReserve = 1;  ///< Placement reservation.

/// TaskSpan flag bits.
constexpr std::uint8_t kSpanStolen = 0x1;     ///< Acquired by stealing.
constexpr std::uint8_t kSpanEndShift = 1;     ///< Bits 1-2: how the span ended.
constexpr std::uint8_t kSpanEndMask = 0x6;
constexpr std::uint8_t kSpanCompleted = 0;
constexpr std::uint8_t kSpanBlocked = 1;
constexpr std::uint8_t kSpanYielded = 2;

inline std::uint8_t span_flags(bool stolen, std::uint8_t end) noexcept {
  return static_cast<std::uint8_t>((stolen ? kSpanStolen : 0) |
                                   (end << kSpanEndShift));
}
inline std::uint8_t span_end(std::uint8_t flags) noexcept {
  return static_cast<std::uint8_t>((flags & kSpanEndMask) >> kSpanEndShift);
}

/// One trace event. `a`/`b` are kind-specific payloads (see EventKind).
struct Event {
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  topo::ProcId proc = 0;
  EventKind kind = EventKind::kTaskSpan;
  std::uint8_t flags = 0;
};

/// Fixed-capacity single-writer ring: once full, each record overwrites the
/// oldest element and counts it as dropped. Not internally synchronised:
/// exactly one thread records; readers inspect only after the writer
/// quiesces (post-run), matching how both engines and the request tracer
/// use it.
template <typename T>
class Ring {
 public:
  explicit Ring(std::size_t capacity) : ring_(capacity) {
    COOL_CHECK(capacity >= 1, "trace ring needs capacity >= 1");
  }

  void record(const T& e) noexcept {
    ring_[next_ % ring_.size()] = e;
    ++next_;
  }

  /// Elements currently retained (<= capacity).
  [[nodiscard]] std::size_t size() const noexcept {
    return next_ < ring_.size() ? next_ : ring_.size();
  }
  [[nodiscard]] std::size_t capacity() const noexcept { return ring_.size(); }
  /// Elements overwritten by wrap-around.
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return next_ < ring_.size() ? 0 : next_ - ring_.size();
  }

  /// Visit retained elements oldest to newest.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    const std::size_t n = size();
    const std::size_t first = next_ - n;
    for (std::size_t i = 0; i < n; ++i) {
      fn(ring_[(first + i) % ring_.size()]);
    }
  }

  void clear() noexcept { next_ = 0; }

 private:
  std::vector<T> ring_;
  std::size_t next_ = 0;  ///< Total elements ever recorded.
};

/// One processor's ring of trace events.
using TraceBuffer = Ring<Event>;

/// One TraceBuffer per processor plus merged views over all of them.
class TraceCollector {
 public:
  TraceCollector(std::uint32_t n_procs, std::size_t capacity_per_proc);

  [[nodiscard]] TraceBuffer& buf(topo::ProcId p) { return bufs_.at(p); }
  [[nodiscard]] const TraceBuffer& buf(topo::ProcId p) const {
    return bufs_.at(p);
  }
  [[nodiscard]] std::uint32_t n_procs() const noexcept {
    return static_cast<std::uint32_t>(bufs_.size());
  }

  /// All retained events, sorted by (start, proc, end) — a deterministic
  /// global timeline.
  [[nodiscard]] std::vector<Event> merged() const;

  [[nodiscard]] std::uint64_t total_dropped() const noexcept;
  [[nodiscard]] std::size_t total_size() const noexcept;
  void clear() noexcept;

 private:
  std::vector<TraceBuffer> bufs_;
};

struct ProfileSnapshot;  // obs/profiler.hpp

/// Render events as a Chrome trace ("traceEvents" JSON object). Task spans
/// and idle gaps become duration ("X") events, steals instant ("i") events,
/// migrations duration events on the migrating processor's row. When
/// `profile` is non-null, per-object counter ("C") tracks are appended so
/// the miss and remote-stall attribution shows up alongside the timeline.
std::string chrome_trace_json(const std::vector<Event>& events,
                              const ProfileSnapshot* profile = nullptr);

/// Render the task spans among `events` (other kinds are skipped) as a
/// per-processor table of spans, stolen spans and busy share, plus an ASCII
/// timeline with `width` columns ('#' ≥75% busy, '+' ≥25%, '.' >0, ' '
/// idle) — handy for seeing how an affinity hint changed the schedule.
std::string render_trace_report(const std::vector<Event>& events,
                                std::uint32_t n_procs, std::uint64_t finish,
                                int width = 64);

}  // namespace cool::obs
