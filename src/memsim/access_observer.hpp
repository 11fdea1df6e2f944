// AccessObserver — a passive tap on the simulated memory system.
//
// The locality profiler (obs/profiler.hpp) needs to know, for every line
// reference, where it was serviced and what it cost — attribution the
// aggregate PerfMonitor throws away. The race detector
// (analysis/race_detector.hpp) needs the same stream with byte precision.
// Rather than teach MemorySystem about objects and tasks, it exposes this
// narrow observer interface: when observers are attached, every line goes
// through access_line(), which reports each reference after the fact. (With
// none attached, MemorySystem::access serves the lines in place; the
// simulated state and counters are the same either way, so an observer sees
// exactly the per-line stream an unobserved run simulates.)
//
// Ordering guarantees (the contract both consumers rely on):
//   * Observers run after ALL simulated state for the line (caches,
//     directory, page map, counters) is final, and must not feed anything
//     back — attaching one can never change simulated cycle counts.
//   * Events for one processor are delivered in that processor's program
//     order; multi-line accesses deliver their lines in ascending address
//     order, each with the byte sub-range [lo, hi) the program touched.
//   * Multiple observers are invoked in attachment order, each seeing the
//     identical event stream.
#pragma once

#include <cstdint>

#include "memsim/perfmon.hpp"
#include "topology/machine.hpp"

namespace cool::mem {

/// One serviced line reference, as seen by MemorySystem::access_line.
struct AccessInfo {
  topo::ProcId proc = 0;        ///< Processor that issued the reference.
  std::uint64_t addr = 0;       ///< Line-aligned simulated byte address.
  Service service = Service::kL1Hit;
  bool is_write = false;
  std::uint32_t stall = 0;      ///< Stall cycles charged for this line.
  topo::ProcId home = 0;        ///< Page home at the time of the access.
  std::uint64_t lo = 0;         ///< First byte of the line actually touched.
  std::uint64_t hi = 0;         ///< One past the last byte touched (0 = whole
                                ///< line; some callers are line-granular).
};

class AccessObserver {
 public:
  virtual ~AccessObserver() = default;

  /// Called once per line reference, after counters and caches are updated.
  virtual void on_access(const AccessInfo& info) = 0;

  /// Called when `requester`'s write to the line at `addr` invalidated
  /// `copies_killed` sharer copies (write-sharing traffic only — page
  /// migration flushes are not reported).
  virtual void on_inval(std::uint64_t addr, topo::ProcId requester,
                        int copies_killed) = 0;
};

}  // namespace cool::mem
