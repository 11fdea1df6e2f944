// MemorySystem: the simulated DASH memory hierarchy.
//
// Execution-driven model: application code runs natively; every simulated
// memory reference is routed through here to (a) decide which level of the
// hierarchy services it, (b) charge the paper's latencies, (c) maintain
// directory coherence across the per-processor two-level caches, and
// (d) account everything in the PerfMonitor.
//
// The model reproduces the behaviours the paper's figures measure:
//   * cache reuse (back-to-back task scheduling -> L1/L2 hits),
//   * local vs. remote miss service (object distribution & object affinity),
//   * invalidations from write sharing (LocusRoute CostArray),
//   * memory-controller contention (panel distribution "spreads the memory
//     bandwidth requirements"),
//   * page-granularity migration (COOL's migrate()).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "memsim/access_observer.hpp"
#include "memsim/cache.hpp"
#include "memsim/channel/backend.hpp"
#include "memsim/directory.hpp"
#include "memsim/pagemap.hpp"
#include "memsim/perfmon.hpp"
#include "topology/machine.hpp"

namespace cool::mem {

class MemorySystem {
 public:
  /// `chan` selects the memory-timing backend (default: the flat model,
  /// byte-identical to the pre-backend MemorySystem).
  explicit MemorySystem(const topo::MachineConfig& machine,
                        const ChannelConfig& chan = {});

  /// Simulate `proc` referencing [addr, addr+bytes) at time `now`, one line
  /// after another, each line at `now` plus the stall of the lines before
  /// it. Returns the total stall cycles charged. While an observer is
  /// attached every line goes through access_line; otherwise the lines are
  /// served in place and their hits counted once per call, with identical
  /// simulated state, latency and counters.
  std::uint64_t access(topo::ProcId proc, std::uint64_t addr,
                       std::uint64_t bytes, bool is_write, std::uint64_t now);

  /// Migrate every page overlapping [addr, addr+bytes) to `new_home`'s local
  /// memory: flushes cached copies (writing back dirty lines), rebinds the
  /// pages, and returns the cycles charged to the calling processor.
  std::uint64_t migrate(topo::ProcId caller, std::uint64_t addr,
                        std::uint64_t bytes, topo::ProcId new_home);

  /// Prefetch [addr, addr+bytes) into `proc`'s caches (paper §8: prefetching
  /// the remaining affinity objects). Clean lines only — lines dirty in
  /// another cache are skipped to keep coherence simple. Prefetches are
  /// modelled as fully overlapped: the caller charges only an issue cost.
  /// Returns the number of lines actually brought in.
  std::uint64_t prefetch(topo::ProcId proc, std::uint64_t addr,
                         std::uint64_t bytes, std::uint64_t now);

  /// Bind pages at allocation time (COOL's placed `new`); no flush, no charge.
  void bind_range(std::uint64_t addr, std::uint64_t bytes, topo::ProcId home) {
    pages_.bind_range(addr, bytes, home);
  }

  /// Home processor of `addr` (first-touch binds to `toucher`).
  topo::ProcId home_of(std::uint64_t addr, topo::ProcId toucher) {
    return pages_.home_of(addr, toucher);
  }

  PageMap& pages() noexcept { return pages_; }
  PerfMonitor& monitor() noexcept { return mon_; }
  [[nodiscard]] const PerfMonitor& monitor() const noexcept { return mon_; }
  Directory& directory() noexcept { return dir_; }
  [[nodiscard]] const Directory& directory() const noexcept { return dir_; }
  [[nodiscard]] const topo::MachineConfig& machine() const noexcept {
    return machine_;
  }

  /// The active memory-timing backend (never null); see channel/backend.hpp.
  [[nodiscard]] const ChannelBackend& channel() const noexcept {
    return *backend_;
  }

  /// Drop all cache and directory state (not the page map). Tests use this;
  /// benches use it to separate warm-up from measurement.
  void flush_all_caches();

  /// Attach a passive per-access tap (in addition to any already attached).
  /// Observers are invoked in attachment order, after each line's simulated
  /// state is final, so they can never perturb timing; each must outlive the
  /// accesses it observes.
  void add_observer(AccessObserver* obs) {
    if (obs != nullptr) observers_.push_back(obs);
  }

  void remove_observer(AccessObserver* obs) noexcept {
    std::erase(observers_, obs);
  }

  /// `proc`'s first- and second-level caches (coherence checks in tests).
  [[nodiscard]] const Cache& l1(topo::ProcId proc) const { return l1_[proc]; }
  [[nodiscard]] const Cache& l2(topo::ProcId proc) const { return l2_[proc]; }

 private:
  /// One line of `access` while observers are attached, counted and reported
  /// to them: on_inval (for a write that killed copies), then on_access.
  std::uint64_t access_line(topo::ProcId proc, LineAddr line,
                            std::uint64_t addr, std::uint64_t lo,
                            std::uint64_t hi, bool is_write,
                            std::uint64_t now);
  /// The unobserved `access` of lines [first, last]: reads, or writes when
  /// `kWrite`. The caches and counters are held outside the loop, and the
  /// hits are counted in locals and added once.
  template <bool kWrite>
  std::uint64_t access_run(topo::ProcId proc, LineAddr first, LineAddr last,
                           std::uint64_t now);
  /// One line's stall and where it was served from. `state` is the line's
  /// directory state when fill looked it up (a miss), else null.
  struct Served {
    std::uint64_t lat;
    Service service;
    LineState* state;
  };
  /// Serve one reference to `line` from `proc`'s caches `l1` and `l2` at
  /// time `now`: an L1 hit (re-touching L2), an L2 hit (filling L1), or else
  /// fill. The caller counts the reference. The caches are arguments so that
  /// a loop over lines holds them rather than indexing l1_/l2_ per line.
  Served serve(topo::ProcId proc, Cache& l1, Cache& l2, LineAddr line,
               std::uint64_t now);
  /// Serve a line that missed both of `proc`'s caches, at time `now`:
  /// forward it from a dirty owner or fill it from its home memory, insert
  /// it into L2 and L1, and add `proc` as a sharer. Counts the owner's
  /// writeback or `proc`'s queueing delay; the caller counts the reference.
  /// Looks the line up in the directory once and returns that state.
  Served fill(topo::ProcId proc, LineAddr line, std::uint64_t now);
  /// A write's extra stall and the number of other copies it killed.
  struct Upgrade {
    std::uint64_t lat;
    int killed;
  };
  /// The write rule, for a line that `proc` has just served, so `proc` is
  /// one of its sharers. `filled` is Served::state. Unless `proc` already
  /// owns the line dirty, kill every other sharer's L1 and L2 copy, count
  /// the invalidations sent and received (and an upgrade if any copy died),
  /// charge the invalidation latency, and make `proc` the only sharer and
  /// the dirty owner. `c` is `proc`'s counters.
  Upgrade write_rule(topo::ProcId proc, ProcCounters& c, LineAddr line,
                     LineState* filled);
  /// Handle an L2 victim: maintain inclusion and directory state.
  void evict_line(topo::ProcId proc, LineAddr victim);
  /// Drop every cached copy of `line`, held by the processors in `sharers`
  /// (a page-migration flush, which counts no invalidations).
  void invalidate_sharers(LineAddr line, std::uint64_t sharers);

  topo::MachineConfig machine_;
  unsigned line_shift_;  ///< log2(line_bytes)
  /// Cluster of each processor, so the miss path compares table entries
  /// instead of dividing by procs_per_cluster.
  std::vector<topo::ClusterId> cluster_;
  std::vector<Cache> l1_;
  std::vector<Cache> l2_;
  Directory dir_;
  PageMap pages_;
  PerfMonitor mon_;
  /// Memory-controller contention model; see channel/backend.hpp for the
  /// queueing-delay discipline shared by both backends.
  std::unique_ptr<ChannelBackend> backend_;
  std::vector<AccessObserver*> observers_;  ///< Passive taps, in attach order.
};

}  // namespace cool::mem
