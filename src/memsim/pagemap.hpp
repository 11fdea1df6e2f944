// Page-granularity placement map: which processor's local memory holds each
// page of the simulated shared address space.
//
// This models DASH's physical page placement: COOL's `new (proc)` registers
// pages at allocation time, `migrate()` rebinds whole pages (the paper's
// footnote 2: "the migrate call ... is implemented through the migration of
// entire pages spanned by the object"), and `home()` is a lookup (footnote 3).
// Unregistered pages are bound on first touch to the accessing processor's
// memory, matching "by default, memory is allocated from the local memory of
// the requesting processor".
//
// Both engines key the map by arena-relative address, so pages are small
// dense integers and the map is a vector of homes indexed by page number.
#pragma once

#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "topology/machine.hpp"

namespace cool::mem {

using PageAddr = std::uint64_t;

class PageMap {
 public:
  /// Pages at or past this index are rejected with util::Error: the table is
  /// indexed by page, so a stray address must not size it.
  static constexpr PageAddr kMaxPages = PageAddr{1} << 24;

  explicit PageMap(const topo::MachineConfig& machine);

  /// Bind every page overlapping [addr, addr+size) to `home`'s local memory.
  /// Returns the number of pages bound. Re-binding an already-bound page is
  /// allowed (it is exactly what migrate does).
  std::size_t bind_range(std::uint64_t addr, std::uint64_t size,
                         topo::ProcId home);

  /// Home processor of the page containing `addr`; binds on first touch to
  /// `toucher` if unbound.
  topo::ProcId home_of(std::uint64_t addr, topo::ProcId toucher) {
    COOL_CHECK(toucher < n_procs_, "home_of: processor id out of range");
    const PageAddr page = addr >> page_shift_;
    if (page < homes_.size() && homes_[page] != kUnbound) return homes_[page];
    bind(page, toucher);
    ++first_touches_;
    return toucher;
  }

  /// Home of `addr` if bound (does not first-touch). Throws if unbound.
  [[nodiscard]] topo::ProcId home_of_bound(std::uint64_t addr) const;

  [[nodiscard]] bool is_bound(std::uint64_t addr) const noexcept;

  /// Pages overlapped by [addr, addr+size).
  [[nodiscard]] std::vector<PageAddr> pages_in(std::uint64_t addr,
                                               std::uint64_t size) const;

  [[nodiscard]] std::size_t n_bound_pages() const noexcept { return n_bound_; }
  [[nodiscard]] std::uint64_t first_touch_count() const noexcept {
    return first_touches_;
  }

  /// Pages currently homed at each processor (load-balance diagnostics).
  [[nodiscard]] std::vector<std::size_t> pages_per_proc() const;

  void clear() noexcept {
    homes_.clear();
    n_bound_ = 0;
    first_touches_ = 0;
  }

 private:
  static constexpr topo::ProcId kUnbound = 0xffffffffu;

  /// Set `page`'s home, growing the table as needed.
  void bind(PageAddr page, topo::ProcId home);

  std::uint32_t n_procs_;
  unsigned page_shift_;
  std::vector<topo::ProcId> homes_;  ///< By page; kUnbound if not bound.
  std::size_t n_bound_ = 0;
  std::uint64_t first_touches_ = 0;
};

}  // namespace cool::mem
