#include "memsim/pagemap.hpp"

#include "common/bitops.hpp"

namespace cool::mem {

PageMap::PageMap(const topo::MachineConfig& machine)
    : n_procs_(machine.n_procs),
      page_shift_(util::log2_exact(machine.page_bytes)) {}

void PageMap::bind(PageAddr page, topo::ProcId home) {
  COOL_CHECK(page < kMaxPages, "page map: address past the table cap");
  if (page >= homes_.size()) homes_.resize(page + 1, kUnbound);
  if (homes_[page] == kUnbound) ++n_bound_;
  homes_[page] = home;
}

std::size_t PageMap::bind_range(std::uint64_t addr, std::uint64_t size,
                                topo::ProcId home) {
  COOL_CHECK(home < n_procs_, "bind_range: processor id out of range");
  COOL_CHECK(size > 0, "bind_range: empty range");
  COOL_CHECK(addr + (size - 1) >= addr, "bind_range: range wraps past 2^64");
  const PageAddr first = addr >> page_shift_;
  const PageAddr last = (addr + size - 1) >> page_shift_;
  COOL_CHECK(last < kMaxPages, "bind_range: address past the table cap");
  for (PageAddr p = first; p <= last; ++p) bind(p, home);
  return static_cast<std::size_t>(last - first + 1);
}

topo::ProcId PageMap::home_of_bound(std::uint64_t addr) const {
  COOL_CHECK(is_bound(addr), "home_of_bound: page is not bound");
  return homes_[addr >> page_shift_];
}

bool PageMap::is_bound(std::uint64_t addr) const noexcept {
  const PageAddr page = addr >> page_shift_;
  return page < homes_.size() && homes_[page] != kUnbound;
}

std::vector<PageAddr> PageMap::pages_in(std::uint64_t addr,
                                        std::uint64_t size) const {
  COOL_CHECK(size > 0, "pages_in: empty range");
  std::vector<PageAddr> pages;
  const PageAddr first = addr >> page_shift_;
  const PageAddr last = (addr + size - 1) >> page_shift_;
  pages.reserve(static_cast<std::size_t>(last - first + 1));
  for (PageAddr p = first; p <= last; ++p) pages.push_back(p);
  return pages;
}

std::vector<std::size_t> PageMap::pages_per_proc() const {
  std::vector<std::size_t> counts(n_procs_, 0);
  for (const topo::ProcId home : homes_) {
    if (home != kUnbound) ++counts[home];
  }
  return counts;
}

}  // namespace cool::mem
