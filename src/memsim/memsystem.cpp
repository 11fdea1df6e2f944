#include "memsim/memsystem.hpp"

#include <algorithm>
#include <bit>

namespace cool::mem {

MemorySystem::MemorySystem(const topo::MachineConfig& machine,
                           const ChannelConfig& chan)
    : machine_(machine),
      line_shift_(util::log2_exact(machine.line_bytes)),
      pages_(machine_),
      mon_(machine.n_procs),
      backend_(make_channel_backend(machine, chan)) {
  machine_.validate();
  cluster_.reserve(machine_.n_procs);
  l1_.reserve(machine_.n_procs);
  l2_.reserve(machine_.n_procs);
  for (std::uint32_t p = 0; p < machine_.n_procs; ++p) {
    cluster_.push_back(machine_.cluster_of(p));
    l1_.emplace_back(machine_.l1_bytes, machine_.l1_assoc, machine_.line_bytes);
    l2_.emplace_back(machine_.l2_bytes, machine_.l2_assoc, machine_.line_bytes);
  }
}

void MemorySystem::invalidate_sharers(LineAddr line, std::uint64_t sharers) {
  for (; sharers != 0; sharers &= sharers - 1) {
    const auto q = static_cast<topo::ProcId>(std::countr_zero(sharers));
    l1_[q].invalidate(line);
    l2_[q].invalidate(line);
    dir_.remove_sharer(line, q);
  }
}

inline void MemorySystem::evict_line(topo::ProcId proc, LineAddr victim) {
  // Inclusion: an L2 victim may not linger in L1.
  l1_[proc].invalidate(victim);
  LineState& st = dir_.cached(victim);
  if (st.dirty_owner == proc) mon_.proc(proc).writebacks += 1;
  dir_.remove_sharer(st, proc);  // also drops proc's dirty ownership
}

MemorySystem::Served MemorySystem::fill(topo::ProcId proc, LineAddr line,
                                        std::uint64_t now) {
  // Full miss: consult the page map and the directory, once each. The
  // victim that the L2 insert evicts is another line, and chunks never move,
  // so `st` stays valid through evict_line.
  const std::uint64_t addr = line << line_shift_;
  const topo::ProcId home = pages_.home_of(addr, proc);
  const topo::ClusterId here = cluster_[proc];
  LineState& st = dir_.entry(line);
  Served s{};
  s.state = &st;

  if (st.is_dirty() && st.dirty_owner != proc) {
    // Serviced by forwarding from the dirty owner's cache; owner keeps a
    // shared copy and the data is written back towards home.
    const topo::ProcId owner = st.dirty_owner;
    const bool owner_local = cluster_[owner] == here;
    s.service = owner_local ? Service::kLocalCache : Service::kRemoteCache;
    s.lat = owner_local ? machine_.lat.local_cache : machine_.lat.remote_cache;
    st.dirty_owner = kNoOwner;
    mon_.proc(owner).writebacks += 1;
  } else {
    const topo::ClusterId home_cluster = cluster_[home];
    const bool home_local = home_cluster == here;
    s.service = home_local ? Service::kLocalMem : Service::kRemoteMem;
    s.lat = home_local ? machine_.lat.local_mem : machine_.lat.remote_mem;
    const std::uint64_t wait =
        backend_->demand_fill(home_cluster, addr, now + s.lat);
    s.lat += wait;
    mon_.proc(proc).contention_cycles += wait;
  }

  if (auto victim = l2_[proc].insert(line)) evict_line(proc, *victim);
  l1_[proc].insert(line);
  dir_.add_sharer(st, proc);
  return s;
}

inline MemorySystem::Served MemorySystem::serve(topo::ProcId proc, Cache& l1,
                                                Cache& l2, LineAddr line,
                                                std::uint64_t now) {
  if (l1.access(line)) {
    // (presence in L1 implies presence in L2 by inclusion)
    l2.access(line);  // keep L2 LRU warm (no-op when direct mapped)
    return {machine_.lat.l1_hit, Service::kL1Hit, nullptr};
  }
  if (l2.access(line)) {
    l1.insert(line);  // the L1 victim stays valid in L2
    return {machine_.lat.l2_hit, Service::kL2Hit, nullptr};
  }
  return fill(proc, line, now);
}

// Forced inline: GCC 12 keeps it out of line, and that call per written line
// cost fig14 and fig15 4-6% more CPU time (RelWithDebInfo, x86-64).
[[gnu::always_inline]] inline MemorySystem::Upgrade MemorySystem::write_rule(
    topo::ProcId proc, ProcCounters& c, LineAddr line, LineState* filled) {
  // A hit did not look the line up; it is in proc's L2, so its chunk exists.
  LineState& st = filled != nullptr ? *filled : dir_.cached(line);
  if (st.dirty_owner == proc) return {0, 0};
  // Ascending processor order, visiting only the other sharers. proc stays
  // a sharer, so the entry never empties here.
  std::uint64_t victims = st.sharers & ~(1ull << proc);
  Upgrade up{0, 0};
  if (victims != 0) {
    const topo::ClusterId here = cluster_[proc];
    bool any_remote = false;
    for (; victims != 0; victims &= victims - 1) {
      const auto q = static_cast<topo::ProcId>(std::countr_zero(victims));
      l1_[q].invalidate(line);
      l2_[q].invalidate(line);
      mon_.proc(q).invals_received += 1;
      any_remote |= cluster_[q] != here;
      ++up.killed;
    }
    c.invals_sent += static_cast<std::uint64_t>(up.killed);
    c.upgrades += 1;
    up.lat = any_remote ? machine_.lat.inval_remote : machine_.lat.inval_local;
  }
  dir_.set_dirty(st, proc);
  return up;
}

std::uint64_t MemorySystem::access_line(topo::ProcId proc, LineAddr line,
                                        std::uint64_t addr, std::uint64_t lo,
                                        std::uint64_t hi, bool is_write,
                                        std::uint64_t now) {
  ProcCounters& c = mon_.proc(proc);
  const Served served = serve(proc, l1_[proc], l2_[proc], line, now);
  const Service service = served.service;
  std::uint64_t lat = served.lat;

  if (is_write) {
    const Upgrade up = write_rule(proc, c, line, served.state);
    lat += up.lat;
    if (up.killed > 0) {
      for (AccessObserver* o : observers_) o->on_inval(addr, proc, up.killed);
    }
    c.writes += 1;
  } else {
    c.reads += 1;
  }

  c.serviced[static_cast<int>(service)] += 1;
  c.latency_cycles += lat;
  // The line is cached here by now, so its page is necessarily bound and
  // this lookup cannot first-touch (the tap never perturbs the page map).
  const AccessInfo info{proc,     addr,
                        service,  is_write,
                        static_cast<std::uint32_t>(lat),
                        pages_.home_of(addr, proc),
                        lo,       hi};
  for (AccessObserver* o : observers_) o->on_access(info);
  return lat;
}

template <bool kWrite>
std::uint64_t MemorySystem::access_run(topo::ProcId proc, LineAddr first,
                                       LineAddr last, std::uint64_t now) {
  // Each line is served exactly as access_line would serve it. A line that
  // was neither an L2 hit nor a miss hit L1, so the L1-hit path counts
  // nothing.
  ProcCounters& c = mon_.proc(proc);
  Cache& l1 = l1_[proc];
  Cache& l2 = l2_[proc];
  std::uint64_t total = 0;
  std::uint64_t l2_hits = 0;
  std::uint64_t misses = 0;
  for (LineAddr line = first; line <= last; ++line) {
    const Served s = serve(proc, l1, l2, line, now + total);
    total += s.lat;
    if constexpr (kWrite) total += write_rule(proc, c, line, s.state).lat;
    if (s.service == Service::kL2Hit) {
      ++l2_hits;
    } else if (s.service != Service::kL1Hit) {
      ++misses;
      c.serviced[static_cast<int>(s.service)] += 1;
    }
  }
  const std::uint64_t lines = last - first + 1;
  (kWrite ? c.writes : c.reads) += lines;
  c.serviced[static_cast<int>(Service::kL1Hit)] += lines - l2_hits - misses;
  c.serviced[static_cast<int>(Service::kL2Hit)] += l2_hits;
  c.latency_cycles += total;
  return total;
}

std::uint64_t MemorySystem::access(topo::ProcId proc, std::uint64_t addr,
                                   std::uint64_t bytes, bool is_write,
                                   std::uint64_t now) {
  COOL_CHECK(proc < machine_.n_procs, "access: processor id out of range");
  COOL_CHECK(bytes > 0, "access: empty range");
  COOL_CHECK(addr + (bytes - 1) >= addr, "access: range wraps past 2^64");
  const LineAddr first = addr >> line_shift_;
  const LineAddr last = (addr + bytes - 1) >> line_shift_;
  if (observers_.empty()) {
    return is_write ? access_run<true>(proc, first, last, now)
                    : access_run<false>(proc, first, last, now);
  }
  std::uint64_t total = 0;
  for (LineAddr line = first; line <= last; ++line) {
    const std::uint64_t line_start = line << line_shift_;
    // The byte sub-range of this line the program actually touched: byte
    // precision lets the race detector distinguish true sharing from false
    // sharing within one line.
    const std::uint64_t lo = std::max(addr, line_start);
    const std::uint64_t hi =
        std::min(addr + bytes, line_start + machine_.line_bytes);
    total += access_line(proc, line, line_start, lo, hi, is_write,
                         now + total);
  }
  return total;
}

std::uint64_t MemorySystem::migrate(topo::ProcId caller, std::uint64_t addr,
                                    std::uint64_t bytes,
                                    topo::ProcId new_home) {
  COOL_CHECK(caller < machine_.n_procs, "migrate: caller out of range");
  COOL_CHECK(new_home < machine_.n_procs, "migrate: target out of range");
  COOL_CHECK(bytes > 0, "migrate: empty range");
  COOL_CHECK(addr + (bytes - 1) >= addr, "migrate: range wraps past 2^64");

  const auto pages = pages_.pages_in(addr, bytes);
  const std::uint64_t lines_per_page = machine_.page_bytes / machine_.line_bytes;
  for (const PageAddr page : pages) {
    // Flush every cached line of the page (DASH migrates physical pages, so
    // stale cached copies must go; dirty data is written back first).
    const LineAddr first_line = page * lines_per_page;
    for (std::uint64_t i = 0; i < lines_per_page; ++i) {
      const LineAddr line = first_line + i;
      const LineState st = dir_.peek(line);
      if (!st.is_cached()) continue;
      if (st.is_dirty()) mon_.proc(st.dirty_owner).writebacks += 1;
      invalidate_sharers(line, st.sharers);
    }
    pages_.bind_range(page * machine_.page_bytes, machine_.page_bytes,
                      new_home);
  }
  const auto n = static_cast<std::uint64_t>(pages.size());
  mon_.proc(caller).pages_migrated += n;
  return n * machine_.lat.page_copy;
}

std::uint64_t MemorySystem::prefetch(topo::ProcId proc, std::uint64_t addr,
                                     std::uint64_t bytes, std::uint64_t now) {
  COOL_CHECK(proc < machine_.n_procs, "prefetch: processor id out of range");
  COOL_CHECK(bytes > 0, "prefetch: empty range");
  COOL_CHECK(addr + (bytes - 1) >= addr, "prefetch: range wraps past 2^64");
  const LineAddr first = addr >> line_shift_;
  const LineAddr last = (addr + bytes - 1) >> line_shift_;
  std::uint64_t brought = 0;
  for (LineAddr line = first; line <= last; ++line) {
    if (l2_[proc].contains(line)) continue;
    const LineState st = dir_.peek(line);
    if (st.is_dirty()) continue;  // leave dirty lines to demand misses
    const std::uint64_t line_addr = line << line_shift_;
    const topo::ProcId home = pages_.home_of(line_addr, proc);
    // Prefetches overlap execution but still consume memory bandwidth: they
    // add service backlog at the home controller (delaying demand misses)
    // without making this processor wait.
    backend_->post_fill(cluster_[home], line_addr, now);
    if (auto victim = l2_[proc].insert(line)) evict_line(proc, *victim);
    l1_[proc].insert(line);
    dir_.add_sharer(line, proc);
    ++brought;
  }
  mon_.proc(proc).prefetches += brought;
  return brought;
}

void MemorySystem::flush_all_caches() {
  for (auto& c : l1_) c.clear();
  for (auto& c : l2_) c.clear();
  dir_.clear();
  backend_->reset();
}

}  // namespace cool::mem
