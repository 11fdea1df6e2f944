// Property tests on the memory system: drive random access sequences through
// the model and check the structural invariants that must hold after every
// operation, independent of the workload.
#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "memsim/memsystem.hpp"

namespace cool::mem {
namespace {

/// Checks the per-line coherence invariants for every processor: the sharer
/// bit is set exactly when the line is in that processor's L2, L1 ⊆ L2, and a
/// dirty line's owner is its only sharer. Returns "" or the first violation.
std::string line_violation(const MemorySystem& ms, LineAddr line) {
  const LineState st = ms.directory().peek(line);
  const auto where = [line](topo::ProcId q) {
    return "line " + std::to_string(line) + ", proc " + std::to_string(q);
  };
  for (topo::ProcId q = 0; q < ms.machine().n_procs; ++q) {
    const bool in_l2 = ms.l2(q).contains(line);
    if (st.has_sharer(q) != in_l2) {
      return where(q) + (in_l2 ? ": in L2 without a sharer bit"
                               : ": sharer bit without an L2 copy");
    }
    if (ms.l1(q).contains(line) && !in_l2) return where(q) + ": in L1, not L2";
  }
  if (st.is_dirty() &&
      (!st.has_sharer(st.dirty_owner) || st.sharer_count() != 1)) {
    return where(st.dirty_owner) + ": dirty owner is not the only sharer";
  }
  return {};
}

/// The lines an operation on [addr, addr+bytes) can change inside the test's
/// window [lo, hi): for an access or prefetch, every line sharing a cache set
/// with a referenced line (a fill's victim lives there); for a migration, all
/// lines of the pages it flushes.
std::string op_violation(const MemorySystem& ms, std::uint64_t addr,
                         std::uint64_t bytes, bool migrated, LineAddr lo,
                         LineAddr hi) {
  const topo::MachineConfig& m = ms.machine();
  if (migrated) {
    const std::uint64_t lines_per_page = m.page_bytes / m.line_bytes;
    const LineAddr first = m.page_of(addr) * lines_per_page;
    const LineAddr last = (m.page_of(addr + bytes - 1) + 1) * lines_per_page;
    for (LineAddr l = first; l < last; ++l) {
      std::string v = line_violation(ms, l);
      if (!v.empty()) return v;
    }
    return {};
  }
  // L2 set bits include L1's (both powers of two, L2 the larger), so lines
  // sharing the smaller set count's index cover both caches' victims.
  const LineAddr sets = std::min(ms.l1(0).n_sets(), ms.l2(0).n_sets());
  for (LineAddr t = m.line_of(addr); t <= m.line_of(addr + bytes - 1); ++t) {
    for (LineAddr l = lo + ((t - lo) & (sets - 1)); l < hi; l += sets) {
      std::string v = line_violation(ms, l);
      if (!v.empty()) return v;
    }
  }
  return {};
}

struct Params {
  std::uint32_t procs;
  int ops;
  std::uint64_t seed;
};

class CoherenceProperty : public ::testing::TestWithParam<Params> {};

TEST_P(CoherenceProperty, InvariantsHoldUnderRandomTraffic) {
  const Params prm = GetParam();
  topo::MachineConfig machine = topo::MachineConfig::dash(prm.procs);
  machine.l1_bytes = 4 * 1024;   // small caches force evictions
  machine.l2_bytes = 16 * 1024;
  MemorySystem ms(machine);
  // Half the space pre-bound round-robin; the rest first-touch.
  for (int i = 0; i < 16; ++i) {
    ms.bind_range(0x100000 + static_cast<std::uint64_t>(i) * 4096, 4096,
                  static_cast<topo::ProcId>(i % prm.procs));
  }

  // Every address the test touches lies in this window of lines (the top
  // access may spill 312 bytes, i.e. 20 lines, past 64 KiB).
  const LineAddr lo = machine.line_of(0x100000);
  const LineAddr hi = machine.line_of(0x100000 + 64 * 1024) + 20;

  util::Rng rng(prm.seed);
  std::uint64_t now = 0;
  for (int op = 0; op < prm.ops; ++op) {
    const auto p = static_cast<topo::ProcId>(rng.next_below(prm.procs));
    const std::uint64_t addr =
        0x100000 + (rng.next_below(64 * 1024) & ~7ull);
    const bool write = rng.next_below(3) == 0;
    // 8..320 bytes: up to 21 lines, so multi-line reads mix L1 hits, L2 hits
    // and misses whose fills evict inside the run.
    const std::uint64_t bytes = 8 * (1 + rng.next_below(40));
    bool migrated = false;
    if (rng.next_below(20) == 0) {
      ms.prefetch(p, addr, bytes, now);
    } else if (rng.next_below(50) == 0) {
      ms.migrate(p, addr, bytes,
                 static_cast<topo::ProcId>(rng.next_below(prm.procs)));
      migrated = true;
    } else {
      ms.access(p, addr, bytes, write, now);
    }
    now += rng.next_below(40);
    // Invariant 1, after every operation, on every line it could change.
    ASSERT_EQ(op_violation(ms, addr, bytes, migrated, lo, hi), "")
        << "after op " << op;
  }

  // Invariant 1 again over the whole directory: every entry has at least one
  // sharer, and a dirty entry's owner is its only sharer.
  std::size_t entries = 0;
  ms.directory().for_each_entry([&](LineAddr line, const LineState& st) {
    ++entries;
    EXPECT_TRUE(st.is_cached()) << line;
    EXPECT_EQ(line_violation(ms, line), "");
  });
  EXPECT_EQ(entries, ms.directory().n_entries());

  // Invariant 2: the service classification is exhaustive.
  const ProcCounters t = ms.monitor().total();
  std::uint64_t serviced = 0;
  for (int s = 0; s < kNumServices; ++s) serviced += t.serviced[s];
  EXPECT_EQ(serviced, t.accesses());

  // Invariant 3: local + remote misses == all misses.
  EXPECT_EQ(t.local_misses() + t.remote_misses(), t.misses());

  // Invariant 4: every invalidation a write sends is received once; the
  // flushes of a page migration count on neither side.
  EXPECT_EQ(t.invals_received, t.invals_sent);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CoherenceProperty,
    ::testing::Values(Params{2, 2000, 11}, Params{4, 5000, 12},
                      Params{8, 5000, 13}, Params{32, 8000, 14},
                      Params{64, 8000, 15}, Params{32, 20000, 16}));

/// Does nothing; attaching it sends every line of every access through
/// MemorySystem::access_line, the per-line reference path.
class NullObserver final : public AccessObserver {
 public:
  void on_access(const AccessInfo& /*info*/) override {}
  void on_inval(std::uint64_t /*addr*/, topo::ProcId /*requester*/,
                int /*copies_killed*/) override {}
};

/// "" if `a` and `b` hold equal counters, else the first differing field.
std::string counters_diff(const ProcCounters& a, const ProcCounters& b) {
  const auto field = [](const char* name, std::uint64_t x, std::uint64_t y) {
    return x == y ? std::string{}
                  : std::string(name) + ": " + std::to_string(x) + " vs " +
                        std::to_string(y);
  };
  std::string d;
  for (int s = 0; s < kNumServices && d.empty(); ++s) {
    d = field(("serviced[" + std::to_string(s) + "]").c_str(), a.serviced[s],
              b.serviced[s]);
  }
  for (const auto& [name, x, y] :
       {std::tuple{"reads", a.reads, b.reads},
        std::tuple{"writes", a.writes, b.writes},
        std::tuple{"upgrades", a.upgrades, b.upgrades},
        std::tuple{"invals_sent", a.invals_sent, b.invals_sent},
        std::tuple{"invals_received", a.invals_received, b.invals_received},
        std::tuple{"writebacks", a.writebacks, b.writebacks},
        std::tuple{"latency_cycles", a.latency_cycles, b.latency_cycles},
        std::tuple{"contention_cycles", a.contention_cycles,
                   b.contention_cycles},
        std::tuple{"pages_migrated", a.pages_migrated, b.pages_migrated},
        std::tuple{"prefetches", a.prefetches, b.prefetches}}) {
    if (d.empty()) d = field(name, x, y);
  }
  return d;
}

std::vector<std::tuple<LineAddr, std::uint64_t, topo::ProcId>> entries_of(
    const MemorySystem& ms) {
  std::vector<std::tuple<LineAddr, std::uint64_t, topo::ProcId>> out;
  ms.directory().for_each_entry([&](LineAddr line, const LineState& st) {
    out.emplace_back(line, st.sharers, st.dirty_owner);
  });
  return out;
}

struct FusedParams {
  std::uint32_t procs;
  int ops;
  std::uint64_t seed;
  bool ddr;  ///< DDR channel backend, whose queues see each fill's time.
};

// gtest's default printer dumps the raw bytes, uninitialized padding
// included, into the test names ctest lists; those must not vary by run.
void PrintTo(const FusedParams& prm, std::ostream* os) {
  *os << prm.procs << " procs, " << prm.ops << " ops, seed " << prm.seed;
}

class FusedReadProperty : public ::testing::TestWithParam<FusedParams> {};

// An unobserved access serves its lines inside MemorySystem::access; with an
// observer attached every line goes through access_line. The two must agree
// on every returned latency and leave identical counters, directory and
// caches. Both sides share the hit rules and the write rule, so a fault in
// either would move both alike: the test also checks those rules outright,
// after every access, and the directory's entry count after every op.
TEST_P(FusedReadProperty, MatchesThePerLinePathReferenceByReference) {
  const FusedParams prm = GetParam();
  topo::MachineConfig machine = topo::MachineConfig::dash(prm.procs);
  machine.l1_bytes = 4 * 1024;   // small caches: fills evict inside a run
  machine.l2_bytes = 16 * 1024;
  ChannelConfig chan;
  if (prm.ddr) chan.kind = ChannelConfig::Kind::kDdr;
  MemorySystem fused(machine, chan);
  MemorySystem per_line(machine, chan);
  NullObserver tap;
  per_line.add_observer(&tap);
  for (MemorySystem* ms : {&fused, &per_line}) {
    for (int i = 0; i < 16; ++i) {
      ms->bind_range(0x100000 + static_cast<std::uint64_t>(i) * 4096, 4096,
                     static_cast<topo::ProcId>(i % prm.procs));
    }
  }

  const auto side = [&fused](const MemorySystem* ms) {
    return ms == &fused ? " (fused)" : " (per line)";
  };
  util::Rng rng(prm.seed);
  std::uint64_t now = 0;
  for (int op = 0; op < prm.ops; ++op) {
    const auto p = static_cast<topo::ProcId>(rng.next_below(prm.procs));
    // Any byte offset, 1..320 bytes: a 168-byte Barnes-Hut Node spans 11 or
    // 12 lines, and a range may straddle a page. Three ops in four stay in
    // the processor's own 8 KiB, which fits its L2 but not its L1, so runs
    // mix L1 hits, L2 hits and misses.
    const std::uint64_t offset =
        rng.next_below(4) == 0
            ? rng.next_below(64 * 1024)
            : (p % 8) * 8 * 1024 + rng.next_below(8 * 1024);
    const std::uint64_t addr = 0x100000 + offset;
    const std::uint64_t bytes = 1 + rng.next_below(320);
    const std::uint64_t kind = rng.next_below(40);
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    if (kind == 0) {
      a = fused.prefetch(p, addr, bytes, now);
      b = per_line.prefetch(p, addr, bytes, now);
    } else if (kind == 1) {
      const auto home = static_cast<topo::ProcId>(rng.next_below(prm.procs));
      a = fused.migrate(p, addr, bytes, home);
      b = per_line.migrate(p, addr, bytes, home);
    } else {
      const bool write = kind < 12;
      a = fused.access(p, addr, bytes, write, now);
      b = per_line.access(p, addr, bytes, write, now);
      // The hit rules: every line an access touched ends in the accessor's
      // L1 and L2 (a range of at most 21 lines maps to distinct sets, so
      // none evicts another). The write rule: a written line is the
      // writer's alone, dirty, and no other processor caches it.
      for (LineAddr l = machine.line_of(addr);
           l <= machine.line_of(addr + bytes - 1); ++l) {
        for (const MemorySystem* ms : {&fused, &per_line}) {
          ASSERT_TRUE(ms->l1(p).contains(l) && ms->l2(p).contains(l))
              << "op " << op << ": line " << l << " not cached at proc " << p
              << side(ms);
          if (!write) continue;
          const LineState st = ms->directory().peek(l);
          ASSERT_EQ(st.sharers, std::uint64_t{1} << p)
              << "op " << op << ": line " << l << " written by proc " << p
              << side(ms);
          ASSERT_EQ(st.dirty_owner, p)
              << "op " << op << ": line " << l << side(ms);
          for (topo::ProcId q = 0; q < prm.procs; ++q) {
            ASSERT_TRUE(q == p ||
                        (!ms->l1(q).contains(l) && !ms->l2(q).contains(l)))
                << "op " << op << ": line " << l << " written by proc " << p
                << " still cached at proc " << q << side(ms);
          }
        }
      }
    }
    ASSERT_EQ(a, b) << "op " << op << " (kind " << kind << ", proc " << p
                    << ", addr " << addr << ", bytes " << bytes << ")";
    for (const MemorySystem* ms : {&fused, &per_line}) {
      std::size_t entries = 0;
      ms->directory().for_each_entry(
          [&entries](LineAddr, const LineState&) { ++entries; });
      ASSERT_EQ(entries, ms->directory().n_entries())
          << "op " << op << side(ms);
    }
    now += rng.next_below(40);
  }

  for (topo::ProcId q = 0; q < prm.procs; ++q) {
    EXPECT_EQ(counters_diff(fused.monitor().proc(q), per_line.monitor().proc(q)),
              "")
        << "proc " << q;
  }
  EXPECT_EQ(entries_of(fused), entries_of(per_line));
  const LineAddr lo = machine.line_of(0x100000);
  const LineAddr hi = machine.line_of(0x100000 + 64 * 1024 + 320);
  for (topo::ProcId q = 0; q < prm.procs; ++q) {
    for (LineAddr l = lo; l < hi; ++l) {
      ASSERT_EQ(fused.l1(q).contains(l), per_line.l1(q).contains(l))
          << "L1 of proc " << q << ", line " << l;
      ASSERT_EQ(fused.l2(q).contains(l), per_line.l2(q).contains(l))
          << "L2 of proc " << q << ", line " << l;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FusedReadProperty,
    ::testing::Values(FusedParams{8, 20000, 21, false},
                      FusedParams{32, 20000, 22, false},
                      FusedParams{8, 20000, 23, true},
                      FusedParams{32, 20000, 24, true}),
    [](const auto& pinfo) {
      return "P" + std::to_string(pinfo.param.procs) +
             (pinfo.param.ddr ? "_ddr" : "_flat");
    });

// After any traffic, flushing all caches must empty the directory.
TEST(CoherenceFlush, FlushEmptiesDirectory) {
  topo::MachineConfig machine = topo::MachineConfig::dash(8);
  MemorySystem ms(machine);
  util::Rng rng(3);
  for (int i = 0; i < 3000; ++i) {
    ms.access(static_cast<topo::ProcId>(rng.next_below(8)),
              0x100000 + (rng.next_below(1 << 16) & ~7ull), 8,
              rng.next_below(2) == 0, static_cast<std::uint64_t>(i) * 7);
  }
  ms.flush_all_caches();
  EXPECT_EQ(ms.directory().n_entries(), 0u);
  // Next access misses again.
  ms.access(0, 0x100000, 8, false, 1 << 20);
  EXPECT_GE(ms.monitor().proc(0).misses(), 1u);
}

// Reading after a write by another processor always returns through a path
// that ends with the reader registered as a sharer.
TEST(CoherenceHandoff, ReaderBecomesSharerAfterDirtyForward) {
  topo::MachineConfig machine = topo::MachineConfig::dash(8);
  MemorySystem ms(machine);
  ms.bind_range(0x200000, 4096, 0);
  for (topo::ProcId w = 0; w < 8; ++w) {
    ms.access(w, 0x200000, 8, true, w * 1000ull);  // each write takes ownership
    const auto st = ms.directory().peek(machine.line_of(0x200000));
    EXPECT_EQ(st.dirty_owner, w);
    EXPECT_EQ(st.sharer_count(), 1);
  }
}

}  // namespace
}  // namespace cool::mem
