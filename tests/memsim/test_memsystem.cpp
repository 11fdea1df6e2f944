#include "memsim/memsystem.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace cool::mem {
namespace {

class MemSystemTest : public ::testing::Test {
 protected:
  MemSystemTest() : machine_(topo::MachineConfig::dash()), ms_(machine_) {
    // Carve out address regions homed at known processors.
    ms_.bind_range(kLocalAddr, 4096, 0);    // proc 0, cluster 0
    ms_.bind_range(kNearAddr, 4096, 2);     // proc 2, cluster 0
    ms_.bind_range(kRemoteAddr, 4096, 8);   // proc 8, cluster 2
  }

  static constexpr std::uint64_t kLocalAddr = 0x100000;
  static constexpr std::uint64_t kNearAddr = 0x200000;
  static constexpr std::uint64_t kRemoteAddr = 0x300000;

  topo::MachineConfig machine_;
  MemorySystem ms_;
};

TEST_F(MemSystemTest, ColdMissToLocalMemory) {
  const auto lat = ms_.access(0, kLocalAddr, 8, false, 0);
  EXPECT_GE(lat, machine_.lat.local_mem);
  const auto& c = ms_.monitor().proc(0);
  EXPECT_EQ(c.serviced[static_cast<int>(Service::kLocalMem)], 1u);
  EXPECT_EQ(c.remote_misses(), 0u);
}

TEST_F(MemSystemTest, SameClusterMemoryIsLocal) {
  // Proc 1 accessing memory homed at proc 2 — same cluster -> local latency.
  const auto lat = ms_.access(1, kNearAddr, 8, false, 0);
  EXPECT_GE(lat, machine_.lat.local_mem);
  EXPECT_LT(lat, machine_.lat.remote_mem);
  EXPECT_EQ(ms_.monitor().proc(1).serviced[static_cast<int>(Service::kLocalMem)],
            1u);
}

TEST_F(MemSystemTest, ColdMissToRemoteMemory) {
  const auto lat = ms_.access(0, kRemoteAddr, 8, false, 0);
  EXPECT_GE(lat, machine_.lat.remote_mem);
  const auto& c = ms_.monitor().proc(0);
  EXPECT_EQ(c.serviced[static_cast<int>(Service::kRemoteMem)], 1u);
  EXPECT_EQ(c.remote_misses(), 1u);
}

TEST_F(MemSystemTest, SecondAccessHitsL1) {
  ms_.access(0, kLocalAddr, 8, false, 0);
  const auto lat = ms_.access(0, kLocalAddr, 8, false, 100);
  EXPECT_EQ(lat, machine_.lat.l1_hit);
  EXPECT_EQ(ms_.monitor().proc(0).serviced[static_cast<int>(Service::kL1Hit)],
            1u);
}

TEST_F(MemSystemTest, MultiLineAccessWalksLines) {
  // 64 bytes = 4 lines of 16.
  ms_.access(0, kLocalAddr, 64, false, 0);
  const auto& c = ms_.monitor().proc(0);
  EXPECT_EQ(c.reads, 4u);
  EXPECT_EQ(c.misses(), 4u);
}

TEST_F(MemSystemTest, WriteInvalidatesSharers) {
  // Two readers cache the line; then proc 0 writes it.
  ms_.access(0, kLocalAddr, 8, false, 0);
  ms_.access(5, kLocalAddr, 8, false, 0);
  ms_.access(0, kLocalAddr, 8, true, 200);

  const auto& c0 = ms_.monitor().proc(0);
  const auto& c5 = ms_.monitor().proc(5);
  EXPECT_EQ(c0.upgrades, 1u);
  EXPECT_EQ(c0.invals_sent, 1u);
  EXPECT_EQ(c5.invals_received, 1u);

  // Proc 5 must now miss again.
  ms_.access(5, kLocalAddr, 8, false, 300);
  EXPECT_GT(c5.misses(), 1u);
}

// An observer hears of a write's invalidations before the write itself, and
// the write's reported stall includes the invalidation latency.
TEST_F(MemSystemTest, ObserverSeesTheInvalBeforeTheWrite) {
  struct Log final : AccessObserver {
    std::vector<std::string> events;
    void on_access(const AccessInfo& i) override {
      events.push_back("access " + std::to_string(i.addr) + " by " +
                       std::to_string(i.proc) + (i.is_write ? " w " : " r ") +
                       std::to_string(i.stall));
    }
    void on_inval(std::uint64_t addr, topo::ProcId requester,
                  int killed) override {
      events.push_back("inval " + std::to_string(addr) + " by " +
                       std::to_string(requester) + " killed " +
                       std::to_string(killed));
    }
  } log;
  ms_.access(0, kLocalAddr, 8, false, 0);
  ms_.access(5, kLocalAddr, 8, false, 0);  // cluster 1: a remote sharer
  ms_.add_observer(&log);
  ms_.access(0, kLocalAddr, 8, true, 200);
  const std::string line = std::to_string(kLocalAddr);
  const std::string stall =
      std::to_string(machine_.lat.l1_hit + machine_.lat.inval_remote);
  EXPECT_EQ(log.events, (std::vector<std::string>{
                            "inval " + line + " by 0 killed 1",
                            "access " + line + " by 0 w " + stall}));
}

TEST_F(MemSystemTest, DirtyLineForwardedFromRemoteCache) {
  // Proc 8 (cluster 2) writes the line homed at proc 8; proc 0 then reads it:
  // serviced dirty from the remote cache.
  ms_.access(8, kRemoteAddr, 8, true, 0);
  const auto lat = ms_.access(0, kRemoteAddr, 8, false, 100);
  EXPECT_GE(lat, machine_.lat.remote_cache);
  EXPECT_EQ(
      ms_.monitor().proc(0).serviced[static_cast<int>(Service::kRemoteCache)],
      1u);
  // The forward cleans the line: the owner keeps a shared copy.
  const LineState st = ms_.directory().peek(machine_.line_of(kRemoteAddr));
  EXPECT_FALSE(st.is_dirty());
  EXPECT_TRUE(st.has_sharer(0));
  EXPECT_TRUE(st.has_sharer(8));
}

TEST_F(MemSystemTest, DirtyLineForwardedWithinCluster) {
  ms_.access(1, kLocalAddr, 8, true, 0);
  ms_.access(2, kLocalAddr, 8, false, 100);  // same cluster as 1
  EXPECT_EQ(
      ms_.monitor().proc(2).serviced[static_cast<int>(Service::kLocalCache)],
      1u);
}

TEST_F(MemSystemTest, WriterRereadStaysDirtyAndCached) {
  ms_.access(0, kLocalAddr, 8, true, 0);
  ms_.access(0, kLocalAddr, 8, true, 10);
  const auto& c = ms_.monitor().proc(0);
  EXPECT_EQ(c.upgrades, 0u);  // no other sharers ever existed
  EXPECT_EQ(c.misses(), 1u);
  const LineState st = ms_.directory().peek(machine_.line_of(kLocalAddr));
  EXPECT_EQ(st.dirty_owner, 0u);
}

TEST_F(MemSystemTest, CapacityEvictionWritesBack) {
  topo::MachineConfig tiny = topo::MachineConfig::dash(4);
  tiny.l1_bytes = 64;   // 4 lines
  tiny.l2_bytes = 128;  // 8 lines
  MemorySystem ms(tiny);
  ms.bind_range(0x100000, 1 << 20, 0);
  // Write many distinct lines: forces L2 evictions of dirty lines.
  for (int i = 0; i < 64; ++i) {
    ms.access(0, 0x100000 + static_cast<std::uint64_t>(i) * 16, 8, true,
              static_cast<std::uint64_t>(i) * 10);
  }
  EXPECT_GT(ms.monitor().proc(0).writebacks, 0u);
}

TEST_F(MemSystemTest, ContentionQueuesAtController) {
  // Hammer one cluster's memory from many processors at the same instant;
  // later fills should queue (wait > 0 recorded as contention).
  for (std::uint32_t p = 0; p < 8; ++p) {
    ms_.access(p, kLocalAddr + 256 + p * 16ull, 8, false, 0);
  }
  std::uint64_t contention = 0;
  for (std::uint32_t p = 0; p < 8; ++p) {
    contention += ms_.monitor().proc(p).contention_cycles;
  }
  EXPECT_GT(contention, 0u);
}

TEST_F(MemSystemTest, MigrateRebindsAndFlushes) {
  ms_.access(0, kLocalAddr, 8, true, 0);  // dirty at proc 0
  const auto cost = ms_.migrate(3, kLocalAddr, 4096, 20);
  EXPECT_EQ(cost, machine_.lat.page_copy);
  EXPECT_EQ(ms_.pages().home_of_bound(kLocalAddr), 20u);
  EXPECT_EQ(ms_.monitor().proc(3).pages_migrated, 1u);
  EXPECT_EQ(ms_.monitor().proc(0).writebacks, 1u);
  // Proc 0's copy was flushed: next access misses to (now remote) memory.
  ms_.access(0, kLocalAddr, 8, false, 10000);
  EXPECT_EQ(
      ms_.monitor().proc(0).serviced[static_cast<int>(Service::kRemoteMem)],
      1u);
}

TEST_F(MemSystemTest, FirstTouchBindsUnboundPages) {
  const std::uint64_t addr = 0x900000;
  ms_.access(6, addr, 8, false, 0);
  EXPECT_EQ(ms_.pages().home_of_bound(addr), 6u);
  EXPECT_EQ(
      ms_.monitor().proc(6).serviced[static_cast<int>(Service::kLocalMem)], 1u);
}

TEST_F(MemSystemTest, BadArgsThrow) {
  EXPECT_THROW(ms_.access(99, 0, 8, false, 0), util::Error);
  EXPECT_THROW(ms_.access(0, 0, 0, false, 0), util::Error);
  EXPECT_THROW(ms_.migrate(0, kLocalAddr, 4096, 99), util::Error);
  EXPECT_THROW(ms_.migrate(99, kLocalAddr, 4096, 0), util::Error);
}

// Simulated addresses are arena offsets, so an address past the tables' cap
// is a stray pointer: it must fail cleanly, not grow a table to gigabytes.
TEST_F(MemSystemTest, AccessPastTheAddressCapThrows) {
  const std::uint64_t stray = std::uint64_t{1} << 47;
  EXPECT_THROW(ms_.access(0, stray, 8, false, 0), util::Error);
  EXPECT_THROW(ms_.prefetch(0, stray, 8, 0), util::Error);
  EXPECT_THROW(ms_.migrate(0, stray, 8, 1), util::Error);
  EXPECT_EQ(ms_.directory().n_entries(), 0u);
  EXPECT_EQ(ms_.pages().n_bound_pages(), 3u);
}

// A range whose last byte lies past 2^64 - 1 wraps to a last line below its
// first: it must fail cleanly, not count 2^64 lines, do nothing, or try to
// reserve 2^52 pages.
TEST_F(MemSystemTest, RangeWrappingPast2To64Throws) {
  const std::uint64_t top = ~std::uint64_t{0} - 7;  // 2^64 - 8
  EXPECT_THROW(ms_.access(0, top, 16, false, 0), util::Error);
  EXPECT_THROW(ms_.access(0, top, 16, true, 0), util::Error);
  EXPECT_THROW(ms_.prefetch(0, top, 16, 0), util::Error);
  EXPECT_THROW(ms_.migrate(0, top, 16, 1), util::Error);
  EXPECT_THROW(ms_.bind_range(top, 16, 1), util::Error);
  const ProcCounters t = ms_.monitor().total();
  EXPECT_EQ(t.accesses(), 0u);
  EXPECT_EQ(t.serviced[static_cast<int>(Service::kL1Hit)], 0u);
  EXPECT_EQ(ms_.pages().n_bound_pages(), 3u);
}

TEST_F(MemSystemTest, FlushAllCachesForcesMisses) {
  ms_.access(0, kLocalAddr, 8, false, 0);
  ms_.flush_all_caches();
  ms_.access(0, kLocalAddr, 8, false, 100);
  EXPECT_EQ(ms_.monitor().proc(0).misses(), 2u);
}

TEST_F(MemSystemTest, TotalAggregatesAcrossProcs) {
  ms_.access(0, kLocalAddr, 8, false, 0);
  ms_.access(1, kLocalAddr + 64, 8, false, 0);
  const ProcCounters t = ms_.monitor().total();
  EXPECT_EQ(t.reads, 2u);
  EXPECT_EQ(t.misses(), 2u);
}

// Property sweep: the service classification is exhaustive — every access is
// counted in exactly one service class.
class ServiceConservation
    : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(ServiceConservation, AccessesEqualServiced) {
  const auto [n, write] = GetParam();
  topo::MachineConfig m = topo::MachineConfig::dash(8);
  MemorySystem ms(m);
  ms.bind_range(0x100000, 1 << 20, 3);
  util::Rng rng(static_cast<std::uint64_t>(n));
  for (int i = 0; i < n; ++i) {
    const auto p = static_cast<topo::ProcId>(i % 8);
    const std::uint64_t addr = 0x100000 + (rng.next_below(1 << 18) & ~7ull);
    ms.access(p, addr, 8, write && (i % 3 == 0),
              static_cast<std::uint64_t>(i) * 5);
  }
  const ProcCounters t = ms.monitor().total();
  std::uint64_t serviced = 0;
  for (int s = 0; s < kNumServices; ++s) serviced += t.serviced[s];
  EXPECT_EQ(serviced, t.accesses());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ServiceConservation,
    ::testing::Combine(::testing::Values(10, 100, 1000, 5000),
                       ::testing::Bool()));

}  // namespace
}  // namespace cool::mem
