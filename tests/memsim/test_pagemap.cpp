#include "memsim/pagemap.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace cool::mem {
namespace {

class PageMapTest : public ::testing::Test {
 protected:
  topo::MachineConfig machine_ = topo::MachineConfig::dash();
  PageMap pm_{machine_};
};

TEST_F(PageMapTest, BindAndLookup) {
  EXPECT_EQ(pm_.bind_range(0x10000, 4096, 5), 1u);
  EXPECT_TRUE(pm_.is_bound(0x10000));
  EXPECT_EQ(pm_.home_of_bound(0x10000), 5u);
  EXPECT_EQ(pm_.home_of_bound(0x10fff), 5u);
  EXPECT_FALSE(pm_.is_bound(0x11000));
}

TEST_F(PageMapTest, RangeSpanningPages) {
  // 3 bytes short of two pages, starting mid-page: spans 3 pages.
  EXPECT_EQ(pm_.bind_range(0x10800, 2 * 4096, 2), 3u);
  EXPECT_EQ(pm_.home_of_bound(0x10800), 2u);
  EXPECT_EQ(pm_.home_of_bound(0x12000), 2u);
}

TEST_F(PageMapTest, FirstTouchBinds) {
  EXPECT_EQ(pm_.first_touch_count(), 0u);
  EXPECT_EQ(pm_.home_of(0x20000, 7), 7u);
  EXPECT_EQ(pm_.first_touch_count(), 1u);
  // Subsequent touch by another processor does not rebind.
  EXPECT_EQ(pm_.home_of(0x20000, 3), 7u);
  EXPECT_EQ(pm_.first_touch_count(), 1u);
}

TEST_F(PageMapTest, RebindIsMigration) {
  pm_.bind_range(0x30000, 4096, 1);
  pm_.bind_range(0x30000, 4096, 9);
  EXPECT_EQ(pm_.home_of_bound(0x30000), 9u);
}

TEST_F(PageMapTest, UnboundLookupThrows) {
  EXPECT_THROW((void)pm_.home_of_bound(0x40000), util::Error);
}

TEST_F(PageMapTest, BadArgsThrow) {
  EXPECT_THROW(pm_.bind_range(0, 4096, 32), util::Error);  // proc out of range
  EXPECT_THROW(pm_.bind_range(0, 0, 1), util::Error);      // empty
  EXPECT_THROW(pm_.home_of(0, 99), util::Error);
  EXPECT_THROW(pm_.pages_in(0, 0), util::Error);
}

TEST_F(PageMapTest, PagesIn) {
  const auto pages = pm_.pages_in(4096, 4096 * 2 + 1);
  ASSERT_EQ(pages.size(), 3u);
  EXPECT_EQ(pages[0], 1u);
  EXPECT_EQ(pages[2], 3u);
}

TEST_F(PageMapTest, PagesPerProcDistribution) {
  for (int i = 0; i < 16; ++i) {
    pm_.bind_range(static_cast<std::uint64_t>(i) * 4096, 4096,
                   static_cast<topo::ProcId>(i % 4));
  }
  const auto counts = pm_.pages_per_proc();
  ASSERT_EQ(counts.size(), 32u);
  for (int p = 0; p < 4; ++p) EXPECT_EQ(counts[p], 4u);
  for (int p = 4; p < 32; ++p) EXPECT_EQ(counts[p], 0u);
}

TEST_F(PageMapTest, ClearForgets) {
  pm_.bind_range(0, 4096, 1);
  pm_.home_of(0x90000, 2);
  pm_.clear();
  EXPECT_EQ(pm_.n_bound_pages(), 0u);
  EXPECT_EQ(pm_.first_touch_count(), 0u);
}

// Round-robin distribution property: contiguous per-proc regions map evenly.
TEST_F(PageMapTest, RoundRobinEvenSpread) {
  const std::size_t per = 8;
  for (std::uint32_t p = 0; p < machine_.n_procs; ++p) {
    pm_.bind_range((static_cast<std::uint64_t>(p) * per) * 4096, per * 4096, p);
  }
  const auto counts = pm_.pages_per_proc();
  for (std::uint32_t p = 0; p < machine_.n_procs; ++p) EXPECT_EQ(counts[p], per);
}

// Pages far apart: the table spans the gap, but only bound pages count.
TEST_F(PageMapTest, FarApartPagesCountOnlyBoundOnes) {
  const std::uint64_t far = (std::uint64_t{1} << 20) * 4096;
  pm_.bind_range(0, 4096, 3);
  EXPECT_EQ(pm_.home_of(far, 7), 7u);  // first touch
  EXPECT_EQ(pm_.n_bound_pages(), 2u);
  EXPECT_EQ(pm_.first_touch_count(), 1u);
  EXPECT_FALSE(pm_.is_bound(far / 2));
  const auto counts = pm_.pages_per_proc();
  for (std::uint32_t p = 0; p < machine_.n_procs; ++p) {
    EXPECT_EQ(counts[p], p == 3 || p == 7 ? 1u : 0u) << p;
  }
  pm_.bind_range(far, 4096, 3);  // rebinding does not add a page
  EXPECT_EQ(pm_.n_bound_pages(), 2u);
  EXPECT_EQ(pm_.pages_per_proc()[3], 2u);
}

TEST_F(PageMapTest, AddressPastTheCapThrows) {
  const std::uint64_t cap = PageMap::kMaxPages * 4096;
  EXPECT_THROW(pm_.home_of(cap, 0), util::Error);
  EXPECT_THROW(pm_.bind_range(cap - 4096, 2 * 4096, 0), util::Error);
  EXPECT_EQ(pm_.n_bound_pages(), 0u);
  EXPECT_EQ(pm_.first_touch_count(), 0u);
  EXPECT_FALSE(pm_.is_bound(cap));
  EXPECT_THROW((void)pm_.home_of_bound(cap), util::Error);
}

}  // namespace
}  // namespace cool::mem
