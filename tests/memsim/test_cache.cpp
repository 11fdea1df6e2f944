#include "memsim/cache.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace cool::mem {
namespace {

TEST(Cache, MissThenHit) {
  Cache c(1024, 2, 16);  // 32 sets x 2 ways
  EXPECT_FALSE(c.access(5));
  c.insert(5);
  EXPECT_TRUE(c.access(5));
  EXPECT_TRUE(c.contains(5));
  EXPECT_EQ(c.occupancy(), 1u);
}

TEST(Cache, InsertExistingIsNoEviction) {
  Cache c(1024, 2, 16);
  c.insert(5);
  EXPECT_EQ(c.insert(5), std::nullopt);
  EXPECT_EQ(c.occupancy(), 1u);
}

TEST(Cache, DirectMappedConflict) {
  Cache c(64, 1, 16);  // 4 sets, direct mapped
  c.insert(0);         // set 0
  const auto evicted = c.insert(4);  // also set 0 (4 % 4 == 0)
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(*evicted, 0u);
  EXPECT_FALSE(c.contains(0));
  EXPECT_TRUE(c.contains(4));
}

TEST(Cache, LruVictimSelection) {
  Cache c(64, 2, 16);  // 2 sets x 2 ways
  // Lines 0, 2, 4 all map to set 0.
  c.insert(0);
  c.insert(2);
  c.access(0);  // 0 is now MRU; 2 is LRU.
  const auto evicted = c.insert(4);
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(*evicted, 2u);
  EXPECT_TRUE(c.contains(0));
  EXPECT_TRUE(c.contains(4));
}

TEST(Cache, DirectMappedOccupancyTracksValidSets) {
  Cache c(64, 1, 16);  // 4 sets, direct mapped
  for (LineAddr l = 0; l < 4; ++l) EXPECT_EQ(c.insert(l), std::nullopt);
  EXPECT_EQ(c.occupancy(), 4u);
  // Conflict evictions replace a line: occupancy stays at capacity.
  for (LineAddr l = 4; l < 12; ++l) EXPECT_EQ(c.insert(l), l - 4);
  EXPECT_EQ(c.occupancy(), 4u);
  EXPECT_TRUE(c.access(9));
  EXPECT_FALSE(c.access(5));
  EXPECT_TRUE(c.invalidate(9));
  EXPECT_FALSE(c.invalidate(5));  // evicted earlier: not present
  EXPECT_EQ(c.occupancy(), 3u);
  EXPECT_EQ(c.insert(13), std::nullopt);  // refills the invalidated set
  EXPECT_EQ(c.occupancy(), 4u);
  c.clear();
  EXPECT_EQ(c.occupancy(), 0u);
  for (LineAddr l = 8; l < 14; ++l) EXPECT_FALSE(c.contains(l)) << l;
  EXPECT_EQ(c.insert(8), std::nullopt);
  EXPECT_EQ(c.occupancy(), 1u);
}

TEST(Cache, InvalidateFreesWay) {
  Cache c(64, 1, 16);
  c.insert(3);
  EXPECT_TRUE(c.invalidate(3));
  EXPECT_FALSE(c.contains(3));
  EXPECT_EQ(c.occupancy(), 0u);
  EXPECT_FALSE(c.invalidate(3));  // Already gone.
  // Inserting again uses the freed way without eviction.
  EXPECT_EQ(c.insert(3), std::nullopt);
}

TEST(Cache, ClearEmptiesEverything) {
  Cache c(256, 2, 16);
  for (LineAddr l = 0; l < 8; ++l) c.insert(l);
  c.clear();
  EXPECT_EQ(c.occupancy(), 0u);
  for (LineAddr l = 0; l < 8; ++l) EXPECT_FALSE(c.contains(l));
}

TEST(Cache, BadGeometryThrows) {
  EXPECT_THROW(Cache(100, 1, 16), util::Error);   // not multiple of line
  EXPECT_THROW(Cache(1024, 0, 16), util::Error);  // zero assoc
  EXPECT_THROW(Cache(1024, 1, 24), util::Error);  // non-pow2 line
  EXPECT_THROW(Cache(48, 1, 16), util::Error);    // 3 sets: non-pow2
}

TEST(Cache, OccupancyNeverExceedsCapacity) {
  Cache c(512, 4, 16);  // 32 lines capacity
  for (LineAddr l = 0; l < 1000; ++l) c.insert(l * 7 + 1);
  EXPECT_LE(c.occupancy(), 32u);
}

// Property: a fully associative-ish cache retains the W most recent distinct
// lines of a single set.
class CacheLruProperty : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(CacheLruProperty, RetainsMostRecent) {
  const std::uint32_t assoc = GetParam();
  Cache c(16 * assoc, assoc, 16);  // a single set
  const int n = static_cast<int>(assoc) * 3;
  for (int i = 0; i < n; ++i) c.insert(static_cast<LineAddr>(i));
  // The last `assoc` inserted lines must be resident.
  for (int i = n - static_cast<int>(assoc); i < n; ++i) {
    EXPECT_TRUE(c.contains(static_cast<LineAddr>(i))) << i;
  }
  for (int i = 0; i < n - static_cast<int>(assoc); ++i) {
    EXPECT_FALSE(c.contains(static_cast<LineAddr>(i))) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Assocs, CacheLruProperty,
                         ::testing::Values(1, 2, 4, 8, 16));

}  // namespace
}  // namespace cool::mem
