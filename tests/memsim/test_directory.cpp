#include "memsim/directory.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/error.hpp"

namespace cool::mem {
namespace {

TEST(Directory, UncachedByDefault) {
  Directory d;
  const LineState st = d.peek(42);
  EXPECT_FALSE(st.is_cached());
  EXPECT_FALSE(st.is_dirty());
  EXPECT_EQ(st.sharer_count(), 0);
  EXPECT_EQ(d.n_entries(), 0u);
}

TEST(Directory, AddRemoveSharers) {
  Directory d;
  d.add_sharer(7, 3);
  d.add_sharer(7, 9);
  EXPECT_TRUE(d.peek(7).has_sharer(3));
  EXPECT_TRUE(d.peek(7).has_sharer(9));
  EXPECT_EQ(d.peek(7).sharer_count(), 2);

  d.remove_sharer(7, 3);
  EXPECT_FALSE(d.peek(7).has_sharer(3));
  EXPECT_EQ(d.peek(7).sharer_count(), 1);
}

TEST(Directory, EntryReclaimedWhenLastSharerLeaves) {
  Directory d;
  d.add_sharer(7, 3);
  EXPECT_EQ(d.n_entries(), 1u);
  d.remove_sharer(7, 3);
  EXPECT_EQ(d.n_entries(), 0u);
}

TEST(Directory, SetDirtyMakesExclusiveOwner) {
  Directory d;
  d.add_sharer(5, 1);
  d.add_sharer(5, 2);
  d.set_dirty(5, 2);
  const LineState st = d.peek(5);
  EXPECT_TRUE(st.is_dirty());
  EXPECT_EQ(st.dirty_owner, 2u);
  EXPECT_EQ(st.sharer_count(), 1);  // only the owner remains
  EXPECT_TRUE(st.has_sharer(2));
  EXPECT_FALSE(st.has_sharer(1));
}

TEST(Directory, ClearDirtyKeepsSharer) {
  Directory d;
  d.set_dirty(5, 2);
  d.clear_dirty(5);
  const LineState st = d.peek(5);
  EXPECT_FALSE(st.is_dirty());
  EXPECT_TRUE(st.has_sharer(2));
}

TEST(Directory, RemovingDirtyOwnerClearsDirty) {
  Directory d;
  d.set_dirty(5, 2);
  d.remove_sharer(5, 2);
  EXPECT_FALSE(d.peek(5).is_dirty());
  EXPECT_FALSE(d.peek(5).is_cached());
}

TEST(Directory, RemoveSharerOnAbsentLineIsNoop) {
  Directory d;
  d.remove_sharer(99, 0);
  EXPECT_EQ(d.n_entries(), 0u);
}

TEST(Directory, HighProcIds) {
  Directory d;
  d.add_sharer(1, 63);
  EXPECT_TRUE(d.peek(1).has_sharer(63));
  d.set_dirty(1, 63);
  EXPECT_EQ(d.peek(1).dirty_owner, 63u);
}

TEST(Directory, ClearDropsEverything) {
  Directory d;
  for (LineAddr l = 0; l < 100; ++l) d.add_sharer(l, static_cast<topo::ProcId>(l % 8));
  EXPECT_EQ(d.n_entries(), 100u);
  d.clear();
  EXPECT_EQ(d.n_entries(), 0u);
}

// Lines 255/256 and 511/512 sit on either side of the table's chunk
// boundaries; each must keep its own state, and the entry count must follow
// every transition between cached and uncached.
TEST(Directory, ChunkBoundaryLinesAreIndependent) {
  Directory d;
  const LineAddr lines[] = {255, 256, 511, 512};
  for (const LineAddr l : lines) d.add_sharer(l, static_cast<topo::ProcId>(l % 7));
  EXPECT_EQ(d.n_entries(), 4u);
  d.add_sharer(256, 1);  // second sharer: same entry
  EXPECT_EQ(d.n_entries(), 4u);
  d.set_dirty(255, 4);
  EXPECT_EQ(d.n_entries(), 4u);
  EXPECT_TRUE(d.peek(255).is_dirty());
  EXPECT_FALSE(d.peek(256).is_dirty());
  EXPECT_EQ(d.peek(256).sharer_count(), 2);
  d.remove_sharer(255, 4);
  EXPECT_EQ(d.n_entries(), 3u);
  EXPECT_FALSE(d.peek(255).is_cached());
  EXPECT_FALSE(d.peek(255).is_dirty());
  d.set_dirty(254, 0);  // new entry in an existing chunk
  EXPECT_EQ(d.n_entries(), 4u);
  d.remove_sharer(256, 1);
  EXPECT_EQ(d.n_entries(), 4u);
  d.remove_sharer(256, 256 % 7);
  EXPECT_EQ(d.n_entries(), 3u);
  d.remove_sharer(256, 3);  // absent sharer of an uncached line: no-op
  EXPECT_EQ(d.n_entries(), 3u);
  d.clear();
  EXPECT_EQ(d.n_entries(), 0u);
  for (const LineAddr l : lines) EXPECT_FALSE(d.peek(l).is_cached()) << l;
}

TEST(Directory, ForEachEntryVisitsCachedLinesInOrder) {
  Directory d;
  d.add_sharer(70000, 1);
  d.add_sharer(3, 2);
  d.add_sharer(256, 3);
  d.add_sharer(9, 4);
  d.remove_sharer(9, 4);
  std::vector<LineAddr> seen;
  d.for_each_entry([&](LineAddr l, const LineState& st) {
    EXPECT_TRUE(st.is_cached());
    seen.push_back(l);
  });
  EXPECT_EQ(seen, (std::vector<LineAddr>{3, 256, 70000}));
}

TEST(Directory, LinePastTheCapThrows) {
  Directory d;
  EXPECT_THROW(d.add_sharer(Directory::kMaxLines, 0), util::Error);
  EXPECT_THROW(d.set_dirty(~LineAddr{0} >> 1, 0), util::Error);
  EXPECT_EQ(d.n_entries(), 0u);
  // Reads and removals of such lines touch nothing.
  EXPECT_FALSE(d.peek(Directory::kMaxLines).is_cached());
  d.remove_sharer(Directory::kMaxLines, 0);
  d.clear_dirty(Directory::kMaxLines);
  EXPECT_EQ(d.n_entries(), 0u);
}

}  // namespace
}  // namespace cool::mem
