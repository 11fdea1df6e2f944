// Hist: quantile error bound against a sorted-sample oracle, bucket
// geometry, merge/since algebra and edge cases, over both instantiated
// geometries (Hist<0>, the log2 one; Hist<5> = LatencyHist); then Hist<0>'s
// own bucket edges.
#include "obs/hist.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"

namespace cool::obs {
namespace {

/// Inclusive oracle: value at quantile q of a sorted sample (the
/// ceil(q*n)-th smallest, 1-based), matching Hist's contract.
std::uint64_t oracle(std::vector<std::uint64_t> v, double q) {
  std::sort(v.begin(), v.end());
  const auto n = static_cast<double>(v.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n));
  if (rank == 0) rank = 1;
  return v[rank - 1];
}

template <typename H>
class HistTest : public ::testing::Test {
 protected:
  /// A quantile is within this factor of the oracle: 1 + 2^-SubBits.
  static constexpr double kBound = 1.0 + 1.0 / H::kSubBuckets;
};
using Geometries = ::testing::Types<Hist<0>, Hist<5>>;
TYPED_TEST_SUITE(HistTest, Geometries);

TYPED_TEST(HistTest, EmptyIsAllZero) {
  const TypeParam h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.quantile(0.5), 0u);
  EXPECT_EQ(h.quantile(0.999), 0u);
}

TYPED_TEST(HistTest, SmallValuesAreExact) {
  // Values below kSubBuckets land in unit-width buckets.
  TypeParam h;
  for (std::uint64_t v = 0; v < TypeParam::kSubBuckets; ++v) h.record(v);
  for (std::uint64_t v = 0; v < TypeParam::kSubBuckets; ++v) {
    EXPECT_EQ(TypeParam::bucket_upper(TypeParam::bucket_of(v)), v);
  }
  EXPECT_EQ(h.quantile(1.0), TypeParam::kSubBuckets - 1);
}

TYPED_TEST(HistTest, BucketGeometryRoundTrips) {
  // Every probe value's bucket upper edge is >= the value and within the
  // relative-error bound; bucket_of(bucket_upper(b)) == b. The top bucket
  // ends at the largest uint64: no bucket catches a range above its edge.
  for (std::uint64_t v : {0ull, 1ull, 31ull, 32ull, 33ull, 100ull, 1000ull,
                          123456ull, 1ull << 40, (1ull << 40) + 12345ull,
                          ~0ull}) {
    const std::size_t b = TypeParam::bucket_of(v);
    const std::uint64_t up = TypeParam::bucket_upper(b);
    EXPECT_GE(up, v);
    EXPECT_LE(static_cast<double>(up),
              static_cast<double>(v) * TestFixture::kBound);
    EXPECT_EQ(TypeParam::bucket_of(up), b);
  }
  EXPECT_EQ(TypeParam::bucket_of(~0ull), TypeParam::kBuckets - 1);
  EXPECT_EQ(TypeParam::bucket_upper(TypeParam::kBuckets - 1), ~0ull);
}

TYPED_TEST(HistTest, QuantileWithinRelativeErrorOfOracle) {
  util::Rng rng(0x1a7e);
  // Log-uniform samples: exercise many octaves, like a latency tail does.
  std::vector<std::uint64_t> v;
  TypeParam h;
  for (int i = 0; i < 20000; ++i) {
    const int shift = static_cast<int>(rng.next_below(20));
    const std::uint64_t x = (1ull << shift) + rng.next_below(1ull << shift);
    v.push_back(x);
    h.record(x);
  }
  EXPECT_EQ(h.count(), v.size());
  for (const double q : {0.5, 0.9, 0.99, 0.999, 1.0}) {
    const std::uint64_t o = oracle(v, q);
    const std::uint64_t e = h.quantile(q);
    EXPECT_GE(e, o) << "q=" << q;
    EXPECT_LE(static_cast<double>(e),
              static_cast<double>(o) * TestFixture::kBound)
        << "q=" << q;
  }
}

TYPED_TEST(HistTest, QuantileIsCappedAtMax) {
  TypeParam h;
  h.record(1000);
  EXPECT_EQ(h.quantile(1.0), 1000u);
  EXPECT_LE(h.quantile(0.999), 1000u);
}

TYPED_TEST(HistTest, MergeMatchesRecordingEverything) {
  util::Rng rng(7);
  TypeParam a;
  TypeParam b;
  TypeParam all;
  for (int i = 0; i < 4096; ++i) {
    const std::uint64_t x = rng.next_below(1 << 16);
    (i % 2 == 0 ? a : b).record(x);
    all.record(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_EQ(a.sum(), all.sum());
  EXPECT_EQ(a.max(), all.max());
  EXPECT_EQ(a.buckets(), all.buckets());
  for (const double q : {0.5, 0.99, 0.999}) {
    EXPECT_EQ(a.quantile(q), all.quantile(q));
  }
}

TYPED_TEST(HistTest, DiffIsolatesTheEpoch) {
  // Copy, record a second batch with a very different scale, and read the
  // window with since(): it must reflect only the second batch.
  TypeParam h;
  for (int i = 0; i < 100; ++i) h.record(10);
  const TypeParam snap = h;
  for (int i = 0; i < 90; ++i) h.record(100000);
  for (int i = 0; i < 10; ++i) h.record(400000);
  const typename TypeParam::Interval epoch = h.since(snap, 0.5);
  EXPECT_EQ(epoch.count, 100u);
  // Every window sample is >= 100000, and the median is the first batch's
  // bucket edge (within the bound), not the pre-window 10s.
  EXPECT_GE(epoch.quantile, 100000u);
  EXPECT_LE(static_cast<double>(epoch.quantile),
            100000.0 * TestFixture::kBound);
  // The window's p99 lands among the 400000s, capped at max().
  const typename TypeParam::Interval tail = h.since(snap, 0.99);
  EXPECT_EQ(tail.count, 100u);
  EXPECT_GE(tail.quantile, 400000u);
  EXPECT_LE(tail.quantile, h.max());
  // A histogram against itself is an empty window.
  const typename TypeParam::Interval none = h.since(h, 0.99);
  EXPECT_EQ(none.count, 0u);
  EXPECT_EQ(none.quantile, 0u);
}

// Hist<0>, the metrics snapshot's geometry: bucket b = bit_width(v).

TEST(Histogram, BucketBoundaries) {
  Hist<0> d;
  for (const std::uint64_t v : {0, 1, 2, 3, 4}) d.record(v);
  EXPECT_EQ(d.count(), 5u);
  EXPECT_EQ(d.sum(), 10u);
  EXPECT_EQ(d.buckets()[0], 1u);  // 0
  EXPECT_EQ(d.buckets()[1], 1u);  // [1,2)
  EXPECT_EQ(d.buckets()[2], 2u);  // [2,4)
  EXPECT_EQ(d.buckets()[3], 1u);  // [4,8)
  // One bucket per bit width up to the top one: no catch-all bucket.
  EXPECT_EQ(Hist<0>::kBuckets, 65u);
  for (const std::uint64_t v : {5ull, 1ull << 46, (1ull << 47) + 1, ~0ull}) {
    EXPECT_EQ(Hist<0>::bucket_of(v),
              static_cast<std::size_t>(std::bit_width(v)));
  }
}

TEST(Histogram, QuantileReturnsBucketUpperEdge) {
  // The inclusive upper edge of the rank's bucket, capped at the largest
  // sample: 99 samples in [4,8) and one in [64,128).
  Hist<0> d;
  for (int i = 0; i < 99; ++i) d.record(5);
  d.record(100);
  EXPECT_EQ(d.quantile(0.5), 7u);
  EXPECT_EQ(d.quantile(0.99), 7u);
  EXPECT_EQ(d.quantile(1.0), 100u);
  EXPECT_EQ(d.max(), 100u);
}

TEST(Histogram, QuantileTakesNearestRank) {
  // The ceil(q*n)-th sample: p50 of {1, 100, 100} is a 100, and p95 of
  // nine 3s and one 1000 is the 1000.
  Hist<0> h;
  for (const std::uint64_t v : {1, 100, 100}) h.record(v);
  EXPECT_EQ(h.quantile(0.50), 100u);
  Hist<0> g;
  for (int i = 0; i < 9; ++i) g.record(3);
  g.record(1000);
  EXPECT_EQ(g.quantile(0.95), 1000u);
}

TEST(Histogram, EqualSamplesReportTheirValue) {
  // Eight back-to-back runs of 8 tasks: every quantile is 8, since the
  // bucket's edge 15 is capped at the largest sample.
  Hist<0> h;
  for (int i = 0; i < 8; ++i) h.record(8);
  EXPECT_EQ(h.quantile(0.50), 8u);
  EXPECT_EQ(h.quantile(0.95), 8u);
  EXPECT_EQ(h.max(), 8u);
}

}  // namespace
}  // namespace cool::obs
