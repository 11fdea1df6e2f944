// LatencyHist: quantile error bound against a sorted-sample oracle, bucket
// geometry, merge/diff algebra, and edge cases.
#include "obs/latency_hist.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"

namespace cool::obs {
namespace {

/// Inclusive oracle: value at quantile q of a sorted sample (the
/// ceil(q*n)-th smallest, 1-based), matching LatencyHist's contract.
std::uint64_t oracle(std::vector<std::uint64_t> v, double q) {
  std::sort(v.begin(), v.end());
  const auto n = static_cast<double>(v.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n));
  if (rank == 0) rank = 1;
  return v[rank - 1];
}

TEST(LatencyHist, EmptyIsAllZero) {
  const LatencyHist h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.quantile(0.5), 0u);
  EXPECT_EQ(h.quantile(0.999), 0u);
}

TEST(LatencyHist, SmallValuesAreExact) {
  // Values below kSubBuckets land in unit-width buckets.
  LatencyHist h;
  for (std::uint64_t v = 0; v < LatencyHist::kSubBuckets; ++v) h.record(v);
  for (std::uint64_t v = 0; v < LatencyHist::kSubBuckets; ++v) {
    EXPECT_EQ(LatencyHist::bucket_upper(LatencyHist::bucket_of(v)), v);
  }
  EXPECT_EQ(h.quantile(1.0), LatencyHist::kSubBuckets - 1);
}

TEST(LatencyHist, BucketGeometryRoundTrips) {
  // Every probe value's bucket upper edge is >= the value and within the
  // relative-error bound; bucket_of(bucket_upper(b)) == b.
  for (std::uint64_t v : {0ull, 1ull, 31ull, 32ull, 33ull, 100ull, 1000ull,
                          123456ull, 1ull << 40, (1ull << 40) + 12345ull}) {
    const std::size_t b = LatencyHist::bucket_of(v);
    const std::uint64_t up = LatencyHist::bucket_upper(b);
    EXPECT_GE(up, v);
    EXPECT_LE(static_cast<double>(up),
              static_cast<double>(v) *
                  (1.0 + 1.0 / LatencyHist::kSubBuckets));
    EXPECT_EQ(LatencyHist::bucket_of(up), b);
  }
}

TEST(LatencyHist, QuantileWithinRelativeErrorOfOracle) {
  util::Rng rng(0x1a7e);
  // Log-uniform samples: exercise many octaves, like a latency tail does.
  std::vector<std::uint64_t> v;
  LatencyHist h;
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
              static_cast<double>(o) *
                  (1.0 + 1.0 / LatencyHist::kSubBuckets))
        << "q=" << q;
  }
}

TEST(LatencyHist, QuantileIsCappedAtMax) {
  LatencyHist h;
  h.record(1000);
  EXPECT_EQ(h.quantile(1.0), 1000u);
  EXPECT_LE(h.quantile(0.999), 1000u);
}

TEST(LatencyHist, MergeMatchesRecordingEverything) {
  util::Rng rng(7);
  LatencyHist a;
  LatencyHist b;
  LatencyHist all;
  for (int i = 0; i < 4096; ++i) {
    const std::uint64_t x = rng.next_below(1 << 16);
    (i % 2 == 0 ? a : b).record(x);
    all.record(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_EQ(a.sum(), all.sum());
  EXPECT_EQ(a.max(), all.max());
  for (const double q : {0.5, 0.99, 0.999}) {
    EXPECT_EQ(a.quantile(q), all.quantile(q));
  }
}

TEST(LatencyHist, DiffIsolatesTheEpoch) {
  // Copy, record a second batch with a very different scale, and read the
  // window with since(): it must reflect only the second batch.
  LatencyHist h;
  for (int i = 0; i < 100; ++i) h.record(10);
  const LatencyHist snap = h;
  for (int i = 0; i < 90; ++i) h.record(100000);
  for (int i = 0; i < 10; ++i) h.record(400000);
  const LatencyHist::Interval epoch = h.since(snap, 0.5);
  EXPECT_EQ(epoch.count, 100u);
  // Every window sample is >= 100000, and the median is the first batch's
  // bucket edge (within one sub-bucket), not the pre-window 10s.
  EXPECT_GE(epoch.quantile, 100000u);
  EXPECT_LE(epoch.quantile, 100000u + 100000u / LatencyHist::kSubBuckets);
  // The window's p99 lands among the 400000s, capped at max().
  const LatencyHist::Interval tail = h.since(snap, 0.99);
  EXPECT_EQ(tail.count, 100u);
  EXPECT_GE(tail.quantile, 400000u);
  EXPECT_LE(tail.quantile, h.max());
  // A histogram against itself is an empty window.
  const LatencyHist::Interval none = h.since(h, 0.99);
  EXPECT_EQ(none.count, 0u);
  EXPECT_EQ(none.quantile, 0u);
}

}  // namespace
}  // namespace cool::obs
