#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace cool::obs {
namespace {

/// Add one sample under HistData's bucket rule.
void observe(HistData& h, std::uint64_t v) {
  ++h.count;
  h.sum += v;
  ++h.buckets[HistData::bucket_of(v)];
}

TEST(Histogram, BucketBoundaries) {
  HistData d;
  observe(d, 0);  // bucket 0
  observe(d, 1);  // bucket 1: [1,2)
  observe(d, 2);  // bucket 2: [2,4)
  observe(d, 3);  // bucket 2
  observe(d, 4);  // bucket 3: [4,8)
  EXPECT_EQ(d.count, 5u);
  EXPECT_EQ(d.sum, 10u);
  EXPECT_EQ(d.buckets[0], 1u);
  EXPECT_EQ(d.buckets[1], 1u);
  EXPECT_EQ(d.buckets[2], 2u);
  EXPECT_EQ(d.buckets[3], 1u);
  // The last bucket takes everything above its lower edge.
  EXPECT_EQ(HistData::bucket_of(1ull << 46), kHistBuckets - 1);
  EXPECT_EQ(HistData::bucket_of(~0ull), kHistBuckets - 1);
}

TEST(Histogram, QuantileReturnsBucketUpperEdge) {
  HistData d;
  d.count = 100;
  d.buckets[3] = 99;  // [4,8)
  d.buckets[7] = 1;   // [64,128)
  EXPECT_EQ(d.quantile(0.5), 8u);
  EXPECT_EQ(d.quantile(0.99), 8u);
  EXPECT_EQ(d.quantile(1.0), 128u);
}

TEST(Histogram, QuantileTakesNearestRank) {
  // The ceil(q*n)-th sample, as LatencyHist does: p50 of {1, 100, 100} is a
  // 100, and p95 of nine 3s and one 1000 is the 1000.
  HistData h;
  for (const std::uint64_t v : {1, 100, 100}) observe(h, v);
  EXPECT_EQ(h.quantile(0.50), 128u);
  HistData g;
  for (int i = 0; i < 9; ++i) observe(g, 3);
  observe(g, 1000);
  EXPECT_EQ(g.quantile(0.95), 1024u);
}

TEST(Snapshot, ToJsonParses) {
  Snapshot s;
  s.values["a \"quoted\" name"] = 3;
  observe(s.hists["h"], 1000);
  const std::string text = s.to_json();
  json::Value v;
  std::string err;
  ASSERT_TRUE(json::parse(text, v, &err)) << err << "\n" << text;
  ASSERT_TRUE(v.find("values")->is_object());
  EXPECT_EQ(v.find("values")->find("a \"quoted\" name")->num, 3.0);
  ASSERT_TRUE(v.find("hists")->is_object());
  EXPECT_EQ(v.find("hists")->find("h")->find("count")->num, 1.0);
}

TEST(NaturalKeyLessTest, DigitRunsCompareAsIntegers) {
  const NaturalKeyLess lt;
  // The per-channel gauge family that motivated the ordering: chan.2 must
  // precede chan.10, which plain lexicographic order reverses.
  EXPECT_TRUE(lt("mem.chan.2.busy_cycles", "mem.chan.10.busy_cycles"));
  EXPECT_FALSE(lt("mem.chan.10.busy_cycles", "mem.chan.2.busy_cycles"));
  // Multi-run keys: every digit run compares numerically in turn.
  EXPECT_TRUE(lt("p2.q9", "p2.q10"));
  EXPECT_TRUE(lt("p2.q10", "p10.q1"));
  // Pure text falls back to lexicographic comparison.
  EXPECT_TRUE(lt("alpha", "beta"));
  EXPECT_FALSE(lt("beta", "alpha"));
  // Equal keys are not less (strict weak ordering needs irreflexivity).
  EXPECT_FALSE(lt("mem.chan.2", "mem.chan.2"));
  // Leading zeros: same value, the shorter spelling wins the tie-break —
  // either way the order is total and deterministic.
  EXPECT_NE(lt("x01", "x1"), lt("x1", "x01"));
}

TEST(NaturalKeyLessTest, SnapshotIterationOrdersChannelsNumerically) {
  Snapshot s;
  s.values["mem.chan.10.requests"] = 1;
  s.values["mem.chan.2.requests"] = 2;
  s.values["mem.chan.1.requests"] = 3;
  s.values["mem.chan.count"] = 11;
  std::vector<std::string> keys;
  for (const auto& [k, v] : s.values) keys.push_back(k);
  const std::vector<std::string> want = {
      "mem.chan.1.requests", "mem.chan.2.requests", "mem.chan.10.requests",
      "mem.chan.count"};
  EXPECT_EQ(keys, want);
}

}  // namespace
}  // namespace cool::obs
