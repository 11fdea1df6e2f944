#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "obs/json.hpp"

namespace cool::obs {
namespace {

TEST(Registry, CounterAccumulatesAcrossShards) {
  Registry reg(4);
  Counter c = reg.counter("x");
  c.add(0);
  c.add(1, 10);
  c.add(3, 100);
  const Snapshot s = reg.snapshot();
  EXPECT_EQ(s.values.at("x"), 111u);
}

TEST(Registry, SameNameReturnsSameMetric) {
  Registry reg(2);
  Counter a = reg.counter("hits");
  Counter b = reg.counter("hits");
  a.add(0, 5);
  b.add(1, 7);
  EXPECT_EQ(reg.snapshot().values.at("hits"), 12u);
}

TEST(Registry, KindMismatchThrows) {
  Registry reg(2);
  (void)reg.counter("m");
  EXPECT_THROW((void)reg.gauge("m"), util::Error);
  EXPECT_THROW((void)reg.histogram("m"), util::Error);
}

TEST(Registry, SlotCapacityExhaustionThrows) {
  Registry reg(1, 4);
  (void)reg.counter("a");
  (void)reg.counter("b");
  (void)reg.counter("c");
  (void)reg.counter("d");
  EXPECT_THROW((void)reg.counter("e"), util::Error);
}

TEST(Registry, HistogramNeedsFiftySlots) {
  Registry reg(1, kHistBuckets + 2);
  (void)reg.histogram("h");  // Exactly fits: count + sum + buckets.
  EXPECT_THROW((void)reg.counter("one-more"), util::Error);
}

TEST(Registry, DetachedHandlesAreNoOps) {
  Counter c;
  Gauge g;
  Histogram h;
  EXPECT_FALSE(c.attached());
  EXPECT_FALSE(g.attached());
  EXPECT_FALSE(h.attached());
  c.add(0, 5);       // Must not crash.
  g.set(0, 5);
  h.observe(0, 5);
}

TEST(Registry, GaugeSumsLastValuePerShard) {
  Registry reg(3);
  Gauge g = reg.gauge("depth");
  g.set(0, 10);
  g.set(0, 3);  // Overwrites shard 0.
  g.set(2, 4);
  EXPECT_EQ(reg.snapshot().values.at("depth"), 7u);
}

TEST(Histogram, BucketBoundaries) {
  Registry reg(1);
  Histogram h = reg.histogram("lat");
  h.observe(0, 0);  // bucket 0
  h.observe(0, 1);  // bucket 1: [1,2)
  h.observe(0, 2);  // bucket 2: [2,4)
  h.observe(0, 3);  // bucket 2
  h.observe(0, 4);  // bucket 3: [4,8)
  const HistData d = reg.snapshot().hists.at("lat");
  EXPECT_EQ(d.count, 5u);
  EXPECT_EQ(d.sum, 10u);
  EXPECT_EQ(d.buckets[0], 1u);
  EXPECT_EQ(d.buckets[1], 1u);
  EXPECT_EQ(d.buckets[2], 2u);
  EXPECT_EQ(d.buckets[3], 1u);
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
  Registry reg(1);
  Histogram h = reg.histogram("lat");
  for (const std::uint64_t v : {1, 100, 100}) h.observe(0, v);
  EXPECT_EQ(reg.snapshot().hists.at("lat").quantile(0.50), 128u);
  Histogram g = reg.histogram("tail");
  for (int i = 0; i < 9; ++i) g.observe(0, 3);
  g.observe(0, 1000);
  EXPECT_EQ(reg.snapshot().hists.at("tail").quantile(0.95), 1024u);
}

TEST(Snapshot, ToJsonParses) {
  Registry reg(2);
  reg.counter("a \"quoted\" name").add(0, 3);
  reg.histogram("h").observe(1, 1000);
  const std::string text = reg.snapshot().to_json();
  json::Value v;
  std::string err;
  ASSERT_TRUE(json::parse(text, v, &err)) << err << "\n" << text;
  ASSERT_TRUE(v.find("values")->is_object());
  EXPECT_EQ(v.find("values")->find("a \"quoted\" name")->num, 3.0);
  ASSERT_TRUE(v.find("hists")->is_object());
  EXPECT_EQ(v.find("hists")->find("h")->find("count")->num, 1.0);
}

// --- Concurrency: the reason the registry is sharded ------------------------

class RegistryConcurrency : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RegistryConcurrency, ConcurrentIncrementsAreExact) {
  const std::size_t n_shards = GetParam();
  Registry reg(n_shards);
  Counter c = reg.counter("ops");
  Histogram h = reg.histogram("size");
  constexpr std::uint64_t kPerThread = 20000;

  std::vector<std::thread> writers;
  for (std::size_t s = 0; s < n_shards; ++s) {
    writers.emplace_back([&, s] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        c.add(s);
        h.observe(s, i & 0xff);
      }
    });
  }
  // A concurrent reader: every snapshot must be internally consistent enough
  // that counters only grow (per-slot atomicity).
  std::uint64_t last = 0;
  for (int i = 0; i < 50; ++i) {
    const std::uint64_t now = reg.snapshot().values.at("ops");
    EXPECT_GE(now, last);
    last = now;
  }
  for (auto& t : writers) t.join();

  const Snapshot s = reg.snapshot();
  EXPECT_EQ(s.values.at("ops"), kPerThread * n_shards);
  EXPECT_EQ(s.hists.at("size").count, kPerThread * n_shards);
}

TEST_P(RegistryConcurrency, ConcurrentRegistrationIsIdempotent) {
  const std::size_t n_shards = GetParam();
  Registry reg(n_shards);
  std::vector<std::thread> threads;
  for (std::size_t s = 0; s < n_shards; ++s) {
    threads.emplace_back([&, s] {
      for (int i = 0; i < 100; ++i) {
        reg.counter("shared").add(s);
        reg.counter("own." + std::to_string(s)).add(s);
      }
    });
  }
  for (auto& t : threads) t.join();
  const Snapshot s = reg.snapshot();
  EXPECT_EQ(s.values.at("shared"), 100u * n_shards);
  for (std::size_t i = 0; i < n_shards; ++i) {
    EXPECT_EQ(s.values.at("own." + std::to_string(i)), 100u);
  }
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, RegistryConcurrency,
                         ::testing::Values(1, 2, 4, 8));

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
