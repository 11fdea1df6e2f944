#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace cool::obs {
namespace {

TEST(Snapshot, ToJsonParses) {
  Snapshot s;
  s.values["a \"quoted\" name"] = 3;
  s.hists["h"].record(1000);
  const std::string text = s.to_json();
  json::Value v;
  std::string err;
  ASSERT_TRUE(json::parse(text, v, &err)) << err << "\n" << text;
  ASSERT_TRUE(v.find("values")->is_object());
  EXPECT_EQ(v.find("values")->find("a \"quoted\" name")->num, 3.0);
  ASSERT_TRUE(v.find("hists")->is_object());
  const json::Value* h = v.find("hists")->find("h");
  EXPECT_EQ(h->find("count")->num, 1.0);
  // One sample: every quantile and the max are that sample.
  for (const char* key : {"p50", "p95", "max"}) {
    EXPECT_EQ(h->find(key)->num, 1000.0) << key;
  }
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
