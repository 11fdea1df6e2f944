#include "obs/bench_json.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "bench_common.hpp"
#include "common/error.hpp"
#include "common/options.hpp"
#include "common/table.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace cool::obs {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// A small record with everything pinned, so its JSON is byte-stable.
BenchRecord demo_record() {
  util::Options opt("golden", "a pinned record");
  opt.add_int("procs", 8, "processors");
  opt.add_string("variant", "affinity", "scheduling variant");
  opt.add_string("json-out", "BENCH_golden.json", "where the record goes");
  BenchRecord rec("golden");
  rec.set_git_sha("deadbee");
  rec.set_config(opt);
  util::Table t({"procs", "speedup", "label"});
  t.row().cell(1).cell(1.0, 2).cell("base");
  t.row().cell(8).cell(5.43, 2).cell("affinity");
  rec.add_series(t);
  rec.add_shape("best_speedup", 5.43);
  return rec;
}

TEST(Json, MemBackendRejectsNumbersAFieldCannotHold) {
  const std::string path = ::testing::TempDir() + "mem_backend.json";
  const auto rejects = [&](const std::string& json) {
    std::ofstream(path) << json;
    EXPECT_THROW(bench::parse_mem_backend("ddr:" + path), util::Error) << json;
  };
  for (const std::string bad :
       {"-3", "2.7", "2.9", "1e30", "4294967296", "4294967297"}) {
    rejects(R"({"channels_per_cluster": )" + bad + "}");
  }
  for (const std::string bad : {"-3", "2.7", "1e30", "18446744073709551616"}) {
    rejects(R"({"row_bytes": )" + bad + "}");
  }
}

TEST(BenchOptions, NegativeLatencyTargetThrowsNamingTheFlag) {
  // Read as signed, a negative target used to fall through the "> 0 means
  // on" test and run as if the flag were absent.
  util::Options opt = bench::standard_options("bench", "test");
  std::string prog = "bench";
  std::string flag = "--latency-target=-5";
  char* argv[] = {prog.data(), flag.data()};
  ASSERT_TRUE(opt.parse(2, argv));
  try {
    (void)bench::make_runtime(8, sched::Policy{}, opt);
    FAIL() << "a negative --latency-target was accepted";
  } catch (const util::Error& e) {
    EXPECT_NE(std::string(e.what()).find("--latency-target"),
              std::string::npos)
        << e.what();
  }
}

TEST(Json, NumberFormatting) {
  EXPECT_EQ(json::number(0), "0");
  EXPECT_EQ(json::number(3), "3");
  EXPECT_EQ(json::number(-17), "-17");
  EXPECT_EQ(json::number(1.41), "1.41");      // Shortest round-trip, not %.17g.
  EXPECT_EQ(json::number(0.1), "0.1");
  EXPECT_EQ(json::number(1e300), "1e+300");
  EXPECT_EQ(json::number(1.0 / 0.0), "null");  // Non-finite -> null.
}

TEST(Json, EscapeRoundTripsThroughParser) {
  const std::string nasty = "a\"b\\c\nd\te\x01f";
  json::Writer w;
  w.begin_object();
  w.key(nasty).string(nasty);
  w.end_object();
  json::Value v;
  std::string err;
  ASSERT_TRUE(json::parse(w.str(), v, &err)) << err;
  ASSERT_NE(v.find(nasty), nullptr);
  EXPECT_EQ(v.find(nasty)->str, nasty);
}

TEST(Json, ParserRejectsTrailingContent) {
  json::Value v;
  std::string err;
  EXPECT_FALSE(json::parse("{} x", v, &err));
  EXPECT_NE(err.find("trailing"), std::string::npos);
}

TEST(BenchRecord, JsonIsByteStable) {
  const std::string expected =
      R"({"schema":"cool-bench/1","bench":"golden","git_sha":"deadbee",)"
      R"("config":{"procs":8,"variant":"affinity"},)"
      R"("series":[{"procs":1,"speedup":1,"label":"base"},)"
      R"({"procs":8,"speedup":5.43,"label":"affinity"}],)"
      R"("shape":{"best_speedup":5.43}})";
  EXPECT_EQ(demo_record().to_json(), expected);
}

TEST(BenchRecord, ValidatesAgainstSchema) {
  BenchRecord rec = demo_record();
  Snapshot snap;
  snap.values["tasks"] = 42;
  snap.hists["run_len"].record(3);
  rec.set_obs(snap);
  const std::string text = rec.to_json();
  EXPECT_EQ(validate_bench_json(text), "") << text;

  json::Value v;
  ASSERT_TRUE(json::parse(text, v));
  EXPECT_EQ(v.find("bench")->str, "golden");
  EXPECT_EQ(v.find("git_sha")->str, "deadbee");
  ASSERT_EQ(v.find("series")->arr.size(), 2u);
  EXPECT_EQ(v.find("series")->arr[1].find("speedup")->num, 5.43);
  EXPECT_EQ(v.find("series")->arr[1].find("label")->str, "affinity");
  EXPECT_EQ(v.find("obs")->find("values")->find("tasks")->num, 42.0);
}

TEST(BenchRecord, FileNameAndWriteTo) {
  BenchRecord rec = demo_record();
  EXPECT_EQ(rec.file_name(), "BENCH_golden.json");
  const std::string dir = ::testing::TempDir();
  ASSERT_TRUE(rec.write_to(dir));
  const std::string path = dir + "/BENCH_golden.json";
  EXPECT_EQ(read_file(path), rec.to_json() + "\n");
  std::remove(path.c_str());
}

TEST(Validate, RejectsMalformedRecords) {
  EXPECT_NE(validate_bench_json("not json at all"), "");
  EXPECT_EQ(validate_bench_json("{}"), "missing string field 'schema'");
  EXPECT_NE(validate_bench_json(
                R"({"schema":"cool-bench/999","bench":"x","git_sha":"s",)"
                R"("config":{},"series":[],"shape":{}})"),
            "");
  EXPECT_EQ(validate_bench_json(
                R"({"schema":"cool-bench/1","git_sha":"s",)"
                R"("config":{},"series":[],"shape":{}})"),
            "missing non-empty string field 'bench'");
  EXPECT_EQ(validate_bench_json(
                R"({"schema":"cool-bench/1","bench":"x","git_sha":"s",)"
                R"("config":{},"series":[1],"shape":{}})"),
            "series[0] is not an object");
  EXPECT_EQ(validate_bench_json(
                R"({"schema":"cool-bench/1","bench":"x","git_sha":"s",)"
                R"("config":{},"series":[],"shape":{"m":"fast"}})"),
            "shape.m is not a number");
  EXPECT_EQ(validate_bench_json(
                R"({"schema":"cool-bench/1","bench":"x","git_sha":"s",)"
                R"("config":{},"series":[],"shape":{},"obs":{}})"),
            "obs.values missing or not an object");
}

// A committed baseline record: a real bench emission, pinned so schema or
// emitter drift fails loudly here instead of in a downstream consumer.
TEST(Golden, CheckedInRecordIsSchemaValid) {
  const std::string path = std::string(COOL_BENCH_BASELINE_DIR) +
                           "/BENCH_tab01_affinity_hints.json";
  const std::string text = read_file(path);
  ASSERT_FALSE(text.empty()) << "cannot read " << path;
  EXPECT_EQ(validate_bench_json(text), "");

  json::Value v;
  std::string err;
  ASSERT_TRUE(json::parse(text, v, &err)) << err;
  EXPECT_EQ(v.find("bench")->str, "tab01_affinity_hints");
  ASSERT_FALSE(v.find("series")->arr.empty());
  // Every series row of this bench names its affinity-hint variant.
  for (const json::Value& row : v.find("series")->arr) {
    EXPECT_NE(row.find("hint"), nullptr);
  }
  const json::Value* obs = v.find("obs");
  ASSERT_NE(obs, nullptr);
  EXPECT_NE(obs->find("values")->find("tasks.completed"), nullptr);
  // The config holds the run's inputs; where the record went is not one.
  EXPECT_NE(v.find("config")->find("procs"), nullptr);
  EXPECT_EQ(v.find("config")->find("json-out"), nullptr);
}

}  // namespace
}  // namespace cool::obs
