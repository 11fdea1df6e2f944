#include "common/options.hpp"

#include <gtest/gtest.h>

#include <array>

#include "common/error.hpp"

namespace cool::util {
namespace {

Options make() {
  Options o("prog", "test program");
  o.add_flag("verbose", "chatty output");
  o.add_int("procs", 32, "processor count");
  o.add_double("ratio", 0.5, "some ratio");
  o.add_string("mode", "sim", "execution mode");
  return o;
}

// argv helper: parse a list of option strings.
bool parse(Options& o, std::vector<std::string> args) {
  std::vector<char*> argv;
  static std::string prog = "prog";
  argv.push_back(prog.data());
  for (auto& a : args) argv.push_back(a.data());
  return o.parse(static_cast<int>(argv.size()), argv.data());
}

TEST(Options, Defaults) {
  Options o = make();
  EXPECT_TRUE(parse(o, {}));
  EXPECT_FALSE(o.flag("verbose"));
  EXPECT_EQ(o.get_int("procs"), 32);
  EXPECT_DOUBLE_EQ(o.get_double("ratio"), 0.5);
  EXPECT_EQ(o.get_string("mode"), "sim");
}

TEST(Options, EqualsForm) {
  Options o = make();
  EXPECT_TRUE(parse(o, {"--procs=8", "--ratio=0.25", "--mode=threads"}));
  EXPECT_EQ(o.get_int("procs"), 8);
  EXPECT_DOUBLE_EQ(o.get_double("ratio"), 0.25);
  EXPECT_EQ(o.get_string("mode"), "threads");
}

TEST(Options, SpaceForm) {
  Options o = make();
  EXPECT_TRUE(parse(o, {"--procs", "16"}));
  EXPECT_EQ(o.get_int("procs"), 16);
}

TEST(Options, FlagForms) {
  Options o = make();
  EXPECT_TRUE(parse(o, {"--verbose"}));
  EXPECT_TRUE(o.flag("verbose"));

  Options o2 = make();
  EXPECT_TRUE(parse(o2, {"--verbose=false"}));
  EXPECT_FALSE(o2.flag("verbose"));
}

TEST(Options, UnknownOptionThrows) {
  Options o = make();
  EXPECT_THROW(parse(o, {"--bogus=1"}), Error);
}

TEST(Options, MalformedIntThrows) {
  Options o = make();
  EXPECT_THROW(parse(o, {"--procs=abc"}), Error);
  Options o2 = make();
  EXPECT_THROW(parse(o2, {"--procs=12x"}), Error);
}

TEST(Options, MissingValueThrows) {
  Options o = make();
  EXPECT_THROW(parse(o, {"--procs"}), Error);
}

TEST(Options, HelpReturnsFalse) {
  Options o = make();
  EXPECT_FALSE(parse(o, {"--help"}));
}

TEST(Options, NegativeNumbers) {
  Options o = make();
  EXPECT_TRUE(parse(o, {"--procs=-3", "--ratio=-1.5"}));
  EXPECT_EQ(o.get_int("procs"), -3);
  EXPECT_DOUBLE_EQ(o.get_double("ratio"), -1.5);
}

// A ranged int rejects values outside [min, max] at parse time, naming the
// flag: a processor count narrowed to 32 bits must not wrap (4294967298
// would run at P = 2) or go negative.
TEST(Options, IntRangeRejectsValuesThatWouldWrap) {
  constexpr std::int64_t kMax = 4294967295;  // UINT32_MAX
  auto ranged = [] {
    Options o("prog", "test program");
    o.add_int("procs", 32, "processor count", 1, kMax);
    return o;
  };
  for (const char* bad :
       {"--procs=0", "--procs=-3", "--procs=4294967296", "--procs=4294967298",
        "--procs=99999999999999999999"}) {
    Options o = ranged();
    try {
      parse(o, {bad});
      ADD_FAILURE() << bad << " was accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("--procs"), std::string::npos)
          << e.what();
    }
  }
  for (const std::int64_t ok : {std::int64_t{1}, kMax}) {
    Options o = ranged();
    EXPECT_TRUE(parse(o, {"--procs=" + std::to_string(ok)}));
    EXPECT_EQ(o.get_int("procs"), ok);
  }
  // Without a range every int64 still parses.
  Options plain = make();
  EXPECT_TRUE(parse(plain, {"--procs=4294967298"}));
  EXPECT_EQ(plain.get_int("procs"), 4294967298);
}

TEST(Options, WrongTypeAccessThrows) {
  Options o = make();
  EXPECT_TRUE(parse(o, {}));
  EXPECT_THROW((void)o.get_int("mode"), Error);
  EXPECT_THROW((void)o.flag("procs"), Error);
}

TEST(Options, UsageMentionsEveryOption) {
  Options o = make();
  const std::string u = o.usage();
  for (const char* name : {"verbose", "procs", "ratio", "mode"}) {
    EXPECT_NE(u.find(name), std::string::npos) << name;
  }
}

}  // namespace
}  // namespace cool::util
