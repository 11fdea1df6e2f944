#include "common/table.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "common/error.hpp"

namespace cool::util {
namespace {

TEST(Table, RendersHeaderAndRows) {
  Table t({"name", "value"});
  t.row().cell("alpha").cell(std::uint64_t{42});
  t.row().cell("beta").cell(3.14159, 2);
  const std::string s = t.to_string();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("42"), std::string::npos);
  EXPECT_NE(s.find("3.14"), std::string::npos);
}

TEST(Table, ColumnsAligned) {
  Table t({"a", "b"});
  t.row().cell("longlabel").cell(1);
  t.row().cell("x").cell(100);
  const std::string s = t.to_string();
  // All lines should have the same length (fixed-width rendering).
  std::size_t prev = std::string::npos;
  std::size_t start = 0;
  while (start < s.size()) {
    auto end = s.find('\n', start);
    if (end == std::string::npos) break;
    const auto len = end - start;
    if (prev != std::string::npos) {
      EXPECT_EQ(len, prev);
    }
    prev = len;
    start = end + 1;
  }
}

TEST(Table, CellBeforeRowThrows) {
  Table t({"a"});
  EXPECT_THROW(t.cell("x"), Error);
}

TEST(Table, TooManyCellsThrows) {
  Table t({"a"});
  t.row().cell("x");
  EXPECT_THROW(t.cell("y"), Error);
}

TEST(Table, EmptyHeaderThrows) {
  EXPECT_THROW(Table({}), Error);
}

TEST(Table, NegativeAndPrecision) {
  Table t({"v"});
  t.row().cell(std::int64_t{-5});
  t.row().cell(-2.5, 3);
  const std::string s = t.to_string();
  EXPECT_NE(s.find("-5"), std::string::npos);
  EXPECT_NE(s.find("-2.500"), std::string::npos);
}

TEST(Table, MissingCellsRenderBlank) {
  Table t({"a", "b"});
  t.row().cell("only");
  EXPECT_NO_THROW(t.to_string());
}

TEST(Table, PctCellFormatsFraction) {
  Table t({"p"});
  t.row().cell_pct(0.375);       // default precision 1
  t.row().cell_pct(0.375, 2);    // explicit precision
  t.row().cell_pct(1.0, 0);      // whole
  t.row().cell_pct(0.0);         // zero stays a number, not "-"
  const std::string s = t.to_string();
  EXPECT_NE(s.find("37.5%"), std::string::npos);
  EXPECT_NE(s.find("37.50%"), std::string::npos);
  EXPECT_NE(s.find("100%"), std::string::npos);
  EXPECT_NE(s.find("0.0%"), std::string::npos);
}

TEST(Table, PctCellNonFiniteRendersDash) {
  Table t({"p"});
  t.row().cell_pct(std::numeric_limits<double>::quiet_NaN());
  t.row().cell_pct(std::numeric_limits<double>::infinity());
  const std::string s = t.to_string();
  EXPECT_EQ(s.find("nan"), std::string::npos);
  EXPECT_EQ(s.find("inf"), std::string::npos);
  EXPECT_NE(s.find('-'), std::string::npos);
}

TEST(Table, RatioCellFormatsMultiplier) {
  Table t({"r"});
  t.row().cell_ratio(1.9375);        // default precision 2
  t.row().cell_ratio(0.5, 1);
  t.row().cell_ratio(std::numeric_limits<double>::quiet_NaN());
  const std::string s = t.to_string();
  EXPECT_NE(s.find("1.94x"), std::string::npos);
  EXPECT_NE(s.find("0.5x"), std::string::npos);
  EXPECT_EQ(s.find("nan"), std::string::npos);
}

}  // namespace
}  // namespace cool::util
