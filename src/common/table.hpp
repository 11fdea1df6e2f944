// Fixed-width ASCII table printer used by every figure/table benchmark to
// emit the paper's rows and series in a uniform, diffable format.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

namespace cool::util {

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Begin a new row; subsequent cell() calls fill it left to right.
  Table& row();

  Table& cell(const std::string& value);
  Table& cell(const char* value);
  Table& cell(double value, int precision = 2);
  Table& cell(std::uint64_t value);
  Table& cell(std::int64_t value);
  Table& cell(int value);

  /// Format a fraction in [0,1] as a percentage ("12.3%"). Values outside
  /// [0,1] still render (e.g. "104.0%"); non-finite values render as "-".
  Table& cell_pct(double fraction, int precision = 1);
  /// Format a multiplier as a ratio ("1.97x"); non-finite values render "-".
  Table& cell_ratio(double value, int precision = 2);

  /// Render to stdout (or any FILE*).
  void print(std::FILE* out = stdout) const;

  /// Render as a string (used by tests).
  [[nodiscard]] std::string to_string() const;

  /// Structural access for machine-readable exports (obs::BenchRecord).
  [[nodiscard]] const std::vector<std::string>& headers() const noexcept {
    return headers_;
  }
  [[nodiscard]] const std::vector<std::vector<std::string>>& rows_data()
      const noexcept {
    return rows_;
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace cool::util
