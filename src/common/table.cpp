#include "common/table.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdint>

#include "common/error.hpp"

namespace cool::util {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  COOL_CHECK(!headers_.empty(), "table needs at least one column");
}

Table& Table::row() {
  rows_.emplace_back();
  return *this;
}

Table& Table::cell(const std::string& value) {
  COOL_CHECK(!rows_.empty(), "call row() before cell()");
  COOL_CHECK(rows_.back().size() < headers_.size(), "too many cells in row");
  rows_.back().push_back(value);
  return *this;
}

Table& Table::cell(const char* value) { return cell(std::string(value)); }

Table& Table::cell(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, value);
  return cell(std::string(buf));
}

Table& Table::cell(std::uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%" PRIu64, value);
  return cell(std::string(buf));
}

Table& Table::cell(std::int64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%" PRId64, value);
  return cell(std::string(buf));
}

Table& Table::cell(int value) { return cell(static_cast<std::int64_t>(value)); }

Table& Table::cell_pct(double fraction, int precision) {
  if (!std::isfinite(fraction)) return cell("-");
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f%%", precision, 100.0 * fraction);
  return cell(std::string(buf));
}

Table& Table::cell_ratio(double value, int precision) {
  if (!std::isfinite(value)) return cell("-");
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*fx", precision, value);
  return cell(std::string(buf));
}

std::string Table::to_string() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& r : rows_) {
    for (std::size_t c = 0; c < r.size(); ++c) {
      widths[c] = std::max(widths[c], r[c].size());
    }
  }

  std::string out;
  auto emit_row = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      const std::string& text = c < cells.size() ? cells[c] : std::string();
      out += "  ";
      // Right-align everything but the first column (labels).
      if (c == 0) {
        out += text;
        out.append(widths[c] - text.size(), ' ');
      } else {
        out.append(widths[c] - text.size(), ' ');
        out += text;
      }
    }
    out += '\n';
  };

  emit_row(headers_);
  std::string rule;
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    rule += "  ";
    rule.append(widths[c], '-');
  }
  out += rule + '\n';
  for (const auto& r : rows_) emit_row(r);
  return out;
}

void Table::print(std::FILE* out) const {
  const std::string s = to_string();
  std::fwrite(s.data(), 1, s.size(), out);
}

}  // namespace cool::util
