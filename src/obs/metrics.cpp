#include "obs/metrics.hpp"

#include "obs/json.hpp"

namespace cool::obs {

bool NaturalKeyLess::operator()(const std::string& a,
                                const std::string& b) const noexcept {
  std::size_t i = 0;
  std::size_t j = 0;
  const auto digit = [](char c) noexcept { return c >= '0' && c <= '9'; };
  while (i < a.size() && j < b.size()) {
    if (digit(a[i]) && digit(b[j])) {
      // Compare the full digit runs as integers of arbitrary width: strip
      // leading zeros, then shorter run < longer run, then lexicographic.
      const std::size_t ia0 = i;
      const std::size_t jb0 = j;
      while (i < a.size() && digit(a[i])) ++i;
      while (j < b.size() && digit(b[j])) ++j;
      std::size_t ia = ia0;
      std::size_t jb = jb0;
      while (ia + 1 < i && a[ia] == '0') ++ia;
      while (jb + 1 < j && b[jb] == '0') ++jb;
      const std::size_t la = i - ia;
      const std::size_t lb = j - jb;
      if (la != lb) return la < lb;
      const int c = a.compare(ia, la, b, jb, lb);
      if (c != 0) return c < 0;
      // Equal values: fewer leading zeros sorts first (total order).
      if (i - ia0 != j - jb0) return i - ia0 < j - jb0;
    } else {
      if (a[i] != b[j])
        return static_cast<unsigned char>(a[i]) <
               static_cast<unsigned char>(b[j]);
      ++i;
      ++j;
    }
  }
  return i >= a.size() && j < b.size();
}

std::string Snapshot::to_json() const {
  json::Writer w;
  w.begin_object();
  w.key("values").begin_object();
  for (const auto& [name, v] : values) w.key(name).uint_value(v);
  w.end_object();
  w.key("hists").begin_object();
  for (const auto& [name, h] : hists) {
    w.key(name).begin_object();
    w.key("count").uint_value(h.count());
    w.key("sum").uint_value(h.sum());
    w.key("mean").number_value(h.mean());
    w.key("p50").uint_value(h.quantile(0.50));
    w.key("p95").uint_value(h.quantile(0.95));
    w.key("max").uint_value(h.max());
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return w.str();
}

}  // namespace cool::obs
