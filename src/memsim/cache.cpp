#include "memsim/cache.hpp"

#include <algorithm>

namespace cool::mem {

Cache::Cache(std::uint32_t capacity_bytes, std::uint32_t assoc,
             std::uint32_t line_bytes)
    : assoc_(assoc) {
  COOL_CHECK(assoc >= 1, "associativity must be >= 1");
  COOL_CHECK(line_bytes >= 1 && util::is_pow2(line_bytes),
             "line size must be a power of two");
  COOL_CHECK(capacity_bytes % (line_bytes * assoc) == 0,
             "capacity must be a multiple of line * assoc");
  n_sets_ = capacity_bytes / (line_bytes * assoc);
  COOL_CHECK(util::is_pow2(n_sets_), "set count must be a power of two");
  const std::size_t ways = static_cast<std::size_t>(n_sets_) * assoc_;
  // The fill constructor compiles to memset. These fills are most of a
  // Runtime's construction time, and vector::assign's out-of-line store loop
  // runs at half speed wherever the linker places it across a 64-byte line.
  tags_ = std::vector<LineAddr>(ways, kEmpty);
  if (assoc_ > 1) lru_ = std::vector<std::uint64_t>(ways);
}

std::size_t Cache::find(LineAddr line) const noexcept {
  const std::size_t base = set_index(line) * assoc_;
  for (std::size_t w = base; w < base + assoc_; ++w) {
    if (tags_[w] == line) return w;
  }
  return kNoWay;
}

bool Cache::access_lru(LineAddr line) {
  const std::size_t w = find(line);
  if (w == kNoWay) return false;
  lru_[w] = ++stamp_;
  return true;
}

std::optional<LineAddr> Cache::insert_lru(LineAddr line) {
  const std::size_t base = set_index(line) * assoc_;
  const std::size_t end = base + assoc_;
  std::size_t victim = kNoWay;
  for (std::size_t w = base; w < end; ++w) {
    if (tags_[w] == line) {
      lru_[w] = ++stamp_;  // Already present: refresh only.
      return std::nullopt;
    }
    if (victim == kNoWay && tags_[w] == kEmpty) victim = w;  // First empty way.
  }
  std::optional<LineAddr> evicted;
  if (victim == kNoWay) {
    victim = static_cast<std::size_t>(
        std::min_element(lru_.begin() + static_cast<std::ptrdiff_t>(base),
                         lru_.begin() + static_cast<std::ptrdiff_t>(end)) -
        lru_.begin());
    evicted = tags_[victim];
  } else {
    ++occupied_;
  }
  tags_[victim] = line;
  lru_[victim] = ++stamp_;
  return evicted;
}

bool Cache::invalidate_lru(LineAddr line) {
  const std::size_t w = find(line);
  if (w == kNoWay) return false;
  tags_[w] = kEmpty;
  --occupied_;
  return true;
}

void Cache::clear() {
  std::fill(tags_.begin(), tags_.end(), kEmpty);
  occupied_ = 0;
}

}  // namespace cool::mem
