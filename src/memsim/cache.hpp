// Set-associative cache tag array with true-LRU replacement.
//
// The simulator tracks only presence (tags), not data: application code runs
// natively and computes real values, while this model decides hit/miss and
// which line a fill evicts. Coherence state (sharers, dirty owner) lives in
// the Directory; the cache is notified of invalidations and reports evictions.
//
// DASH's caches are direct mapped, so the geometry picks the representation:
// with one way per set the cache is a bare tag per set (no LRU stamp, no
// victim scan) and `access`/`insert`/`invalidate` inline to a compare and a
// store; with more ways it keeps a per-way access stamp and evicts the least
// recent.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/bitops.hpp"
#include "common/error.hpp"

namespace cool::mem {

/// A line address (byte address / line size).
using LineAddr = std::uint64_t;

class Cache {
 public:
  /// `capacity_bytes` total, `assoc` ways, `line_bytes` per line.
  Cache(std::uint32_t capacity_bytes, std::uint32_t assoc,
        std::uint32_t line_bytes);

  /// True if the line is present; refreshes LRU on hit.
  bool access(LineAddr line) {
    if (assoc_ == 1) return tags_[set_index(line)] == line;
    return access_lru(line);
  }

  /// True if present, without disturbing LRU (used by inclusion checks).
  [[nodiscard]] bool contains(LineAddr line) const {
    return find(line) != kNoWay;
  }

  /// Insert a line; returns the evicted victim line, if any.
  std::optional<LineAddr> insert(LineAddr line) {
    COOL_DCHECK(line != kEmpty, "line address reserved for empty ways");
    if (assoc_ != 1) return insert_lru(line);
    LineAddr& tag = tags_[set_index(line)];
    const LineAddr old = tag;
    if (old == line) return std::nullopt;
    tag = line;
    if (old != kEmpty) return old;
    ++occupied_;
    return std::nullopt;
  }

  /// Remove a line if present (coherence invalidation / inclusion victim).
  /// Returns true if the line was present.
  bool invalidate(LineAddr line) {
    if (assoc_ != 1) return invalidate_lru(line);
    LineAddr& tag = tags_[set_index(line)];
    if (tag != line) return false;
    tag = kEmpty;
    --occupied_;
    return true;
  }

  /// Drop every line (used by page migration flushes and tests).
  void clear();

  [[nodiscard]] std::uint32_t n_sets() const noexcept { return n_sets_; }
  [[nodiscard]] std::uint32_t assoc() const noexcept { return assoc_; }
  [[nodiscard]] std::uint64_t occupancy() const noexcept { return occupied_; }

 private:
  /// Tag of an empty way; no line address reaches it.
  static constexpr LineAddr kEmpty = ~LineAddr{0};
  static constexpr std::size_t kNoWay = ~std::size_t{0};

  [[nodiscard]] std::size_t set_index(LineAddr line) const noexcept {
    return static_cast<std::size_t>(line & (n_sets_ - 1));
  }
  /// Index into tags_ of the way holding `line`, or kNoWay.
  [[nodiscard]] std::size_t find(LineAddr line) const noexcept;
  bool access_lru(LineAddr line);
  std::optional<LineAddr> insert_lru(LineAddr line);
  bool invalidate_lru(LineAddr line);

  std::uint32_t assoc_;
  std::uint32_t n_sets_;
  std::uint64_t stamp_ = 0;
  std::uint64_t occupied_ = 0;
  std::vector<LineAddr> tags_;  ///< n_sets_ * assoc_, set-major.
  /// Last-access stamp per way, parallel to tags_; empty when direct mapped.
  std::vector<std::uint64_t> lru_;
};

}  // namespace cool::mem
