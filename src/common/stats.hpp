// The sharding helper concurrent counters build on: one cache-line-aligned
// slice per writer, folded into an aggregate on read.
#pragma once

#include <cstddef>
#include <vector>

#include "common/error.hpp"

namespace cool::util {

/// Fixed array of cache-line-aligned shards of T, one per concurrent writer
/// (e.g. one per scheduler server). Writers update only their own shard, so
/// hot counters never false-share a cache line; readers fold the shards into
/// an aggregate. T must be default-constructible; it need not be copyable or
/// movable (atomics are fine).
template <typename T>
class Sharded {
 public:
  explicit Sharded(std::size_t n_shards) : shards_(n_shards) {
    COOL_CHECK(n_shards >= 1, "Sharded needs at least one shard");
  }

  Sharded(const Sharded&) = delete;
  Sharded& operator=(const Sharded&) = delete;

  [[nodiscard]] std::size_t n_shards() const noexcept { return shards_.size(); }

  /// The shard for writer `i`; out-of-range writers wrap around.
  [[nodiscard]] T& shard(std::size_t i) noexcept {
    return shards_[i % shards_.size()].value;
  }
  [[nodiscard]] const T& shard(std::size_t i) const noexcept {
    return shards_[i % shards_.size()].value;
  }

  /// Fold every shard into `acc` via `fn(acc, shard)` and return it. Shards
  /// are visited in index order, so aggregation is deterministic.
  template <typename Acc, typename Fn>
  [[nodiscard]] Acc aggregate(Acc acc, Fn&& fn) const {
    for (const Cell& c : shards_) fn(acc, c.value);
    return acc;
  }

 private:
  struct alignas(64) Cell {
    T value{};
  };
  std::vector<Cell> shards_;
};

}  // namespace cool::util
