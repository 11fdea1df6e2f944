// Metrics snapshot: a run's counters by name, sorted, ready for a bench
// record.
//
// The counters themselves live with their owners, typed: the performance
// monitor, the scheduler's per-server stat shards, the engines' idle
// counters, the channel backend. Runtime::obs_snapshot() names each one and
// is the only place that turns a counter into a key. A Snapshot is a plain
// value: counter/gauge values in one map, log2 histograms (HistData) in
// another.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <map>
#include <string>

namespace cool::obs {

/// Buckets of the log2 histogram: bucket 0 counts zeros, bucket b >= 1 counts
/// values in [2^(b-1), 2^b). 48 buckets cover every uint64 the runtime emits
/// (cycle counts, queue depths, run lengths).
constexpr std::size_t kHistBuckets = 48;

/// Aggregated histogram state inside a Snapshot.
struct HistData {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::array<std::uint64_t, kHistBuckets> buckets{};

  /// Log2 bucket index for a sample (bucket 0 = zero values); the last
  /// bucket also takes everything above its lower edge.
  [[nodiscard]] static constexpr std::size_t bucket_of(
      std::uint64_t v) noexcept {
    if (v == 0) return 0;
    const auto b = static_cast<std::size_t>(64 - std::countl_zero(v));
    return b < kHistBuckets ? b : kHistBuckets - 1;
  }

  [[nodiscard]] double mean() const noexcept {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
  /// Upper edge (2^b) of the bucket holding the ceil(q*count)-th smallest
  /// sample (nearest rank).
  [[nodiscard]] std::uint64_t quantile(double q) const noexcept;
};

/// Key order for Snapshot maps: lexicographic, except that runs of digits
/// compare numerically — "mem.chan.2.x" sorts before "mem.chan.10.x". Keeps
/// per-index gauge families (mem.chan.*, obs.trace.dropped.p*) in index
/// order in JSON output and `runner --compare` listings regardless of how
/// many indices exist. A strict weak order, total over distinct strings
/// (equal numeric values tie-break on digit-run length).
struct NaturalKeyLess {
  bool operator()(const std::string& a, const std::string& b) const noexcept;
};

/// Point-in-time view of a run's counters. Counter/gauge values share one
/// map; histograms keep their buckets so quantiles survive the snapshot.
struct Snapshot {
  std::map<std::string, std::uint64_t, NaturalKeyLess> values;
  std::map<std::string, HistData, NaturalKeyLess> hists;

  /// Deterministic JSON object: {"values":{...},"hists":{name:{count,sum,
  /// mean,p50,p95,max}}} — keys sorted (natural map order).
  [[nodiscard]] std::string to_json() const;
};

}  // namespace cool::obs
