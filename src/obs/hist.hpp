// The program's one histogram: log-linear buckets, one quantile rule.
//
// Hist<SubBits> divides every octave [2^m, 2^(m+1)) into 2^SubBits linear
// sub-buckets, so a recorded value lands in a bucket whose width is at most
// value/2^SubBits; values below 2^SubBits are exact. Two geometries are
// instantiated:
//   - LatencyHist = Hist<5>: 32 sub-buckets per octave, so every quantile
//     has <= 1/32 (~3%) relative error, tight enough for a p999 of request
//     latency. 1920 buckets (15 KiB).
//   - Hist<0>: one bucket per octave, bucket b = bit_width(v): zeros in
//     bucket 0, [2^(b-1), 2^b) in bucket b. 65 buckets (520 B), cheap enough
//     for one per processor; the metrics snapshot's histograms and the
//     scheduler's shards use it.
//
// A quantile is the inclusive upper edge of the bucket holding the
// nearest-rank sample, capped at the largest sample, so it never exceeds
// max().
//
// The class is a plain value type (fixed arrays, no allocation, copyable) so
// the adaptive engine can keep the previous epoch's copy and read the
// epoch's count and p99 against it (since()). It is NOT thread-safe:
// recording happens on the deterministic simulation path (one thread), and
// the engine reads it between epochs on that same path. The scheduler keeps
// its shards in relaxed atomics of Hist<0>'s geometry and folds them in with
// merge().
#pragma once

#include <array>
#include <bit>
#include <cstdint>

namespace cool::obs {

template <unsigned SubBits>
class Hist {
 public:
  static constexpr unsigned kSubBits = SubBits;
  /// Linear sub-buckets per octave; bounds quantile relative error by
  /// 1/kSubBuckets.
  static constexpr std::uint64_t kSubBuckets = std::uint64_t{1} << kSubBits;
  /// Octaves kSubBits..63 get kSubBuckets each; values < kSubBuckets are
  /// exact.
  static constexpr std::size_t kBuckets = kSubBuckets * (64 - kSubBits + 1);
  using Counts = std::array<std::uint64_t, kBuckets>;

  /// Record one sample.
  void record(std::uint64_t value) noexcept;

  /// Fold `other`'s samples into this histogram.
  void merge(const Hist& other) noexcept {
    merge(other.counts_, other.count_, other.sum_, other.max_);
  }
  /// Fold in `count` samples summing to `sum`, the largest `max`, of which
  /// `buckets[b]` fell in bucket b: a histogram of this geometry kept
  /// elsewhere (the scheduler's atomic shards).
  void merge(const Counts& buckets, std::uint64_t count, std::uint64_t sum,
             std::uint64_t max) noexcept;

  /// Count and q-quantile of the samples recorded since `earlier`, an older
  /// copy of this same (monotonically growing) histogram. Each bucket counts
  /// this minus `earlier`, clamped at zero where `earlier` is ahead. The
  /// quantile walks those bucket counts as quantile() walks this
  /// histogram's, so it is capped at this histogram's cumulative max() (an
  /// upper bound for the interval, not the interval max). An interval with
  /// no samples reports count 0 and quantile 0.
  struct Interval {
    std::uint64_t count = 0;
    std::uint64_t quantile = 0;
  };
  [[nodiscard]] Interval since(const Hist& earlier, double q) const noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] std::uint64_t sum() const noexcept { return sum_; }
  /// The largest sample (0 when empty).
  [[nodiscard]] std::uint64_t max() const noexcept { return max_; }
  [[nodiscard]] double mean() const noexcept {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) / static_cast<double>(count_);
  }
  [[nodiscard]] const Counts& buckets() const noexcept { return counts_; }

  /// Value at quantile q in [0,1]: the inclusive upper edge of the bucket
  /// holding the ceil(q*count)-th smallest sample, capped at max(). For a
  /// sorted-sample oracle o, quantile(q) is in [o, o*(1+1/kSubBuckets)].
  /// Returns 0 on an empty histogram.
  [[nodiscard]] std::uint64_t quantile(double q) const noexcept;

  /// Bucket index of `value`.
  [[nodiscard]] static constexpr std::size_t bucket_of(
      std::uint64_t value) noexcept {
    if (value < kSubBuckets) return static_cast<std::size_t>(value);
    // Octave m = position of the MSB (>= kSubBits here); the octave's
    // kSubBuckets linear sub-buckets each span 2^(m-kSubBits) values.
    const auto m = static_cast<unsigned>(std::bit_width(value) - 1);
    const std::uint64_t sub =
        (value - (std::uint64_t{1} << m)) >> (m - kSubBits);
    return static_cast<std::size_t>(kSubBuckets * (m - kSubBits + 1) + sub);
  }
  /// Largest value mapping to bucket `b`.
  [[nodiscard]] static std::uint64_t bucket_upper(std::size_t b) noexcept;

 private:
  /// The quantile walk over bucket counts `at(b)` summing to `count`.
  template <typename CountAt>
  [[nodiscard]] std::uint64_t walk(std::uint64_t count, double q,
                                   CountAt at) const noexcept;

  Counts counts_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t max_ = 0;
};

extern template class Hist<0>;
extern template class Hist<5>;

/// Per-request latency (simulated cycles), with p999-grade resolution.
using LatencyHist = Hist<5>;

}  // namespace cool::obs
