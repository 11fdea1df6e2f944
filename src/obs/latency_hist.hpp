// HDR-style log-linear latency histogram for per-request tail percentiles.
//
// The metrics snapshot's general HistData uses 48 coarse power-of-two
// buckets — fine for spotting a distribution's shape, useless for p999 (one
// octave of error at the tail). Request serving needs bounded *relative*
// error, so this histogram divides every octave [2^m, 2^(m+1)) into
// kSubBuckets linear sub-buckets: any recorded value lands in a bucket whose
// width is at most value/kSubBuckets, i.e. every quantile is reported with
// <= 1/kSubBuckets (~3%) relative error. Values below kSubBuckets are exact.
//
// The class is a plain value type (fixed arrays, no allocation, copyable) so
// the adaptive engine can keep the previous epoch's copy and read the
// epoch's count and p99 against it (since()). It is NOT thread-safe:
// recording happens on the deterministic simulation path (one thread), and
// the engine reads it between epochs on that same path.
#pragma once

#include <array>
#include <cstdint>

namespace cool::obs {

class LatencyHist {
 public:
  /// Linear sub-buckets per octave; bounds quantile relative error by
  /// 1/kSubBuckets.
  static constexpr std::uint32_t kSubBits = 5;
  static constexpr std::uint32_t kSubBuckets = 1u << kSubBits;
  /// Octaves 5..63 get kSubBuckets each; values < kSubBuckets are exact.
  static constexpr std::size_t kBuckets =
      kSubBuckets * (64 - kSubBits + 1);  // 1920

  /// Record one latency sample (simulated cycles).
  void record(std::uint64_t value) noexcept;

  /// Fold `other`'s samples into this histogram.
  void merge(const LatencyHist& other) noexcept;

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
  [[nodiscard]] Interval since(const LatencyHist& earlier,
                               double q) const noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] std::uint64_t sum() const noexcept { return sum_; }
  [[nodiscard]] std::uint64_t max() const noexcept { return max_; }
  [[nodiscard]] double mean() const noexcept {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) / static_cast<double>(count_);
  }

  /// Value at quantile q in [0,1]: the inclusive upper edge of the bucket
  /// holding the ceil(q*count)-th smallest sample, capped at max(). For a
  /// sorted-sample oracle o, quantile(q) is in [o, o*(1+1/kSubBuckets)].
  /// Returns 0 on an empty histogram.
  [[nodiscard]] std::uint64_t quantile(double q) const noexcept;

  [[nodiscard]] std::uint64_t p50() const noexcept { return quantile(0.50); }
  [[nodiscard]] std::uint64_t p99() const noexcept { return quantile(0.99); }
  [[nodiscard]] std::uint64_t p999() const noexcept { return quantile(0.999); }

  /// Bucket index of `value` (exposed for tests).
  [[nodiscard]] static std::size_t bucket_of(std::uint64_t value) noexcept;
  /// Largest value mapping to bucket `b` (exposed for tests).
  [[nodiscard]] static std::uint64_t bucket_upper(std::size_t b) noexcept;

 private:
  /// The quantile walk over bucket counts `at(b)` summing to `count`.
  template <typename CountAt>
  [[nodiscard]] std::uint64_t walk(std::uint64_t count, double q,
                                   CountAt at) const noexcept;

  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t max_ = 0;
};

}  // namespace cool::obs
