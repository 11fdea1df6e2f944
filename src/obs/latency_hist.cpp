#include "obs/latency_hist.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

namespace cool::obs {

std::size_t LatencyHist::bucket_of(std::uint64_t value) noexcept {
  if (value < kSubBuckets) return static_cast<std::size_t>(value);
  // Octave m = position of the MSB (>= kSubBits here); the octave's
  // kSubBuckets linear sub-buckets each span 2^(m-kSubBits) values.
  const auto m = static_cast<std::uint32_t>(std::bit_width(value) - 1);
  const std::uint64_t sub = (value - (std::uint64_t{1} << m)) >> (m - kSubBits);
  return static_cast<std::size_t>(kSubBuckets) * (m - kSubBits + 1) +
         static_cast<std::size_t>(sub);
}

std::uint64_t LatencyHist::bucket_upper(std::size_t b) noexcept {
  if (b < kSubBuckets) return static_cast<std::uint64_t>(b);
  const auto octave = static_cast<std::uint32_t>(b / kSubBuckets);  // >= 1
  const std::uint32_t m = octave + kSubBits - 1;
  const std::uint64_t sub = b % kSubBuckets;
  const std::uint64_t lower =
      (std::uint64_t{1} << m) + (sub << (m - kSubBits));
  return lower + ((std::uint64_t{1} << (m - kSubBits)) - 1);
}

void LatencyHist::record(std::uint64_t value) noexcept {
  ++counts_[bucket_of(value)];
  ++count_;
  sum_ += value;
  max_ = std::max(max_, value);
}

void LatencyHist::merge(const LatencyHist& other) noexcept {
  for (std::size_t b = 0; b < kBuckets; ++b) counts_[b] += other.counts_[b];
  count_ += other.count_;
  sum_ += other.sum_;
  max_ = std::max(max_, other.max_);
}

template <typename CountAt>
std::uint64_t LatencyHist::walk(std::uint64_t count, double q,
                                CountAt at) const noexcept {
  if (count == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(q * static_cast<double>(count))));
  std::uint64_t seen = 0;
  const std::size_t end = bucket_of(max_) + 1;  // Empty from here up.
  for (std::size_t b = 0; b < end; ++b) {
    seen += at(b);
    if (seen >= rank) return std::min(bucket_upper(b), max_);
  }
  return max_;
}

LatencyHist::Interval LatencyHist::since(const LatencyHist& earlier,
                                         double q) const noexcept {
  const auto at = [&](std::size_t b) {
    return counts_[b] > earlier.counts_[b] ? counts_[b] - earlier.counts_[b]
                                           : 0;
  };
  Interval out;
  // No sample lies above max(): the buckets past its own are empty here,
  // so their clamped differences are 0.
  const std::size_t end = bucket_of(max_) + 1;
  for (std::size_t b = 0; b < end; ++b) out.count += at(b);
  out.quantile = walk(out.count, q, at);
  return out;
}

std::uint64_t LatencyHist::quantile(double q) const noexcept {
  return walk(count_, q, [this](std::size_t b) { return counts_[b]; });
}

}  // namespace cool::obs
