#include "obs/hist.hpp"

#include <algorithm>
#include <cmath>

namespace cool::obs {

template <unsigned SubBits>
std::uint64_t Hist<SubBits>::bucket_upper(std::size_t b) noexcept {
  if (b < kSubBuckets) return static_cast<std::uint64_t>(b);
  const auto octave = static_cast<unsigned>(b / kSubBuckets);  // >= 1
  const unsigned m = octave + kSubBits - 1;
  const std::uint64_t sub = b % kSubBuckets;
  const std::uint64_t lower =
      (std::uint64_t{1} << m) + (sub << (m - kSubBits));
  return lower + ((std::uint64_t{1} << (m - kSubBits)) - 1);
}

template <unsigned SubBits>
void Hist<SubBits>::record(std::uint64_t value) noexcept {
  ++counts_[bucket_of(value)];
  ++count_;
  sum_ += value;
  max_ = std::max(max_, value);
}

template <unsigned SubBits>
void Hist<SubBits>::merge(const Counts& buckets, std::uint64_t count,
                          std::uint64_t sum, std::uint64_t max) noexcept {
  for (std::size_t b = 0; b < kBuckets; ++b) counts_[b] += buckets[b];
  count_ += count;
  sum_ += sum;
  max_ = std::max(max_, max);
}

template <unsigned SubBits>
template <typename CountAt>
std::uint64_t Hist<SubBits>::walk(std::uint64_t count, double q,
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

template <unsigned SubBits>
typename Hist<SubBits>::Interval Hist<SubBits>::since(
    const Hist& earlier, double q) const noexcept {
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

template <unsigned SubBits>
std::uint64_t Hist<SubBits>::quantile(double q) const noexcept {
  return walk(count_, q, [this](std::size_t b) { return counts_[b]; });
}

template class Hist<0>;
template class Hist<5>;

}  // namespace cool::obs
