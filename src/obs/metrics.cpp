#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/error.hpp"
#include "obs/json.hpp"

namespace cool::obs {

namespace {

/// Log2 bucket index for a sample (bucket 0 = zero values).
inline std::size_t bucket_of(std::uint64_t v) noexcept {
  if (v == 0) return 0;
  const auto b = static_cast<std::size_t>(64 - std::countl_zero(v));
  return b < kHistBuckets ? b : kHistBuckets - 1;
}

}  // namespace

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

// --- Handles -----------------------------------------------------------------

void Counter::add(std::size_t shard, std::uint64_t n) const noexcept {
  if (reg_ == nullptr) return;
  reg_->at(shard, slot_).fetch_add(n, std::memory_order_relaxed);
}

void Gauge::set(std::size_t shard, std::uint64_t v) const noexcept {
  if (reg_ == nullptr) return;
  reg_->at(shard, slot_).store(v, std::memory_order_relaxed);
}

void Histogram::observe(std::size_t shard, std::uint64_t v) const noexcept {
  if (reg_ == nullptr) return;
  reg_->at(shard, base_slot_).fetch_add(1, std::memory_order_relaxed);
  reg_->at(shard, base_slot_ + 1).fetch_add(v, std::memory_order_relaxed);
  reg_->at(shard, base_slot_ + 2 + static_cast<std::uint32_t>(bucket_of(v)))
      .fetch_add(1, std::memory_order_relaxed);
}

// --- HistData / Snapshot -----------------------------------------------------

std::uint64_t HistData::quantile(double q) const noexcept {
  if (count == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  // Nearest rank, as in LatencyHist::quantile: the ceil(q*n)-th sample.
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count))));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kHistBuckets; ++b) {
    seen += buckets[b];
    if (seen >= rank) {
      return b == 0 ? 0 : (1ull << (b < 64 ? b : 63));
    }
  }
  return 1ull << (kHistBuckets - 1);
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
    w.key("count").uint_value(h.count);
    w.key("sum").uint_value(h.sum);
    w.key("mean").number_value(h.mean());
    w.key("p50").uint_value(h.quantile(0.50));
    w.key("p95").uint_value(h.quantile(0.95));
    w.key("max").uint_value(h.quantile(1.0));
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return w.str();
}

// --- Registry ----------------------------------------------------------------

Registry::Registry(std::size_t n_shards, std::size_t max_slots)
    : max_slots_(max_slots), shards_(n_shards) {
  COOL_CHECK(max_slots_ >= 1, "Registry needs at least one slot");
  for (std::size_t s = 0; s < shards_.n_shards(); ++s) {
    shards_.shard(s).v = std::vector<std::atomic<std::uint64_t>>(max_slots_);
  }
}

std::uint32_t Registry::reserve(const std::string& name, Kind kind,
                                std::uint32_t n_slots) {
  util::MutexLock g(names_m_);
  auto it = names_.find(name);
  if (it != names_.end()) {
    COOL_CHECK(it->second.kind == kind,
               "obs metric '" + name + "' re-registered with another kind");
    return it->second.slot;
  }
  COOL_CHECK(next_slot_ + n_slots <= max_slots_,
             "obs registry slot capacity exhausted registering '" + name + "'");
  const std::uint32_t slot = next_slot_;
  next_slot_ += n_slots;
  names_.emplace(name, Meta{kind, slot});
  return slot;
}

Counter Registry::counter(const std::string& name) {
  return Counter(this, reserve(name, Kind::kCounter, 1));
}

Gauge Registry::gauge(const std::string& name) {
  return Gauge(this, reserve(name, Kind::kGauge, 1));
}

Histogram Registry::histogram(const std::string& name) {
  return Histogram(
      this, reserve(name, Kind::kHistogram,
                    static_cast<std::uint32_t>(2 + kHistBuckets)));
}

Snapshot Registry::snapshot() const {
  // Copy the name table first so the (brief) lock is not held while the
  // shards are folded.
  std::map<std::string, Meta> names;
  {
    util::MutexLock g(names_m_);
    names = names_;
  }
  Snapshot snap;
  auto fold = [&](std::uint32_t slot) {
    std::uint64_t total = 0;
    for (std::size_t s = 0; s < shards_.n_shards(); ++s) {
      total += shards_.shard(s).v[slot].load(std::memory_order_relaxed);
    }
    return total;
  };
  for (const auto& [name, meta] : names) {
    switch (meta.kind) {
      case Kind::kCounter:
      case Kind::kGauge:
        snap.values[name] = fold(meta.slot);
        break;
      case Kind::kHistogram: {
        HistData h;
        h.count = fold(meta.slot);
        h.sum = fold(meta.slot + 1);
        for (std::size_t b = 0; b < kHistBuckets; ++b) {
          h.buckets[b] = fold(meta.slot + 2 + static_cast<std::uint32_t>(b));
        }
        snap.hists[name] = h;
        break;
      }
    }
  }
  return snap;
}

}  // namespace cool::obs
