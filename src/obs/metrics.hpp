// Metrics registry: named counters, gauges, and log2 histograms with
// cache-line-aligned per-processor shards.
//
// This generalises the scheduler's hand-rolled StatShard pattern (PR 1) into
// a reusable facility: a writer updates only its own shard (relaxed atomics,
// no false sharing — shards live in util::Sharded's aligned cells), readers
// fold the shards into a Snapshot on demand. A Snapshot is a plain value: a
// run's totals, sorted by name, ready for a bench record.
//
// Registration is mutex-guarded and allocates slots from a fixed-capacity
// array chosen at construction, so the hot increment path never observes a
// reallocation; registering the same name twice returns the same metric.
// Handles are trivially copyable and default-construct to a detached no-op,
// letting instrumented code (scheduler, engines) run un-attached at zero
// observable cost beyond one branch.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "common/thread_annotations.hpp"

namespace cool::obs {

class Registry;

/// Buckets of the log2 histogram: bucket 0 counts zeros, bucket b >= 1 counts
/// values in [2^(b-1), 2^b). 48 buckets cover every uint64 the runtime emits
/// (cycle counts, queue depths, run lengths).
constexpr std::size_t kHistBuckets = 48;

/// Monotonic counter handle. add() is wait-free on the caller's shard.
class Counter {
 public:
  Counter() = default;
  void add(std::size_t shard, std::uint64_t n = 1) const noexcept;
  [[nodiscard]] bool attached() const noexcept { return reg_ != nullptr; }

 private:
  friend class Registry;
  Counter(Registry* reg, std::uint32_t slot) : reg_(reg), slot_(slot) {}
  Registry* reg_ = nullptr;
  std::uint32_t slot_ = 0;
};

/// Last-value-per-shard gauge; shards are summed on snapshot (so a per-server
/// gauge like "queue depth" aggregates to the fleet total).
class Gauge {
 public:
  Gauge() = default;
  void set(std::size_t shard, std::uint64_t v) const noexcept;
  [[nodiscard]] bool attached() const noexcept { return reg_ != nullptr; }

 private:
  friend class Registry;
  Gauge(Registry* reg, std::uint32_t slot) : reg_(reg), slot_(slot) {}
  Registry* reg_ = nullptr;
  std::uint32_t slot_ = 0;
};

/// Log2-bucketed histogram handle.
class Histogram {
 public:
  Histogram() = default;
  void observe(std::size_t shard, std::uint64_t v) const noexcept;
  [[nodiscard]] bool attached() const noexcept { return reg_ != nullptr; }

 private:
  friend class Registry;
  Histogram(Registry* reg, std::uint32_t base_slot)
      : reg_(reg), base_slot_(base_slot) {}
  Registry* reg_ = nullptr;
  std::uint32_t base_slot_ = 0;  ///< count, sum, then kHistBuckets buckets.
};

/// Aggregated histogram state inside a Snapshot.
struct HistData {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::array<std::uint64_t, kHistBuckets> buckets{};

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

/// Point-in-time aggregate of a Registry (plus any computed entries a caller
/// mixes in). Counter/gauge values share one map; histograms keep their
/// buckets so quantiles survive the snapshot.
struct Snapshot {
  std::map<std::string, std::uint64_t, NaturalKeyLess> values;
  std::map<std::string, HistData, NaturalKeyLess> hists;

  /// Deterministic JSON object: {"values":{...},"hists":{name:{count,sum,
  /// mean,p50,p95,max}}} — keys sorted (natural map order).
  [[nodiscard]] std::string to_json() const;
};

class Registry {
 public:
  /// `n_shards` concurrent writers (one per processor/server);
  /// `max_slots` bounds the total storage (a histogram consumes
  /// 2 + kHistBuckets slots, counters and gauges one each).
  explicit Registry(std::size_t n_shards, std::size_t max_slots = 1024);

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Register (or look up) a metric. Thread-safe; same name => same handle.
  /// Throws util::Error if the name is already registered with another kind
  /// or the slot capacity is exhausted.
  Counter counter(const std::string& name);
  Gauge gauge(const std::string& name);
  Histogram histogram(const std::string& name);

  [[nodiscard]] std::size_t n_shards() const noexcept {
    return shards_.n_shards();
  }

  /// Fold every shard into a Snapshot. Safe to call concurrently with
  /// writers: each slot is read atomically, so counters are monotonic across
  /// snapshots even mid-increment (per-slot atomicity, not cross-slot).
  [[nodiscard]] Snapshot snapshot() const;

 private:
  friend class Counter;
  friend class Gauge;
  friend class Histogram;

  enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram };

  struct Meta {
    Kind kind;
    std::uint32_t slot;
  };

  /// One shard: a fixed array of atomic slots (allocated once, never moved).
  struct Slots {
    std::vector<std::atomic<std::uint64_t>> v;
  };

  std::uint32_t reserve(const std::string& name, Kind kind,
                        std::uint32_t n_slots);

  [[nodiscard]] std::atomic<std::uint64_t>& at(std::size_t shard,
                                               std::uint32_t slot) noexcept {
    return shards_.shard(shard).v[slot];
  }

  const std::size_t max_slots_;
  util::Sharded<Slots> shards_;
  mutable util::Mutex names_m_;  ///< Guards names_ and next_slot_.
  std::map<std::string, Meta> names_ COOL_GUARDED_BY(names_m_);
  std::uint32_t next_slot_ COOL_GUARDED_BY(names_m_) = 0;
};

}  // namespace cool::obs
