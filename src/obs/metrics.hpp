// Metrics snapshot: a run's counters by name, sorted, ready for a bench
// record.
//
// The counters themselves live with their owners, typed: the performance
// monitor, the scheduler's per-server stat shards, the engines' idle
// counters, the channel backend. Runtime::obs_snapshot() names each one and
// is the only place that turns a counter into a key. A Snapshot is a plain
// value: counter/gauge values in one map, log2 histograms (Hist<0>) in
// another.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "obs/hist.hpp"

namespace cool::obs {

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
  std::map<std::string, Hist<0>, NaturalKeyLess> hists;

  /// Deterministic JSON object: {"values":{...},"hists":{name:{count,sum,
  /// mean,p50,p95,max}}} — keys sorted (natural map order); max is the
  /// largest sample, p50 and p95 the Hist<0> quantiles.
  [[nodiscard]] std::string to_json() const;
};

}  // namespace cool::obs
