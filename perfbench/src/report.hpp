// perfbench reporting: command-line arguments, the per-op check, and the
// result line every run ends with.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ops.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  bool emit_reference = false;
  std::string refs;       ///< Reference digest file ("" = none).
  std::string trace_out;  ///< Where the traced run writes its spans.
  std::uint64_t race_slice = 0;  ///< Child mode: race-check slice size.
};

/// Median of `v` (0 for an empty vector).
double median(std::vector<double> v);

/// Named metrics in print order.
class Metrics {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] std::string json() const;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> m_;
};

/// Runs a workload's ops and checks each one: application validation (inside
/// run_op), then the stored reference for (workload, seed, op) when there is
/// one, or else agreement with the first pass of this process. Counts ops
/// attempted and failed.
class OpChecker {
 public:
  OpChecker(const Workload& w, const Args& a);

  /// Resolve op `i` against `prior`, run it and check it. On failure prints
  /// why on stderr, counts it, and returns false (`out` is then empty).
  bool run(std::size_t i, const std::vector<OpOutcome>& prior, OpOutcome& out,
           OpTimes* times = nullptr, OpHooks* hooks = nullptr);

  /// Record a failed check that is not tied to one op (the traced run's
  /// replay gate); the run then reports correct=false.
  void fail(const std::string& why);

  /// Print the op counts and the result line (metrics `m`); returns the exit
  /// code.
  int finish(const Metrics& m) const;

 private:
  const Workload& w_;
  const Args& a_;
  References refs_;
  std::vector<std::string> digests_;  ///< First digest seen per op.
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool gate_failed_ = false;
};

}  // namespace perfbench
