// Machine-readable benchmark records: the single JSON schema every bench
// binary builds beside its text and writes with --json-out, and bench/runner
// consumes.
//
// Schema "cool-bench/1" — one JSON object per record:
//   {
//     "schema":  "cool-bench/1",
//     "bench":   "<binary name>",
//     "git_sha": "<short sha at configure time, or 'unknown'>",
//     "config":  { "<option>": <typed value>, ... },
//     "series":  [ { "<column>": <number|string>, ... }, ... ],
//     "shape":   { "<metric>": <number>, ... },
//     "obs":     { "values": {...}, "hists": {...} },     // optional
//     "profile": { "snapshot": {...}, "advice": [...] }   // optional
//   }
// `config` holds every option of the run except --json-out itself, so a
// record depends only on the run's inputs and `git_sha`; `series` is the
// bench's result table with each cell parsed back to a number when it is
// one; `shape` carries the summary metrics the text output prints as its
// "shape:" line, plus any a claim needs that the text does not print; `obs`
// is a metrics Snapshot (see metrics.hpp) from the run the record describes.
// Records are written as BENCH_<bench>.json so that bench/runner --compare
// can match two run directories record by record.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/options.hpp"
#include "common/table.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace cool::obs {

/// Current schema identifier; bump the suffix on breaking changes.
inline constexpr const char* kBenchSchema = "cool-bench/1";

class BenchRecord {
 public:
  explicit BenchRecord(std::string bench_name);

  /// Override the configure-time git sha (tests pin this for golden files).
  void set_git_sha(std::string sha) { git_sha_ = std::move(sha); }

  /// Capture every declared option's effective value as the config block,
  /// except --json-out (where the record goes is not an input of the run).
  void set_config(const util::Options& opt);

  /// Append the bench's result table as series rows (cells that parse fully
  /// as numbers are emitted as numbers). May be called more than once; rows
  /// accumulate.
  void add_series(const util::Table& t);

  void add_shape(const std::string& key, double value);

  /// Attach a metrics snapshot (typically from the headline configuration's
  /// run) as the record's "obs" block.
  void set_obs(const Snapshot& snap);

  /// Attach the locality-profiler output as the record's "profile" block.
  /// `snapshot_json` is a ProfileSnapshot::to_json() object; `advice_json_arr`
  /// is an advice_json() array (empty string = no advice key).
  void set_profile(std::string snapshot_json, std::string advice_json_arr);

  /// Attach the adaptive runtime's decision log as the record's "adaptation"
  /// block (an AdaptiveEngine::log_json() array; empty string = no key).
  void set_adaptation(std::string decisions_json_arr);

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  /// Render the record (deterministic field order).
  [[nodiscard]] std::string to_json() const;

  /// Canonical file name: BENCH_<bench>.json.
  [[nodiscard]] std::string file_name() const;

  /// Write file_name() into the directory `dir`, or to `dir` itself when it
  /// ends in .json. Returns false on I/O failure.
  bool write_to(const std::string& dir) const;

 private:
  struct ConfigEntry {
    std::string key;
    char kind;  ///< Options::NamedValue kind.
    std::string value;
  };

  std::string name_;
  std::string git_sha_;
  std::vector<ConfigEntry> config_;
  /// Each series row keeps its own column names, so a bench may add several
  /// tables with different shapes (speedup sweep + miss table).
  std::vector<std::vector<std::pair<std::string, std::string>>> rows_;
  std::vector<std::pair<std::string, double>> shape_;
  std::string obs_json_;  ///< Pre-rendered Snapshot, empty when unset.
  std::string profile_json_;  ///< Pre-rendered ProfileSnapshot, empty = unset.
  std::string advice_json_;   ///< Pre-rendered advice array, empty = unset.
  std::string adaptation_json_;  ///< Pre-rendered decision log, empty = unset.
};

/// Validate a parsed record against the cool-bench/1 schema. Returns an empty
/// string when valid, else a one-line description of the first violation.
std::string validate_bench_record(const json::Value& v);

/// Convenience: parse + validate JSON text.
std::string validate_bench_json(const std::string& text);

}  // namespace cool::obs
