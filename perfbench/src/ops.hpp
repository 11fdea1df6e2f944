// perfbench ops: the unit of work the benchmark times and checks.
//
// An op is one cool::Runtime plus one application run() on it, followed by
// the application's own validation. A workload is a fixed list of ops run
// back to back; txn open-loop ops take their offered rate from the capacity
// the workload's batch op measured, so ops run in order and see the results
// of the ops before them.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "apps/barneshut/barneshut.hpp"
#include "apps/cholesky/panel.hpp"
#include "apps/txn/txn.hpp"
#include "core/cool.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

enum class AppKind { kBarnesHut, kPanel, kTxn };

struct OpSpec {
  std::string name;
  AppKind app = AppKind::kBarnesHut;
  cool::SystemConfig sys;
  cool::apps::barneshut::Config bh;
  cool::apps::cholesky::PanelConfig panel;
  cool::apps::txn::Config txn;
  /// Txn open-loop ops: offered rate as a fraction of the capacity measured
  /// by the most recent batch op of the workload (0 = use txn.arrivals as is).
  double load_frac = 0.0;
  /// Txn ops with SystemConfig::adapt: latency target as a multiple of the
  /// batch op's mean per-request service time (0 = no target).
  double target_service_mult = 0.0;
};

struct Workload {
  std::string name;
  std::vector<OpSpec> ops;
};

/// The four named workloads ("bh_hits", "panel_misses", "txn_serve",
/// "txn_adapt"). `tiny` shrinks every input for the smoke test. Throws
/// std::invalid_argument on an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed, bool tiny);

/// Names of every workload, in documentation order.
const std::vector<std::string>& workload_names();

/// Named fields of an op's simulated results, in digest order.
using Fields = std::vector<std::pair<std::string, std::string>>;

/// What an op produced.
struct OpOutcome {
  Fields fields;
  std::string digest;  ///< 16 hex digits of FNV-1a over `fields`.
  std::uint64_t line_refs = 0;  ///< PerfMonitor reads + writes.
  std::uint64_t tasks = 0;
  /// Batch txn ops: requests per kcycle and mean per-request service time
  /// on one serving processor (cycles); 0 elsewhere.
  double capacity_per_kcycle = 0.0;
  double service_cycles = 0.0;
};

/// Host-time marks of one op, all on Clock.
struct OpTimes {
  Clock::time_point start;     ///< Before Runtime construction.
  Clock::time_point built;     ///< Runtime constructed.
  Clock::time_point ran;       ///< Application run() returned.
  Clock::time_point checked;   ///< Validation and result collection done.
  Clock::time_point dtor_start;  ///< Runtime destruction begins.
  Clock::time_point end;       ///< Runtime destroyed.
};

/// Callbacks into a running op, for the traced run. `after_ctor` runs before
/// the application starts (attach observers there); `before_dtor` runs after
/// validation with the finished Runtime.
class OpHooks {
 public:
  virtual ~OpHooks() = default;
  virtual void after_ctor(cool::Runtime& rt) { (void)rt; }
  virtual void before_dtor(cool::Runtime& rt) { (void)rt; }
};

/// Fill in the fields of `spec` that depend on earlier ops of its workload.
OpSpec resolve(const OpSpec& spec, const std::vector<OpOutcome>& prior);

/// Run one resolved op. Throws cool::util::Error (or anything the app
/// throws) when the op fails, including when the application's own
/// validation fails.
OpOutcome run_op(const OpSpec& spec, OpTimes* times = nullptr,
                 OpHooks* hooks = nullptr);

/// Stored reference digests, keyed by workload, seed and op index.
class References {
 public:
  /// Load `path`; a missing file yields an empty table.
  explicit References(const std::string& path);
  /// The stored fields for (workload, seed, op), or null if none.
  [[nodiscard]] const Fields* find(const std::string& workload,
                                   std::uint64_t seed, std::size_t op) const;

  /// Format one reference line for `out`.
  static std::string line(const std::string& workload, std::uint64_t seed,
                          std::size_t op, const std::string& op_name,
                          const OpOutcome& out);

 private:
  struct Entry {
    std::string workload;
    std::uint64_t seed = 0;
    std::size_t op = 0;
    Fields fields;
  };
  std::vector<Entry> entries_;
};

/// Name of the first field where `got` differs from `want`, or "" if equal.
std::string first_difference(const Fields& want, const Fields& got);

/// Peak resident set of this process, in MB.
double peak_rss_mb();

}  // namespace perfbench
