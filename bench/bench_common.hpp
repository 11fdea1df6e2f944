// Shared helpers for the figure/table benchmark binaries.
//
// Every bench prints (a) the paper series it reproduces, as a fixed-width
// table, and (b) a short "shape" summary (who wins, by how much) that
// EXPERIMENTS.md compares against the paper's reported results. With --json
// the same series/shape data is emitted instead as a schema-versioned
// cool-bench/1 record (obs/bench_json.hpp) that bench/runner collects and
// diffs; route both paths through a bench::Report so they cannot drift.
#pragma once

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "adaptive/policy.hpp"
#include "apps/common/harness.hpp"
#include "common/check.hpp"
#include "common/options.hpp"
#include "common/table.hpp"
#include "core/cool.hpp"
#include "core/sim_engine.hpp"
#include "obs/advisor.hpp"
#include "obs/bench_json.hpp"
#include "obs/json.hpp"
#include "obs/profiler.hpp"

namespace cool::bench {

/// Compiled-in sanitizer name (set by CMake when COOL_SANITIZE is active);
/// recorded in every JSON record so runner --compare can refuse to treat
/// sanitized numbers as performance data.
#ifdef COOL_SANITIZE_NAME
inline constexpr const char* kSanitizerName = COOL_SANITIZE_NAME;
#else
inline constexpr const char* kSanitizerName = "none";
#endif

/// Parse a --mem-backend spec: "" or "flat" (the paper's fixed-latency
/// model, the default) or "ddr[:config.json]" for the contended channel
/// model. The optional JSON object overrides ChannelConfig fields:
/// channels_per_cluster, banks_per_channel, queue_depth, row_bytes, t_rcd,
/// t_cas, t_rp, t_burst — unknown keys are an error.
inline mem::ChannelConfig parse_mem_backend(const std::string& spec) {
  mem::ChannelConfig cfg;
  if (spec.empty() || spec == "flat") return cfg;
  COOL_CHECK(spec == "ddr" || spec.rfind("ddr:", 0) == 0,
             "--mem-backend: expected 'flat' or 'ddr[:config.json]', got '" +
                 spec + "'");
  cfg.kind = mem::ChannelConfig::Kind::kDdr;
  if (spec.size() <= 4) return cfg;
  const std::string path = spec.substr(4);
  std::ifstream in(path);
  COOL_CHECK(in.good(), "--mem-backend: cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  obs::json::Value v;
  std::string err;
  COOL_CHECK(obs::json::parse(text.str(), v, &err),
             "--mem-backend: " + path + ": " + err);
  COOL_CHECK(v.is_object(), "--mem-backend: " + path + ": not a JSON object");
  for (const auto& [k, val] : v.obj) {
    const auto u32 = [&] {
      return static_cast<std::uint32_t>(obs::json::as_uint(
          val, k, std::numeric_limits<std::uint32_t>::max()));
    };
    if (k == "channels_per_cluster") {
      cfg.channels_per_cluster = u32();
    } else if (k == "banks_per_channel") {
      cfg.banks_per_channel = u32();
    } else if (k == "queue_depth") {
      cfg.queue_depth = u32();
    } else if (k == "row_bytes") {
      cfg.row_bytes = obs::json::as_uint(
          val, k, std::numeric_limits<std::uint64_t>::max());
    } else if (k == "t_rcd") {
      cfg.timing.t_rcd = u32();
    } else if (k == "t_cas") {
      cfg.timing.t_cas = u32();
    } else if (k == "t_rp") {
      cfg.timing.t_rp = u32();
    } else if (k == "t_burst") {
      cfg.timing.t_burst = u32();
    } else {
      COOL_CHECK(false, "--mem-backend: " + path + ": unknown key '" + k + "'");
    }
  }
  return cfg;
}

/// Build a simulated-DASH runtime with `procs` processors.
inline Runtime make_runtime(std::uint32_t procs, const sched::Policy& policy) {
  SystemConfig sc;
  sc.machine = topo::MachineConfig::dash(procs);
  sc.policy = policy;
  return Runtime(sc);
}

/// As above, honouring the bench's --profile, --race-check and --adapt
/// requests. Benches build their headline (largest-P, most-interesting-
/// variant) runtime through this so the flags work on every figure for free.
inline Runtime make_runtime(std::uint32_t procs, const sched::Policy& policy,
                            const util::Options& opt) {
  SystemConfig sc;
  sc.machine = topo::MachineConfig::dash(procs);
  sc.policy = policy;
  sc.mem_channel = parse_mem_backend(opt.get_string("mem-backend"));
  sc.profile = opt.given("profile");
  sc.race_check = opt.flag("race-check");
  sc.req_trace = opt.given("req-trace");
  sc.adapt = opt.given("adapt");
  const std::string& pol_path = opt.get_string("adapt");
  if (!pol_path.empty()) {
    sc.adapt_policy = adaptive::load_adapt_policy(pol_path);
  }
  const std::int64_t latency_target = opt.get_int("latency-target");
  COOL_CHECK(latency_target >= 0,
             "--latency-target: " + std::to_string(latency_target) +
                 " is negative; give a p99 target in cycles, or 0 for off");
  if (latency_target > 0) {
    // --latency-target implies --adapt: the objective lives in the adaptive
    // engine. An explicit --adapt=policy.json still wins for every other
    // knob; we only pin the target itself.
    sc.adapt = true;
    sc.adapt_policy.latency_target_cycles =
        static_cast<std::uint64_t>(latency_target);
  }
  return Runtime(sc);
}

/// Standard option set for the figure benches.
inline util::Options standard_options(const std::string& name,
                                      const std::string& desc) {
  util::Options opt(name, desc);
  // Benches narrow both to std::uint32_t, so reject what would wrap.
  constexpr std::int64_t kMaxProcs = std::numeric_limits<std::uint32_t>::max();
  opt.add_int("max-procs", 32, "largest processor count in the sweep", 1,
              kMaxProcs);
  opt.add_int("procs", 32, "processor count for fixed-P experiments", 1,
              kMaxProcs);
  opt.add_flag("csv", "emit tables as CSV instead of aligned text");
  opt.add_flag("json", "emit a cool-bench/1 JSON record instead of text");
  opt.add_string("json-out", "",
                 "write the JSON record to this file or directory "
                 "(default: stdout; implies --json)");
  opt.add_optional_string(
      "profile",
      "attach the locality profiler to the headline run; text mode appends "
      "the per-object/per-set report, json mode embeds a 'profile' block. "
      "--profile=<path> additionally writes the profile JSON there");
  opt.add_flag("race-check",
               "attach the happens-before race detector to the headline run; "
               "text mode appends the race report, json mode records the "
               "count (passive: simulated cycles are unchanged)");
  opt.add_optional_string(
      "adapt",
      "attach the online adaptive locality runtime to the headline run "
      "(sim only; unlike --profile it charges simulated cycles). "
      "--adapt=<policy.json> overrides the adaptation knobs");
  opt.add_optional_string(
      "req-trace",
      "attach the per-request causal tracer to the headline run (passive: "
      "simulated cycles and default output are unchanged). Serving benches "
      "append the tail-latency decomposition; --req-trace=<path> "
      "additionally writes the tail exemplars as Chrome trace-event JSON");
  opt.add_string(
      "mem-backend", "",
      "memory-timing backend for the headline run: 'flat' (paper default) "
      "or 'ddr[:config.json]' for the contended channel/bank model (adds "
      "mem.chan.* gauges to the obs snapshot)");
  opt.add_int("latency-target", 0,
              "p99 request-latency target in simulated cycles for the "
              "adaptive runtime's latency objective (implies --adapt; 0 = "
              "objective off; only request-serving benches feed the sensor)");
  return opt;
}

/// Print a result table honouring the --csv flag.
inline void print_table(const util::Table& t, const util::Options& opt) {
  const std::string s = opt.flag("csv") ? t.to_csv() : t.to_string();
  std::fwrite(s.data(), 1, s.size(), stdout);
}

/// One row of a cache-miss comparison table (Figures 7, 11, 15).
inline void miss_row(util::Table& t, const std::string& label,
                     const apps::RunResult& r) {
  t.row()
      .cell(label)
      .cell(static_cast<double>(r.mem.accesses()) / 1e6, 2)
      .cell(static_cast<double>(r.mem.misses()) / 1e3, 1)
      .cell(apps::miss_rate(r.mem), 2)
      .cell(100.0 * apps::local_fraction(r.mem), 1)
      .cell(100.0 * (1.0 - apps::local_fraction(r.mem)), 1)
      .cell(r.mem.invals_sent)
      .cell(static_cast<double>(r.mem.latency_cycles) / 1e6, 1);
}

inline util::Table miss_table() {
  return util::Table({"version", "accesses(M)", "misses(K)", "miss/1000",
                      "local%", "remote%", "invals", "stall(Mcyc)"});
}

/// Percentage improvement of `better` over `worse` completion time.
inline double improvement_pct(std::uint64_t worse_cycles,
                              std::uint64_t better_cycles) {
  if (better_cycles == 0) return 0.0;
  return 100.0 * (static_cast<double>(worse_cycles) /
                      static_cast<double>(better_cycles) -
                  1.0);
}

/// One output channel for a bench binary: text tables by default, the
/// cool-bench/1 JSON record under --json. Usage pattern:
///
///   bench::Report rep(opt);
///   if (rep.text()) std::printf("# header ...\n");
///   ... build table t ...
///   rep.table(t);                         // print or record
///   if (rep.text()) std::printf("\nshape: ...\n", pct);
///   rep.shape("improvement_pct", pct);    // recorded in json mode
///   rep.obs_from(headline_result);        // optional metrics snapshot
///   return rep.finish();                  // emits the record in json mode
class Report {
 public:
  explicit Report(const util::Options& opt)
      : rec_(opt.program()),
        opt_(&opt),
        json_(opt.flag("json") || !opt.get_string("json-out").empty()) {
    if (json_) {
      rec_.set_config(opt);
      rec_.set_config_entry("build.sanitizer", kSanitizerName);
    }
  }

  /// True when the bench should produce its human-readable output.
  [[nodiscard]] bool text() const noexcept { return !json_; }

  /// Print the table (text mode) or append it as series rows (json mode).
  void table(const util::Table& t) {
    if (json_) {
      rec_.add_series(t);
    } else {
      print_table(t, *opt_);
    }
  }

  /// Record one summary metric (the JSON twin of the "shape:" text line).
  void shape(const std::string& key, double value) {
    if (json_) rec_.add_shape(key, value);
  }

  /// Attach the metrics snapshot of the headline run.
  void obs_from(const apps::RunResult& r) {
    if (json_) rec_.set_obs(r.obs);
  }
  void set_obs(const cool::obs::Snapshot& snap) {
    if (json_) rec_.set_obs(snap);
  }

  /// Attach the locality profile of `rt`'s finished run: in text mode the
  /// per-object/per-set report plus the advisor's findings are printed after
  /// the bench output; in json mode they become the record's "profile" block.
  /// With --profile=<path>, the profile JSON is additionally written there.
  /// No-op unless the runtime was built with profiling on — so benches call
  /// this unconditionally on their headline runtime and `--profile` stays
  /// strictly opt-in (output is untouched without it).
  /// Attach the race-check verdict of `rt`'s finished run: text mode prints
  /// the report, json mode records the distinct-race count as a shape
  /// metric. No-op unless the runtime was built with race_check on, so the
  /// default output is byte-identical without the flag.
  void race_from(Runtime& rt) {
    const analysis::RaceDetector* rd = rt.race_detector();
    if (rd == nullptr) return;
    if (json_) {
      rec_.add_shape("races", static_cast<double>(rd->total()));
    } else {
      std::fputc('\n', stdout);
      const std::string rep = rd->report();
      std::fwrite(rep.data(), 1, rep.size(), stdout);
    }
  }

  /// Attach the adaptation decision log of `rt`'s finished run: text mode
  /// prints one line per decision, json mode embeds the "adaptation" array.
  /// No-op unless the runtime was built with adapt on.
  void adaptation_from(Runtime& rt) {
    const adaptive::AdaptiveEngine* ae = rt.adaptive_engine();
    if (ae == nullptr) return;
    if (json_) {
      rec_.set_adaptation(ae->log_json());
      rec_.add_shape("adaptation_decisions",
                     static_cast<double>(ae->log().size()));
    } else {
      std::printf("\n== adaptation log (%zu decisions, %llu epochs) ==\n",
                  ae->log().size(),
                  static_cast<unsigned long long>(ae->epochs()));
      for (const adaptive::Decision& d : ae->log()) {
        std::printf("  epoch %llu @%llu [%s] %s: %s (%llu cycles)\n",
                    static_cast<unsigned long long>(d.epoch),
                    static_cast<unsigned long long>(d.cycle),
                    cool::obs::advice_kind_name(d.rule), d.subject.c_str(),
                    d.action.c_str(),
                    static_cast<unsigned long long>(d.cost_cycles));
      }
    }
  }

  /// Attach the request-trace breakdown of `rt`'s finished run: text mode
  /// prints the decomposition table and exemplar summaries, json mode adds
  /// breakdown_* shape metrics. With --req-trace=<path> the exemplar span
  /// chains are written there as Chrome trace-event JSON. No-op unless the
  /// runtime was built with req_trace on AND at least one request completed
  /// — so figure benches (no serving driver) stay byte-identical even when
  /// the flag is passed.
  void reqtrace_from(Runtime& rt) {
    const cool::obs::RequestTraceRecorder* rec = rt.request_trace();
    if (rec == nullptr || rec->completed() == 0) return;
    const cool::obs::BreakdownSummary s = rec->summary();
    if (json_) {
      rec_.add_shape("breakdown_requests", static_cast<double>(s.count));
      rec_.add_shape("breakdown_mean_queue_wait", s.mean_queue_wait);
      rec_.add_shape("breakdown_mean_service", s.mean_service);
      rec_.add_shape("breakdown_mean_memory_stall", s.mean_memory_stall);
      rec_.add_shape("breakdown_mean_steal_penalty", s.mean_steal_penalty);
      rec_.add_shape("breakdown_p99_queue_wait",
                     static_cast<double>(s.p99_queue_wait));
      rec_.add_shape("breakdown_p99_service",
                     static_cast<double>(s.p99_service));
      rec_.add_shape("breakdown_p99_memory_stall",
                     static_cast<double>(s.p99_memory_stall));
      rec_.add_shape("breakdown_p99_steal_penalty",
                     static_cast<double>(s.p99_steal_penalty));
      rec_.add_shape("reqtrace_dropped", static_cast<double>(s.dropped));
    } else {
      std::printf(
          "\n== request-trace breakdown (%llu measured requests) ==\n",
          static_cast<unsigned long long>(s.count));
      std::printf("  %-14s %12s %12s\n", "component", "mean(cyc)", "p99(cyc)");
      std::printf("  %-14s %12.1f %12llu\n", "queue_wait", s.mean_queue_wait,
                  static_cast<unsigned long long>(s.p99_queue_wait));
      std::printf("  %-14s %12.1f %12llu\n", "service", s.mean_service,
                  static_cast<unsigned long long>(s.p99_service));
      std::printf("  %-14s %12.1f %12llu\n", "memory_stall",
                  s.mean_memory_stall,
                  static_cast<unsigned long long>(s.p99_memory_stall));
      std::printf("  %-14s %12.1f %12llu\n", "steal_penalty",
                  s.mean_steal_penalty,
                  static_cast<unsigned long long>(s.p99_steal_penalty));
      std::printf("  span-ring drops: %llu\n",
                  static_cast<unsigned long long>(s.dropped));
      for (const cool::obs::ReqExemplar& e : rec->exemplars()) {
        const std::uint64_t total = e.stat.completion - e.stat.arrival;
        std::printf(
            "  exemplar req %u: %llu cyc (wait %llu, service %llu "
            "[stall %llu], steal %llu; %u dispatches, %u hops, %u moves)\n",
            e.req, static_cast<unsigned long long>(total),
            static_cast<unsigned long long>(e.stat.queue_wait),
            static_cast<unsigned long long>(e.stat.service),
            static_cast<unsigned long long>(e.stat.memory_stall),
            static_cast<unsigned long long>(e.stat.steal_penalty),
            e.stat.dispatches, e.stat.steal_hops, e.stat.moves);
      }
    }
    const std::string& path = opt_->get_string("req-trace");
    if (!path.empty()) {
      std::FILE* f = std::fopen(path.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "%s: failed to write exemplar trace to %s\n",
                     rec_.name().c_str(), path.c_str());
      } else {
        const std::string text = rec->exemplar_chrome_json();
        std::fwrite(text.data(), 1, text.size(), f);
        std::fputc('\n', f);
        std::fclose(f);
      }
    }
  }

  void profile_from(Runtime& rt) {
    race_from(rt);
    adaptation_from(rt);
    reqtrace_from(rt);
    // --adapt constructs the profiler as its sensor; profile output stays
    // strictly opt-in behind --profile itself.
    if (rt.profiler() == nullptr || !opt_->given("profile")) return;
    const cool::obs::ProfileSnapshot p = rt.profile_snapshot();
    const std::vector<cool::obs::Advice> advice =
        cool::obs::advise(p, rt.advisor_signals());
    if (json_) {
      rec_.set_profile(p.to_json(), cool::obs::advice_json(advice));
    } else {
      std::fputc('\n', stdout);
      const std::string rep = cool::obs::profile_report(p);
      std::fwrite(rep.data(), 1, rep.size(), stdout);
      std::fputc('\n', stdout);
      const std::string adv = cool::obs::advice_report(advice);
      std::fwrite(adv.data(), 1, adv.size(), stdout);
    }
    const std::string& path = opt_->get_string("profile");
    if (!path.empty()) {
      cool::obs::json::Writer w;
      w.begin_object();
      w.key("snapshot").raw(p.to_json());
      w.key("advice").raw(cool::obs::advice_json(advice));
      w.end_object();
      std::FILE* f = std::fopen(path.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "%s: failed to write profile to %s\n",
                     rec_.name().c_str(), path.c_str());
      } else {
        const std::string& text = w.str();
        std::fwrite(text.data(), 1, text.size(), f);
        std::fputc('\n', f);
        std::fclose(f);
      }
    }
  }

  /// Escape hatch for benches with extra record content.
  [[nodiscard]] cool::obs::BenchRecord& record() noexcept { return rec_; }

  /// In json mode, emit the record: to --json-out (file or directory) when
  /// set, else to stdout. Returns the process exit code.
  int finish() {
    if (!json_) return 0;
    const std::string& out = opt_->get_string("json-out");
    if (out.empty()) {
      const std::string j = rec_.to_json();
      std::fwrite(j.data(), 1, j.size(), stdout);
      std::fputc('\n', stdout);
      return 0;
    }
    if (!rec_.write_to(out)) {
      std::fprintf(stderr, "%s: failed to write record to %s\n",
                   rec_.name().c_str(), out.c_str());
      return 1;
    }
    return 0;
  }

 private:
  cool::obs::BenchRecord rec_;
  const util::Options* opt_;
  bool json_;
};

}  // namespace cool::bench
