// bench/runner — drive the benchmark fleet and manage its JSON records.
//
// Three modes:
//   runner [--quick] [--out=DIR]
//       Execute every bench binary with --json (quick mode shrinks the
//       problem sizes so the whole fleet finishes in seconds), validate each
//       record against the cool-bench/1 schema, and write BENCH_<name>.json
//       files into DIR. Quick mode then gates the records: each simulated
//       bench is re-run with kPassiveFlags added and must reproduce its
//       series, shape, adaptation log and obs counters, and every row of
//       kClaims must hold. Exits non-zero if any bench or check fails.
//   runner --list
//       Print the fleet with the args each mode would use.
//   runner --compare OLD NEW [--threshold=PCT]
//       Diff two record directories: for every bench present in both, report
//       each shape metric whose relative change exceeds PCT (default 5%)
//       plus each obs-snapshot counter (steals, failed steal scans,
//       remote-miss ratio, invalidations) that increased past it, and note
//       config mismatches that make the comparison apples-to-oranges.
//       Exits non-zero when any metric regressed past the threshold. With
//       --fail-on-regression=PCT the exit status instead tracks only
//       direction-aware regressions (a speedup shrinking, cycles or steal
//       counters growing) beyond PCT — drift in the good direction still
//       prints but passes. In both modes a record whose adaptation log
//       differs from the old one's, entry for entry, fails the comparison
//       and prints the first differing entry from each side.
//
// The bench binaries are expected next to the runner (the build drops
// everything into build/bench/), overridable with --bin-dir.
#include <sys/wait.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/options.hpp"
#include "obs/bench_json.hpp"
#include "obs/json.hpp"

namespace fs = std::filesystem;
using cool::obs::json::Value;

namespace {

struct Bench {
  const char* name;
  const char* quick_args;  ///< Shrunk problem for smoke runs.
  const char* full_args;   ///< Paper-scale defaults ("" = binary defaults).
};

// Quick args keep every bench under a few seconds while still exercising the
// full pipeline (multiple processor counts, all variants).
constexpr std::array<Bench, 21> kFleet{{
    {"tab01_affinity_hints", "--procs=8 --objects=32 --obj-kb=16 --tasks-per-obj=4", ""},
    {"fig03_gauss_affinity", "--max-procs=8 --n=64", ""},
    {"fig06_ocean_speedup", "--max-procs=8 --n=64 --grids=2 --steps=2", ""},
    {"fig07_ocean_misses", "--procs=8 --n=64 --grids=2 --steps=2", ""},
    {"fig10_locusroute_speedup", "--max-procs=8 --wires-per-region=16 --iterations=2", ""},
    {"fig11_locusroute_misses", "--procs=8 --wires-per-region=16 --iterations=2", ""},
    {"fig14_panel_speedup", "--max-procs=8 --panels=48", ""},
    {"fig15_panel_misses", "--procs=8 --panels=48", ""},
    {"fig16_barneshut", "--max-procs=8 --bodies=512 --steps=1", ""},
    {"fig16_blockcholesky", "--max-procs=8 --blocks=8 --block-size=12", ""},
    {"abl_queue_array", "--procs=8 --objects=32 --obj-kb=16 --tasks-per-obj=4", ""},
    {"abl_steal_policy", "--procs=8 --panels=48", ""},
    {"abl_region_size", "--procs=8 --total-wires=512 --total-width=512", ""},
    {"abl_multi_object", "--procs=8 --pairs=16 --tasks-per-pair=2", ""},
    {"abl_latency_ratio", "--procs=8 --n=64 --grids=2 --steps=2", ""},
    {"abl_adaptive", "--procs=8 --quick", ""},
    {"abl_balancer", "--procs=8 --quick", ""},
    {"srv_txn_latency", "--procs=8 --quick --req-trace", "--req-trace"},
    {"abl_srv_skew", "--procs=8 --quick --req-trace", "--req-trace"},
    {"abl_mem_channel", "--procs=8 --quick", ""},
    {"micro_sched_throughput", "--max-threads=4 --tasks=20000 --warmup=0", ""},
}};

/// Observers that must not move a simulated number. The passive re-run adds
/// each one whose option the bench's args do not already set. micro_*
/// benches time real threads, so they are not re-run.
constexpr const char* kPassiveFlags[] = {"--req-trace", "--mem-backend=flat",
                                         "--profile"};

/// A claim operand: a constant, a number in the record's `shape` or
/// `obs.values`, or a count of the entries of its `adaptation` log or
/// `series` rows whose `key` field starts with `match` (and, if `nonzero`
/// is set, whose `nonzero` field is not 0).
struct Ref {
  enum Kind : std::uint8_t { kConst, kValue, kCount } kind;
  const char* in = "";  ///< "shape" or "obs"; "adaptation" or "series"
  const char* key = "";
  const char* match = "";
  const char* nonzero = "";
  double num = 0.0;
};
constexpr Ref num(double v) { return {Ref::kConst, "", "", "", "", v}; }
constexpr Ref shape(const char* key) { return {Ref::kValue, "shape", key}; }
constexpr Ref obs(const char* key) { return {Ref::kValue, "obs", key}; }
constexpr Ref count(const char* in, const char* key, const char* match,
                    const char* nonzero = "") {
  return {Ref::kCount, in, key, match, nonzero};
}

struct Claim {
  const char* bench;
  Ref value;
  const char* op;  ///< ">", ">=", "<", "<=" or "=="
  Ref bound;
};

// The reproduction's headline results, checked on every --quick run. Bounds
// are the ones each result was accepted with. To add a claim, add a row.
constexpr Claim kClaims[] = {
    // Adaptation closes the loop and beats the unhinted run on both apps.
    {"abl_adaptive", count("adaptation", "rule", ""), ">", num(0)},
    {"abl_adaptive", shape("gauss_decisions"), ">", num(0)},
    {"abl_adaptive", shape("ocean_decisions"), ">", num(0)},
    {"abl_adaptive", shape("gauss_recovered_frac"), ">=", num(0.25)},
    {"abl_adaptive", shape("ocean_recovered_frac"), ">", num(0)},
    // Reserve reserves on ocean (the profiler feed is live) and wins locality.
    {"abl_balancer", shape("ocean_reserve_decisions"), ">=", num(1)},
    {"abl_balancer", shape("ocean_reserve_local_frac"), ">",
     shape("ocean_stealing_local_frac")},
    {"abl_balancer", obs("sched.balance.commands"), ">", num(0)},
    {"abl_balancer", obs("sched.balance.reserve_hits"), ">=", num(1)},
    // The open-loop hockey stick: past saturation p99 blows up, service lags.
    {"srv_txn_latency", shape("p99_frac85"), ">", num(0)},
    {"srv_txn_latency", shape("p99_blowup_ratio"), ">", num(2)},
    {"srv_txn_latency", shape("served_ratio_past_sat"), "<", num(0.9)},
    // The latency objective recovers the skew tail; the memory-stall-bound
    // blind case routes to migration first.
    {"abl_srv_skew", count("adaptation", "rule", ""), ">", num(0)},
    {"abl_srv_skew", count("adaptation", "rule", "latency-target"), ">",
     num(0)},
    {"abl_srv_skew", shape("p99_hot_stealing"), ">", shape("p99_uniform")},
    {"abl_srv_skew", shape("adapt_recovered_frac"), ">=", num(0.5)},
    {"abl_srv_skew", shape("p99_hot_adapt"), "<", shape("p99_hot_stealing")},
    {"abl_srv_skew", shape("blind_first_decision_migration"), "==", num(1)},
    {"abl_srv_skew", shape("blind_rehomes"), ">=", num(1)},
    {"abl_srv_skew", shape("p99_blind_adapt"), "<=", shape("p99_blind")},
    // The ddr model contends, flat exports no channel gauges, and the
    // bandwidth-bound blind case escalates to distribute.
    {"abl_mem_channel", shape("ddr_peak_saturation_knee"), ">", num(0)},
    {"abl_mem_channel", shape("tail_divergence_knee"), ">=", num(2)},
    {"abl_mem_channel", count("series", "mem", "flat"), ">", num(0)},
    {"abl_mem_channel", count("series", "mem", "flat", "peak-chan%"), "==",
     num(0)},
    {"abl_mem_channel", count("series", "mem", "ddr", "qfull"), ">", num(0)},
    {"abl_mem_channel", shape("bandwidth_decisions"), ">=", num(1)},
    {"abl_mem_channel", shape("first_decision_bandwidth"), "==", num(1)},
    {"abl_mem_channel", count("adaptation", "action", "escalate=distribute"),
     ">", num(0)},
};

/// Run `cmd`, capturing stdout. Returns "" when it exits 0, else how it
/// ended ("exit status 1", "killed by signal 11 (Segmentation fault)").
std::string capture(const std::string& cmd, std::string& out) {
  out.clear();
  // exec: the shell must not outlive the child and report a fatal signal
  // as its own exit status 128+N.
  std::FILE* p = ::popen(("exec " + cmd).c_str(), "r");
  if (p == nullptr) return std::string("popen: ") + std::strerror(errno);
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, p)) > 0) out.append(buf, n);
  const int status = ::pclose(p);
  if (status == -1) return std::string("pclose: ") + std::strerror(errno);
  if (WIFSIGNALED(status)) {
    return "killed by signal " + std::to_string(WTERMSIG(status)) + " (" +
           ::strsignal(WTERMSIG(status)) + ")";
  }
  if (WEXITSTATUS(status) != 0) {
    return "exit status " + std::to_string(WEXITSTATUS(status));
  }
  return "";
}

bool load_record(const fs::path& path, Value& v) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return false;
  std::string text;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  std::fclose(f);
  std::string err;
  if (!cool::obs::json::parse(text, v, &err)) {
    std::fprintf(stderr, "runner: %s: %s\n", path.c_str(), err.c_str());
    return false;
  }
  return cool::obs::validate_bench_record(v).empty();
}

/// Render one config entry as comparable text; an absent key reads as `def`
/// so records predating the key compare equal to ones that recorded its
/// default.
std::string config_text(const Value* config, const char* key,
                        const char* def) {
  const Value* v = config != nullptr ? config->find(key) : nullptr;
  if (v == nullptr) return def;
  switch (v->kind) {
    case Value::Kind::kBool:
      return v->boolean ? "true" : "false";
    case Value::Kind::kNumber: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%g", v->num);
      return buf;
    }
    case Value::Kind::kString:
      return v->str;
    default:
      return def;
  }
}

/// Relative change of b vs a in percent (0 when both are ~zero).
double rel_pct(double a, double b) {
  if (std::fabs(a) < 1e-12) return std::fabs(b) < 1e-12 ? 0.0 : 100.0;
  return 100.0 * (b - a) / std::fabs(a);
}

/// Which way a shape metric is supposed to move. `--compare` alone flags any
/// change past the threshold (drift detection); `--fail-on-regression` only
/// fails the run when a metric moved in its *bad* direction, which needs a
/// per-metric notion of good. The fleet's shape names encode it: percentages
/// and ratios named for a speedup/locality win are higher-better, counts of
/// work (cycles, misses) are lower-better, and identity-like values (decision
/// counts, a post-migrate home) have no direction at all.
enum class Direction { kHigherBetter, kLowerBetter, kNeutral };

Direction shape_direction(const std::string& name) {
  for (const char* s : {"decisions", "home_after", "first_decision",
                        "rehomes", "breakdown_requests", "divergence",
                        "saturation"}) {
    if (name.find(s) != std::string::npos) return Direction::kNeutral;
  }
  // Latency percentiles are checked before the generic win tokens so that a
  // key like "p99_past_sat" never matches a higher-better substring by
  // accident: tail latency growing is always the bad direction.
  for (const char* s : {"p50", "p95", "p99", "p999", "latency"}) {
    if (name.find(s) != std::string::npos) return Direction::kLowerBetter;
  }
  for (const char* s :
       {"local", "over", "recovered", "speedup", "improvement", "peak",
        "served", "throughput"}) {
    if (name.find(s) != std::string::npos) return Direction::kHigherBetter;
  }
  return Direction::kLowerBetter;
}

/// Locality/scheduling counters worth diffing across runs, derived from the
/// record's obs snapshot. Higher is worse for all of them, so --compare only
/// flags increases. Returns false when the record carries no obs block.
bool obs_metrics(const Value& rec,
                 std::vector<std::pair<std::string, double>>& out) {
  const Value* obs = rec.find("obs");
  if (obs == nullptr || !obs->is_object()) return false;
  const Value* values = obs->find("values");
  if (values == nullptr || !values->is_object()) return false;
  auto num = [&](const char* k) -> double {
    const Value* v = values->find(k);
    return v != nullptr && v->is_number() ? v->num : 0.0;
  };
  out.emplace_back("obs:sched.steals", num("sched.steals"));
  out.emplace_back("obs:sched.failed_steal_scans",
                   num("sched.failed_steal_scans"));
  const double misses = num("mem.misses");
  out.emplace_back("obs:mem.remote_miss_ratio",
                   misses > 0.0 ? num("mem.remote_misses") / misses : 0.0);
  out.emplace_back("obs:mem.invals_sent", num("mem.invals_sent"));
  // Balancer activity (PR 6). Records written before the balancer existed
  // lack these keys; num() reads them as 0, so --compare against an old
  // baseline sees no spurious diff under the default (inactive) balancer.
  out.emplace_back("obs:sched.balance.commands", num("sched.balance.commands"));
  out.emplace_back("obs:sched.balance.moves", num("sched.balance.moves"));
  out.emplace_back("obs:sched.balance.reserve_hits",
                   num("sched.balance.reserve_hits"));
  // Channel-backend contention (PR 10): absent both under the flat default
  // and in older records — num() reads them as 0, so only a ddr-backend
  // bench ever diffs on these.
  out.emplace_back("obs:mem.chan.queue_full_stalls",
                   num("mem.chan.queue_full_stalls"));
  out.emplace_back("obs:mem.chan.row_conflicts", num("mem.chan.row_conflicts"));
  return true;
}

/// Deep equality of two parsed JSON values.
bool same(const Value& a, const Value& b) {
  return a.kind == b.kind && a.boolean == b.boolean && a.num == b.num &&
         a.str == b.str &&
         std::equal(a.arr.begin(), a.arr.end(), b.arr.begin(), b.arr.end(),
                    same) &&
         std::equal(a.obj.begin(), a.obj.end(), b.obj.begin(), b.obj.end(),
                    [](const auto& x, const auto& y) {
                      return x.first == y.first && same(x.second, y.second);
                    });
}

/// One decision-log entry as `key=value` pairs, or "(none)" past the end of
/// its log.
std::string entry_text(const std::vector<Value>& log, std::size_t i) {
  if (i >= log.size()) return "(none)";
  std::string out;
  for (const auto& [k, v] : log[i].obj) {
    char num[32];
    std::snprintf(num, sizeof num, "%.17g", v.num);
    if (!out.empty()) out += ' ';
    out.append(k).append("=").append(v.is_string() ? v.str : num);
  }
  return out;
}

/// The number `r` names in `rec`; NaN (which fails every claim) when the
/// record lacks it.
double eval(const Ref& r, const Value& rec) {
  if (r.kind == Ref::kConst) return r.num;
  const double missing = std::nan("");
  const Value* in = rec.find(r.in);
  if (in != nullptr && r.in == std::string_view("obs")) in = in->find("values");
  if (in == nullptr) return missing;
  if (r.kind == Ref::kValue) {
    const Value* v = in->find(r.key);
    return v != nullptr && v->is_number() ? v->num : missing;
  }
  double n = 0.0;
  for (const Value& e : in->arr) {
    const Value* f = e.find(r.key);
    if (f == nullptr || !f->is_string() || !f->str.starts_with(r.match)) {
      continue;
    }
    if (*r.nonzero != '\0') {
      const Value* z = e.find(r.nonzero);
      if (z == nullptr || !z->is_number()) return missing;
      if (z->num == 0.0) continue;
    }
    n += 1.0;
  }
  return n;
}

bool holds(double a, std::string_view op, double b) {
  return op == ">"    ? a > b
         : op == ">=" ? a >= b
         : op == "<"  ? a < b
         : op == "<=" ? a <= b
                      : op == "==" && a == b;
}

/// An operand as a failing claim prints it, e.g. "0.25",
/// "shape.gauss_recovered_frac = 0.5884" or
/// "count(series.mem=flat*, peak-chan% != 0) = 2".
std::string describe(const Ref& r, double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.4g", v);
  if (r.kind == Ref::kConst) return buf;
  std::string s = std::string(r.in) + "." + r.key;
  if (r.kind == Ref::kCount) {
    s = "count(" + s + "=" + r.match + "*" +
        (*r.nonzero != '\0' ? std::string(", ") + r.nonzero + " != 0" : "") +
        ")";
  }
  return s + " = " + (std::isnan(v) ? "missing" : buf);
}

/// Check every claim against its bench's record, printing each one that
/// fails (all of a bench's claims fail when it left no record). Returns the
/// number that failed.
int check_claims(const std::map<std::string, Value, std::less<>>& records) {
  static const Value kNone;
  int failed = 0;
  for (const Claim& c : kClaims) {
    const auto it = records.find(c.bench);
    const Value& rec = it != records.end() ? it->second : kNone;
    const double a = eval(c.value, rec);
    const double b = eval(c.bound, rec);
    if (holds(a, c.op, b)) continue;
    ++failed;
    std::fprintf(stderr, "runner: FAIL %s claim: %s, want %s %s\n", c.bench,
                 describe(c.value, a).c_str(), c.op,
                 describe(c.bound, b).c_str());
  }
  return failed;
}

/// The part of a record its passive re-run changed, or nullptr.
const char* rerun_diff(const Value& a, const Value& b) {
  for (const char* key : {"series", "shape", "adaptation"}) {
    const Value* va = a.find(key);
    const Value* vb = b.find(key);
    if (va != vb && (va == nullptr || vb == nullptr || !same(*va, *vb))) {
      return key;
    }
  }
  std::vector<std::pair<std::string, double>> ma;
  std::vector<std::pair<std::string, double>> mb;
  obs_metrics(a, ma);
  obs_metrics(b, mb);
  return ma == mb ? nullptr : "obs counters";
}

/// Run one bench with --json and `args` into `text` and `rec`. Returns why
/// it failed, or "".
std::string run_bench(const std::string& exe, const std::string& args,
                      std::string& text, Value& rec) {
  std::string cmd = exe + " --json";
  if (!args.empty()) cmd += " " + args;
  std::printf("runner: %s\n", cmd.c_str());
  std::fflush(stdout);
  const std::string why = capture(cmd, text);
  if (!why.empty()) return why;
  const std::string err = cool::obs::validate_bench_json(text);
  if (!err.empty()) return "invalid record: " + err;
  cool::obs::json::parse(text, rec);
  return "";
}

int run_fleet(const std::string& bin_dir, const std::string& out_dir,
              bool quick) {
  std::error_code ec;
  fs::create_directories(out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "runner: cannot create %s: %s\n", out_dir.c_str(),
                 ec.message().c_str());
    return 2;
  }
  int failures = 0;
  int ran = 0;
  int reruns = 0;
  std::map<std::string, Value, std::less<>> records;
  for (const Bench& b : kFleet) {
    const std::string exe = bin_dir + "/" + b.name;
    if (!fs::exists(exe)) {
      std::fprintf(stderr, "runner: SKIP %s (binary not found at %s)\n",
                   b.name, exe.c_str());
      ++failures;
      continue;
    }
    std::string args = quick ? b.quick_args : b.full_args;
    std::string text;
    Value rec;
    std::string why = run_bench(exe, args, text, rec);
    if (!why.empty()) {
      std::fprintf(stderr, "runner: FAIL %s (%s)\n", b.name, why.c_str());
      ++failures;
      continue;
    }
    const std::string path =
        out_dir + "/BENCH_" + std::string(b.name) + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr ||
        std::fwrite(text.data(), 1, text.size(), f) != text.size()) {
      std::fprintf(stderr, "runner: FAIL %s (cannot write %s)\n", b.name,
                   path.c_str());
      if (f != nullptr) std::fclose(f);
      ++failures;
      continue;
    }
    std::fclose(f);
    ++ran;
    if (!quick) continue;
    if (!std::string_view(b.name).starts_with("micro_")) {
      for (const char* flag : kPassiveFlags) {
        const std::string option(flag, std::strcspn(flag, "="));
        if (args.find(option) == std::string::npos) {
          args += std::string(" ") + flag;
        }
      }
      Value again;
      why = run_bench(exe, args, text, again);
      const char* part = why.empty() ? rerun_diff(rec, again) : nullptr;
      if (part != nullptr) why = std::string(part) + " changed";
      if (why.empty()) {
        ++reruns;
      } else {
        std::fprintf(stderr, "runner: FAIL %s re-run with %s (%s)\n", b.name,
                     args.c_str(), why.c_str());
        ++failures;
      }
    }
    records.emplace(b.name, std::move(rec));
  }
  const int broken = quick ? check_claims(records) : 0;
  failures += broken;
  std::printf("runner: %d record(s) written to %s", ran, out_dir.c_str());
  if (quick) {
    std::printf(", %d identical passive re-run(s), %d claim(s) hold", reruns,
                static_cast<int>(std::size(kClaims)) - broken);
  }
  std::printf(", %d failure(s)\n", failures);
  return failures == 0 && ran > 0 ? 0 : 1;
}

int compare_runs(const std::string& old_dir, const std::string& new_dir,
                 double threshold, double fail_pct) {
  int compared = 0;
  int over = 0;
  int regressed = 0;
  int changed_logs = 0;
  std::error_code ec;
  std::vector<fs::path> olds;
  for (const auto& e : fs::directory_iterator(old_dir, ec)) {
    const std::string fn = e.path().filename().string();
    if (fn.rfind("BENCH_", 0) == 0 && e.path().extension() == ".json") {
      olds.push_back(e.path());
    }
  }
  if (ec || olds.empty()) {
    std::fprintf(stderr, "runner: no BENCH_*.json records in %s\n",
                 old_dir.c_str());
    return 2;
  }
  std::sort(olds.begin(), olds.end());
  for (const fs::path& op : olds) {
    const fs::path np = fs::path(new_dir) / op.filename();
    if (!fs::exists(np)) {
      std::printf("%-28s only in %s\n", op.filename().c_str(),
                  old_dir.c_str());
      continue;
    }
    Value a;
    Value b;
    if (!load_record(op, a) || !load_record(np, b)) {
      std::fprintf(stderr, "runner: cannot load %s pair\n",
                   op.filename().c_str());
      ++over;
      continue;
    }
    const std::string bench = a.find("bench")->str;
    // Config drift makes metric deltas meaningless — call it out first.
    const Value* ca = a.find("config");
    const Value* cb = b.find("config");
    // Analysis instrumentation (race detector, sanitizers) distorts wall
    // time and, for sanitizers, codegen — a record pair that disagrees on
    // either is not performance-comparable, which deserves a louder callout
    // than ordinary config drift.
    constexpr std::pair<const char*, const char*> kAnalysisKeys[] = {
        {"race-check", "false"}, {"build.sanitizer", "none"}};
    for (const auto& [key, def] : kAnalysisKeys) {
      const std::string va = config_text(ca, key, def);
      const std::string vb = config_text(cb, key, def);
      if (va != vb) {
        std::printf(
            "%-28s WARNING: %s differs (%s vs %s) — records are not "
            "performance-comparable\n",
            bench.c_str(), key, va.c_str(), vb.c_str());
      }
    }
    for (const auto& [k, va] : ca->obj) {
      const Value* vb = cb->find(k);
      if (vb == nullptr || !same(va, *vb)) {
        std::printf("%-28s config.%s differs between runs\n", bench.c_str(),
                    k.c_str());
      }
    }
    // Trace-buffer drops on either side mean the run's span/event record is
    // partial: exemplar chains and per-proc timelines from it understate the
    // truth, so call it out before any metric comparison.
    {
      const auto dropped = [](const Value& rec, const char* key) -> double {
        const Value* obs = rec.find("obs");
        const Value* values =
            obs != nullptr && obs->is_object() ? obs->find("values") : nullptr;
        const Value* v =
            values != nullptr && values->is_object() ? values->find(key) : nullptr;
        return v != nullptr && v->is_number() ? v->num : 0.0;
      };
      for (const char* key : {"obs.trace.dropped", "obs.reqtrace.dropped"}) {
        const double da = dropped(a, key);
        const double db = dropped(b, key);
        if (da > 0.0 || db > 0.0) {
          std::printf(
              "%-28s WARNING: %s (%g old, %g new) — span record is partial, "
              "trace-derived output understates the run\n",
              bench.c_str(), key, da, db);
        }
      }
    }
    for (const auto& [k, va] : a.find("shape")->obj) {
      const Value* vb = b.find("shape")->find(k);
      if (vb == nullptr || !va.is_number() || !vb->is_number()) continue;
      const double d = rel_pct(va.num, vb->num);
      ++compared;
      bool reg = false;
      if (fail_pct >= 0.0) {
        const Direction dir = shape_direction(k);
        reg = (dir == Direction::kHigherBetter && d < -fail_pct) ||
              (dir == Direction::kLowerBetter && d > fail_pct);
      }
      if (std::fabs(d) > threshold || reg) {
        std::printf("%-28s %-32s %12.4g -> %12.4g  (%+.1f%%)%s\n",
                    bench.c_str(), k.c_str(), va.num, vb->num, d,
                    reg ? "  REGRESSION" : "");
        if (std::fabs(d) > threshold) ++over;
        if (reg) ++regressed;
      }
    }
    // Shape keys present only in the NEW record (metrics added by a newer
    // build, e.g. the breakdown_* decomposition): nothing to diff against,
    // so they print as informational and can neither trip the threshold nor
    // count as a --fail-on-regression failure.
    for (const auto& [k, vb] : b.find("shape")->obj) {
      if (!vb.is_number()) continue;
      if (a.find("shape")->find(k) != nullptr) continue;
      std::printf("%-28s %-32s %28.4g  (new, info)\n", bench.c_str(),
                  k.c_str(), vb.num);
    }
    // The adaptive engine's decision log must match entry for entry: a
    // changed decision sequence can leave every shape metric inside the
    // threshold. An absent log reads as empty.
    {
      static const std::vector<Value> kNoLog;
      const Value* la = a.find("adaptation");
      const Value* lb = b.find("adaptation");
      const std::vector<Value>& da = la != nullptr ? la->arr : kNoLog;
      const std::vector<Value>& db = lb != nullptr ? lb->arr : kNoLog;
      std::size_t i = 0;
      while (i < da.size() && i < db.size() && same(da[i], db[i])) ++i;
      if (i < da.size() || i < db.size()) {
        ++changed_logs;
        std::printf("%-28s adaptation differs at entry %zu (%zu -> %zu "
                    "entries)  DECISIONS CHANGED\n",
                    bench.c_str(), i, da.size(), db.size());
        std::printf("%-28s   old: %s\n", "", entry_text(da, i).c_str());
        std::printf("%-28s   new: %s\n", "", entry_text(db, i).c_str());
      }
    }
    // Scheduler/locality counters from the obs snapshot: a bench can hold
    // its shape while quietly stealing more or servicing more misses
    // remotely, so diff these too (increase = regression).
    std::vector<std::pair<std::string, double>> ma;
    std::vector<std::pair<std::string, double>> mb;
    if (obs_metrics(a, ma) && obs_metrics(b, mb)) {
      for (std::size_t i = 0; i < ma.size(); ++i) {
        const double d = rel_pct(ma[i].second, mb[i].second);
        ++compared;
        // All obs counters are higher-is-worse, so an increase past either
        // bar is flagged and (under --fail-on-regression) fails the run.
        const bool reg = fail_pct >= 0.0 && d > fail_pct;
        if (d > threshold || reg) {
          std::printf("%-28s %-32s %12.4g -> %12.4g  (%+.1f%%)%s\n",
                      bench.c_str(), ma[i].first.c_str(), ma[i].second,
                      mb[i].second, d, reg ? "  REGRESSION" : "");
          if (d > threshold) ++over;
          if (reg) ++regressed;
        }
      }
    }
  }
  if (fail_pct >= 0.0) {
    std::printf(
        "runner: compared %d metric(s), %d past the %.1f%% threshold, "
        "%d regression(s) past %.1f%%, %d changed decision log(s)\n",
        compared, over, threshold, regressed, fail_pct, changed_logs);
    return regressed == 0 && changed_logs == 0 ? 0 : 1;
  }
  std::printf(
      "runner: compared %d shape metric(s), %d past the %.1f%% threshold, "
      "%d changed decision log(s)\n",
      compared, over, threshold, changed_logs);
  return over == 0 && changed_logs == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  cool::util::Options opt(
      "runner", "execute the bench fleet, validate/collect/diff its records");
  opt.add_flag("quick",
               "shrunk problem sizes; then check the claims table and a "
               "passive re-run of every simulated bench");
  opt.add_flag("list", "print the fleet and per-mode arguments");
  opt.add_flag("compare", "diff two record directories (args: OLD NEW)");
  opt.add_string("out", ".", "directory for the BENCH_*.json records");
  opt.add_string("bin-dir", "", "bench binary directory (default: argv[0]'s)");
  opt.add_double("threshold", 5.0, "compare: flag shape changes beyond this %");
  opt.add_double("fail-on-regression", -1.0,
                 "compare: exit non-zero only for direction-aware regressions "
                 "beyond this % (negative disables)");

  // Allow the two positional directories of --compare before parse() sees
  // them (Options rejects non-option arguments).
  std::vector<char*> args;
  std::vector<std::string> positional;
  args.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (argv[i][0] != '-') {
      positional.emplace_back(argv[i]);
    } else {
      args.push_back(argv[i]);
    }
  }
  if (!opt.parse(static_cast<int>(args.size()), args.data())) return 0;

  if (opt.flag("list")) {
    for (const Bench& b : kFleet) {
      std::printf("%-28s quick: %s\n", b.name, b.quick_args);
    }
    return 0;
  }

  if (opt.flag("compare")) {
    if (positional.size() != 2) {
      std::fprintf(stderr, "runner: --compare needs OLD and NEW directories\n");
      return 2;
    }
    return compare_runs(positional[0], positional[1],
                        opt.get_double("threshold"),
                        opt.get_double("fail-on-regression"));
  }

  std::string bin_dir = opt.get_string("bin-dir");
  if (bin_dir.empty()) {
    bin_dir = fs::path(argv[0]).parent_path().string();
    if (bin_dir.empty()) bin_dir = ".";
  }
  return run_fleet(bin_dir, opt.get_string("out"), opt.flag("quick"));
}
