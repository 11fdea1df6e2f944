// bench/runner — the quick smoke fleet, and the exact gate on default-size
// records.
//
//   runner [--out=DIR]
//       Run every bench of kFleet at a shrunk size. Each prints its text and
//       writes its record to DIR/BENCH_<name>.json (--json-out), which must
//       be a valid cool-bench/1 record. Each simulated bench then runs again
//       with kPassiveFlags into DIR/rerun/, and that record's series, shape
//       and adaptation must equal the first one's, and its obs must hold
//       every obs value and histogram of the first one unchanged (the
//       observers may add obs keys). Last, every row of kClaims must hold.
//       Exits non-zero if any of this fails.
//   runner --list
//       Print the fleet with each bench's arguments.
//   runner --compare OLD NEW
//       OLD and NEW are directories of default-size records, such as
//       bench/baseline/ and the output of the bench_passive_runs ctest. Every
//       OLD record must exist in NEW and equal it apart from git_sha; each
//       JSON path at which they differ prints with both values. Then every
//       row of kPaperClaims must hold on NEW's records. Exits non-zero if
//       either fails.
//
// The bench binaries are expected next to the runner (the build drops
// everything into build/bench/), overridable with --bin-dir.
#include <sys/wait.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <span>
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
  const char* args;
};

// Shrunk problems keep every bench under a few seconds while still
// exercising the full pipeline (multiple processor counts, all variants).
constexpr std::array<Bench, 21> kFleet{{
    {"tab01_affinity_hints", "--procs=8 --objects=32 --obj-kb=16 --tasks-per-obj=4"},
    {"fig03_gauss_affinity", "--max-procs=8 --n=64"},
    {"fig06_ocean_speedup", "--max-procs=8 --n=64 --grids=2 --steps=2"},
    {"fig07_ocean_misses", "--procs=8 --n=64 --grids=2 --steps=2"},
    {"fig10_locusroute_speedup", "--max-procs=8 --wires-per-region=16 --iterations=2"},
    {"fig11_locusroute_misses", "--procs=8 --wires-per-region=16 --iterations=2"},
    {"fig14_panel_speedup", "--max-procs=8 --panels=48"},
    {"fig15_panel_misses", "--procs=8 --panels=48"},
    {"fig16_barneshut", "--max-procs=8 --bodies=512 --steps=1"},
    {"fig16_blockcholesky", "--max-procs=8 --blocks=8 --block-size=12"},
    {"abl_queue_array", "--procs=8 --objects=32 --obj-kb=16 --tasks-per-obj=4"},
    {"abl_steal_policy", "--procs=8 --panels=48"},
    {"abl_region_size", "--procs=8 --total-wires=512 --total-width=512"},
    {"abl_multi_object", "--procs=8 --pairs=16 --tasks-per-pair=2"},
    {"abl_latency_ratio", "--procs=8 --n=64 --grids=2 --steps=2"},
    {"abl_adaptive", "--procs=8 --quick"},
    {"abl_balancer", "--procs=8 --quick"},
    {"srv_txn_latency", "--procs=8 --quick --req-trace"},
    {"abl_srv_skew", "--procs=8 --quick --req-trace"},
    {"abl_mem_channel", "--procs=8 --quick"},
    {"micro_sched_throughput", "--max-threads=4 --tasks=20000 --warmup=0"},
}};

/// Observers that must not move a simulated number. The passive re-run adds
/// each one whose option the bench's args do not already set. micro_*
/// benches time real threads, so they are not re-run.
constexpr const char* kPassiveFlags[] = {"--req-trace", "--mem-backend=flat",
                                         "--profile"};

/// A claim operand: a constant; a number in the record's `shape` or
/// `obs.values`; a count of the entries of its `adaptation` log or `series`
/// rows whose `key` field starts with `match` (and, if `col` is set, whose
/// `col` field is not 0); or the `col` cell of the first `series` row whose
/// `key` column equals `match`.
struct Ref {
  enum Kind : std::uint8_t { kConst, kValue, kCount, kCell } kind;
  const char* in = "";  ///< "shape" or "obs"; "adaptation" or "series"
  const char* key = "";
  const char* match = "";
  const char* col = "";
  double num = 0.0;
};
constexpr Ref num(double v) { return {Ref::kConst, "", "", "", "", v}; }
constexpr Ref shape(const char* key) { return {Ref::kValue, "shape", key}; }
constexpr Ref obs(const char* key) { return {Ref::kValue, "obs", key}; }
constexpr Ref count(const char* in, const char* key, const char* match,
                    const char* col = "") {
  return {Ref::kCount, in, key, match, col};
}
constexpr Ref cell(const char* key, const char* match, const char* col) {
  return {Ref::kCell, "series", key, match, col};
}

struct Claim {
  const char* bench;
  Ref value;
  const char* op;  ///< ">", ">=", "<", "<=" or "=="
  Ref bound;
};

// The headline results of the quick fleet's records. Bounds are the ones
// each result was accepted with. To add a claim, add a row.
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

// The paper's claims, one row per claim of EXPERIMENTS.md's figure and table
// sections, checked on the default-size records by --compare. Each bound
// states the direction of the paper's claim, with a margin where a ratio
// or percentage carries one ("beats" means by at least 10%); none pins
// today's number. Quick sizes cannot stand in: fig14's best affinity version
// is 3.6% slower than Base at --quick.
constexpr Claim kPaperClaims[] = {
    // Table 1: TASK+OBJECT takes the fewest cycles of all hints.
    {"tab01_affinity_hints", cell("hint", "TASK+OBJECT", "cycles(K)"), "<",
     cell("hint", "(no hint)", "cycles(K)")},
    {"tab01_affinity_hints", cell("hint", "TASK+OBJECT", "cycles(K)"), "<",
     cell("hint", "affinity(obj)", "cycles(K)")},
    {"tab01_affinity_hints", cell("hint", "TASK+OBJECT", "cycles(K)"), "<",
     cell("hint", "affinity(obj,TASK)", "cycles(K)")},
    {"tab01_affinity_hints", cell("hint", "TASK+OBJECT", "cycles(K)"), "<",
     cell("hint", "affinity(obj,OBJECT)", "cycles(K)")},
    {"tab01_affinity_hints", cell("hint", "TASK+OBJECT", "cycles(K)"), "<",
     cell("hint", "affinity(n,PROCESSOR)", "cycles(K)")},
    // Figure 3: the hints beat Base at P=32, with fewer misses.
    {"fig03_gauss_affinity", shape("task_object_over_base_pct"), ">=",
     num(10)},
    {"fig03_gauss_affinity", cell("version", "Task+ObjectAff", "misses(K)"),
     "<", cell("version", "Base", "misses(K)")},
    // Figure 6: Distr+Aff > Distr > Base at P=32.
    {"fig06_ocean_speedup", cell("P", "32", "Distr+Aff"), ">",
     cell("P", "32", "Distr")},
    {"fig06_ocean_speedup", cell("P", "32", "Distr"), ">",
     cell("P", "32", "Base")},
    // Figure 7: Distr+Aff services more misses locally than Base, with no
    // more misses (the paper's Base misses more).
    {"fig07_ocean_misses", shape("distr_aff_local_pct"), ">",
     shape("base_local_pct")},
    {"fig07_ocean_misses", cell("version", "Distr+Aff", "misses(K)"), "<=",
     cell("version", "Base", "misses(K)")},
    // Figure 10: Affinity+ObjDistr > Affinity > Base at P=32, and over 80%
    // of wires route on their region's processor.
    {"fig10_locusroute_speedup", cell("P", "32", "Affinity+ObjDistr"), ">",
     cell("P", "32", "Affinity")},
    {"fig10_locusroute_speedup", cell("P", "32", "Affinity"), ">",
     cell("P", "32", "Base")},
    {"fig10_locusroute_speedup", cell("P", "32", "region-adherence%"), ">=",
     num(80)},
    // Figure 11: affinity nearly halves the misses (the paper's ~2x), and
    // distribution raises local service without raising them.
    {"fig11_locusroute_misses", shape("base_over_affinity_miss_ratio"), ">=",
     num(1.5)},
    {"fig11_locusroute_misses", shape("distr_local_pct"), ">",
     shape("affinity_local_pct")},
    {"fig11_locusroute_misses", shape("distr_over_affinity_miss_ratio"), "<=",
     num(1.1)},
    // Figure 14: the best affinity version beats Base at P=32, and
    // cluster-restricted stealing is the best column at P=8.
    {"fig14_panel_speedup", shape("best_affinity_over_base_pct"), ">=",
     num(10)},
    {"fig14_panel_speedup", cell("P", "8", "Distr+Aff+Cluster"), ">",
     cell("P", "8", "Base")},
    {"fig14_panel_speedup", cell("P", "8", "Distr+Aff+Cluster"), ">",
     cell("P", "8", "Distr")},
    {"fig14_panel_speedup", cell("P", "8", "Distr+Aff+Cluster"), ">",
     cell("P", "8", "Distr+Aff")},
    // Figure 15: Distr leaves the miss count within 10% of Base's; affinity
    // cuts misses and raises local service.
    {"fig15_panel_misses", shape("distr_over_base_miss_ratio"), ">=",
     num(0.9)},
    {"fig15_panel_misses", shape("distr_over_base_miss_ratio"), "<=",
     num(1.1)},
    {"fig15_panel_misses", shape("distr_over_aff_miss_ratio"), ">=",
     num(1.25)},
    {"fig15_panel_misses", shape("aff_local_pct"), ">",
     shape("distr_local_pct")},
    // Figure 16: Distr+Aff beats Base at P=32 on both codes.
    {"fig16_barneshut", shape("distr_aff_over_base_pct"), ">=", num(10)},
    {"fig16_blockcholesky", shape("distr_aff_over_base_pct"), ">=", num(10)},
};

using Records = std::map<std::string, Value, std::less<>>;

/// Run `cmd` with the runner's stdout. Returns "" when it exits 0, else how
/// it ended ("exit status 1", "killed by signal 11 (Segmentation fault)").
std::string run(const std::string& cmd) {
  std::printf("runner: %s\n", cmd.c_str());
  std::fflush(stdout);
  // exec: the shell must not outlive the child and report a fatal signal
  // as its own exit status 128+N.
  const int status = std::system(("exec " + cmd).c_str());
  if (status == -1) return std::string("system: ") + std::strerror(errno);
  if (WIFSIGNALED(status)) {
    const int sig = WTERMSIG(status);
    // system() ignores Ctrl-C and Ctrl-\ while the child runs; when they
    // killed the child, they stop the runner too.
    if (sig == SIGINT || sig == SIGQUIT) {
      std::signal(sig, SIG_DFL);
      std::raise(sig);
    }
    return "killed by signal " + std::to_string(sig) + " (" +
           ::strsignal(sig) + ")";
  }
  if (WEXITSTATUS(status) != 0) {
    return "exit status " + std::to_string(WEXITSTATUS(status));
  }
  return "";
}

/// Parse and validate the record at `path` into `v`. Returns why it failed,
/// or "".
std::string load_record(const fs::path& path, Value& v) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return "cannot read " + path.string();
  std::string text;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  std::fclose(f);
  std::string err;
  if (!cool::obs::json::parse(text, v, &err)) err = "invalid JSON: " + err;
  if (err.empty()) err = cool::obs::validate_bench_record(v);
  return err.empty() ? "" : path.string() + ": " + err;
}

/// The records BENCH_<name>.json in `dir`, by <name>. Prints each one that
/// does not load and counts it in `bad`.
Records load_dir(const std::string& dir, int& bad) {
  Records out;
  std::error_code ec;
  for (const auto& e : fs::directory_iterator(dir, ec)) {
    const std::string fn = e.path().filename().string();
    if (!fn.starts_with("BENCH_") || e.path().extension() != ".json") continue;
    Value v;
    const std::string why = load_record(e.path(), v);
    if (!why.empty()) {
      std::fprintf(stderr, "runner: %s\n", why.c_str());
      ++bad;
      continue;
    }
    out.emplace(fn.substr(6, fn.size() - 11), std::move(v));
  }
  return out;
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

/// A value as a difference prints it; containers print only their kind.
std::string text(const Value* v) {
  if (v == nullptr) return "(absent)";
  switch (v->kind) {
    case Value::Kind::kBool:
      return v->boolean ? "true" : "false";
    case Value::Kind::kNumber:
      return cool::obs::json::number(v->num);
    case Value::Kind::kString:
      return '"' + v->str + '"';
    case Value::Kind::kArray:
      return "[...]";
    case Value::Kind::kObject:
      return "{...}";
    default:
      return "null";
  }
}

/// Print each JSON path below `path` at which `b` differs from `a`, as
/// "<what>: <path>: <a> -> <b>", and return how many there are. An array
/// whose length changed prints that, then its common prefix. With
/// `added_ok`, an object key that only `b` has is no difference.
int diff(const std::string& what, const std::string& path, const Value* a,
         const Value* b, bool added_ok) {
  const auto differs = [&](const std::string& old_text,
                           const std::string& new_text) {
    std::printf("%s: %s: %s -> %s\n", what.c_str(), path.c_str(),
                old_text.c_str(), new_text.c_str());
    return 1;
  };
  if (a == nullptr || b == nullptr || a->kind != b->kind ||
      !(a->is_array() || a->is_object())) {
    if (a == nullptr ? added_ok || b == nullptr
                     : b != nullptr && same(*a, *b)) {
      return 0;
    }
    return differs(text(a), text(b));
  }
  int n = 0;
  if (a->is_array()) {
    if (a->arr.size() != b->arr.size()) {
      n += differs(std::to_string(a->arr.size()) + " entries",
                   std::to_string(b->arr.size()) + " entries");
    }
    for (std::size_t i = 0; i < std::min(a->arr.size(), b->arr.size()); ++i) {
      n += diff(what, path + "[" + std::to_string(i) + "]", &a->arr[i],
                &b->arr[i], added_ok);
    }
    return n;
  }
  const auto at = [&](const std::string& k) {
    return path.empty() ? k : path + "." + k;
  };
  for (const auto& [k, v] : a->obj) {
    n += diff(what, at(k), &v, b->find(k), added_ok);
  }
  for (const auto& [k, v] : b->obj) {
    if (a->find(k) == nullptr) n += diff(what, at(k), nullptr, &v, added_ok);
  }
  return n;
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
  if (r.kind == Ref::kCell) {
    const double want = std::strtod(r.match, nullptr);
    for (const Value& row : in->arr) {
      const Value* k = row.find(r.key);
      if (k == nullptr ||
          (k->is_string() ? k->str != r.match
                          : !k->is_number() || k->num != want)) {
        continue;
      }
      const Value* c = row.find(r.col);
      return c != nullptr && c->is_number() ? c->num : missing;
    }
    return missing;
  }
  double n = 0.0;
  for (const Value& e : in->arr) {
    const Value* f = e.find(r.key);
    if (f == nullptr || !f->is_string() || !f->str.starts_with(r.match)) {
      continue;
    }
    if (*r.col != '\0') {
      const Value* z = e.find(r.col);
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
/// "shape.gauss_recovered_frac = 0.5884",
/// "count(series.mem=flat*, peak-chan% != 0) = 2" or
/// "series[P=32].Distr+Aff = 15.02".
std::string describe(const Ref& r, double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.4g", v);
  if (r.kind == Ref::kConst) return buf;
  std::string s = std::string(r.in) + "." + r.key;
  if (r.kind == Ref::kCount) {
    s = "count(" + s + "=" + r.match + "*" +
        (*r.col != '\0' ? std::string(", ") + r.col + " != 0" : "") + ")";
  } else if (r.kind == Ref::kCell) {
    s = std::string(r.in) + "[" + r.key + "=" + r.match + "]." + r.col;
  }
  return s + " = " + (std::isnan(v) ? "missing" : buf);
}

/// Check every claim against its bench's record, printing each one that
/// fails (all of a bench's claims fail when it left no record). Returns the
/// number that failed.
int check_claims(std::span<const Claim> claims, const Records& records) {
  static const Value kNone;
  int failed = 0;
  for (const Claim& c : claims) {
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

/// Run `exe args` with its record going to `path`, and load that record
/// into `rec`. Returns why it failed, or "".
std::string run_bench(const std::string& exe, const std::string& args,
                      const fs::path& path, Value& rec) {
  std::error_code ec;
  fs::remove(path, ec);
  const std::string why =
      run(exe + " " + args + " --json-out=" + path.string());
  return why.empty() ? load_record(path, rec) : why;
}

int run_fleet(const std::string& bin_dir, const std::string& out_dir) {
  const fs::path rerun_dir = fs::path(out_dir) / "rerun";
  std::error_code ec;
  fs::create_directories(rerun_dir, ec);
  if (ec) {
    std::fprintf(stderr, "runner: cannot create %s: %s\n",
                 rerun_dir.c_str(), ec.message().c_str());
    return 2;
  }
  int failures = 0;
  int ran = 0;
  int reruns = 0;
  Records records;
  for (const Bench& b : kFleet) {
    const std::string exe = bin_dir + "/" + b.name;
    if (!fs::exists(exe)) {
      std::fprintf(stderr, "runner: SKIP %s (binary not found at %s)\n",
                   b.name, exe.c_str());
      ++failures;
      continue;
    }
    const std::string file = "BENCH_" + std::string(b.name) + ".json";
    std::string args = b.args;
    Value rec;
    std::string why = run_bench(exe, args, fs::path(out_dir) / file, rec);
    if (!why.empty()) {
      std::fprintf(stderr, "runner: FAIL %s (%s)\n", b.name, why.c_str());
      ++failures;
      continue;
    }
    ++ran;
    if (!std::string_view(b.name).starts_with("micro_")) {
      for (const char* flag : kPassiveFlags) {
        const std::string option(flag, std::strcspn(flag, "="));
        if (args.find(option) == std::string::npos) {
          args += std::string(" ") + flag;
        }
      }
      Value again;
      why = run_bench(exe, args, rerun_dir / file, again);
      if (why.empty()) {
        // The observers may add obs keys (obs.reqtrace.*), never change
        // one; the other parts stay exactly equal.
        int changed = 0;
        for (const char* part : {"series", "shape", "adaptation", "obs"}) {
          changed += diff(std::string(b.name) + " re-run", part,
                          rec.find(part), again.find(part),
                          std::string_view(part) == "obs");
        }
        if (changed > 0) why = std::to_string(changed) + " value(s) changed";
      }
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
  const int broken = check_claims(kClaims, records);
  failures += broken;
  std::printf(
      "runner: %d record(s) written to %s, %d identical passive re-run(s), "
      "%d claim(s) hold, %d failure(s)\n",
      ran, out_dir.c_str(), reruns,
      static_cast<int>(std::size(kClaims)) - broken, failures);
  return failures == 0 && ran > 0 ? 0 : 1;
}

int compare_runs(const std::string& old_dir, const std::string& new_dir) {
  int bad = 0;
  Records olds = load_dir(old_dir, bad);
  if (olds.empty()) {
    std::fprintf(stderr, "runner: no BENCH_*.json records in %s\n",
                 old_dir.c_str());
    return 2;
  }
  Records news = load_dir(new_dir, bad);
  int differ = 0;
  int missing = 0;
  for (auto& [name, a] : olds) {
    const std::string file = "BENCH_" + name + ".json";
    const auto it = news.find(name);
    if (it == news.end()) {
      std::printf("%s: missing from %s\n", file.c_str(), new_dir.c_str());
      ++missing;
      continue;
    }
    a.obj.erase("git_sha");
    it->second.obj.erase("git_sha");
    if (diff(file, "", &a, &it->second, false) > 0) ++differ;
  }
  const int broken = check_claims(kPaperClaims, news);
  std::printf(
      "runner: %zu record(s) compared, %d differ, %d missing, %d unreadable; "
      "%d of %zu paper claim(s) hold\n",
      olds.size(), differ, missing, bad,
      static_cast<int>(std::size(kPaperClaims)) - broken,
      std::size(kPaperClaims));
  return differ + missing + bad + broken == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  cool::util::Options opt(
      "runner", "run the quick bench fleet, or compare record directories");
  opt.add_flag("list", "print the fleet and each bench's arguments");
  opt.add_flag("compare",
               "compare two directories of default-size records (args: OLD "
               "NEW)");
  opt.add_string("out", ".", "directory for the BENCH_*.json records");
  opt.add_string("bin-dir", "", "bench binary directory (default: argv[0]'s)");

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
    for (const Bench& b : kFleet) std::printf("%-28s %s\n", b.name, b.args);
    return 0;
  }

  if (opt.flag("compare")) {
    if (positional.size() != 2) {
      std::fprintf(stderr, "runner: --compare needs OLD and NEW directories\n");
      return 2;
    }
    return compare_runs(positional[0], positional[1]);
  }

  std::string bin_dir = opt.get_string("bin-dir");
  if (bin_dir.empty()) {
    bin_dir = fs::path(argv[0]).parent_path().string();
    if (bin_dir.empty()) bin_dir = ".";
  }
  return run_fleet(bin_dir, opt.get_string("out"));
}
