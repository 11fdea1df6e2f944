// perfbench — host-time benchmark of the dashsim library.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--refs FILE] [--trace-out FILE] [--tiny] [--emit-reference]
//
// --trace 0 repeats the workload's op list for about S seconds and prints the
// end-to-end metrics (medians over the passes); --trace 1 runs the op list
// once more slowly, timing every layer from outside (see traced.cpp). Every
// op is checked: application validation, plus the stored reference digest
// for (workload, seed, op) when --refs has one, or else agreement between
// passes. The last line of standard output is one JSON object.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "ops.hpp"
#include "report.hpp"
#include "traced.hpp"

namespace perfbench {
namespace {

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--refs FILE] [--trace-out FILE] "
               "[--tiny] [--emit-reference] [--race-slice N]\n",
               msg);
  return 2;
}

bool parse(int argc, char** argv, Args& a, std::string& err) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--tiny") {
      a.tiny = true;
      continue;
    }
    if (k == "--emit-reference") {
      a.emit_reference = true;
      continue;
    }
    if (i + 1 >= argc) {
      err = "missing value for " + k;
      return false;
    }
    const std::string v = argv[++i];
    try {
      if (k == "--workload") {
        a.workload = v;
      } else if (k == "--seed") {
        a.seed = std::stoull(v);
      } else if (k == "--seconds") {
        a.seconds = std::stod(v);
      } else if (k == "--trace") {
        a.trace = std::stoi(v) != 0;
      } else if (k == "--refs") {
        a.refs = v;
      } else if (k == "--trace-out") {
        a.trace_out = v;
      } else if (k == "--race-slice") {
        a.race_slice = std::stoull(v);
      } else {
        err = "unknown option " + k;
        return false;
      }
    } catch (const std::exception&) {
      err = "bad value '" + v + "' for " + k;
      return false;
    }
  }
  return true;
}

/// One reference line per op of a single pass, for perfbench/reference.txt.
int emit_reference(const Args& a) {
  const Workload w = make_workload(a.workload, a.seed, a.tiny);
  std::vector<OpOutcome> done;
  for (std::size_t i = 0; i < w.ops.size(); ++i) {
    done.push_back(run_op(resolve(w.ops[i], done)));
    std::printf("%s\n", References::line(w.name, a.seed, i, w.ops[i].name,
                                         done.back())
                            .c_str());
  }
  return 0;
}

/// Extra Runtime constructions per op and pass, outside the timed pass: the
/// constructor takes milliseconds, so setup_s takes the median of several.
constexpr int kExtraSetups = 4;

int run_end_to_end(const Args& a) {
  const Workload w = make_workload(a.workload, a.seed, a.tiny);
  OpChecker checker(w, a);
  std::vector<double> walls;
  std::vector<double> setups;
  std::uint64_t refs_per_pass = 0;
  const Clock::time_point t0 = Clock::now();
  for (;;) {
    std::vector<OpOutcome> done;
    std::vector<double> ctor(w.ops.size());
    std::uint64_t refs = 0;
    const Clock::time_point start = Clock::now();
    for (std::size_t i = 0; i < w.ops.size(); ++i) {
      OpTimes t;
      OpOutcome out;
      if (checker.run(i, done, out, &t)) {
        ctor[i] = seconds_between(t.start, t.built);
        refs += out.line_refs;
      }
      done.push_back(std::move(out));
    }
    walls.push_back(seconds_between(start, Clock::now()));
    refs_per_pass = refs;

    double setup = 0.0;
    for (std::size_t i = 0; i < w.ops.size(); ++i) {
      std::vector<double> samples = {ctor[i]};
      for (int k = 0; k < kExtraSetups; ++k) {
        const Clock::time_point c0 = Clock::now();
        const cool::Runtime rt(w.ops[i].sys);
        samples.push_back(seconds_between(c0, Clock::now()));
      }
      setup += median(samples);
    }
    setups.push_back(setup);
    const double wall = median(walls);
    if (walls.size() >= 3 &&
        seconds_between(t0, Clock::now()) + wall > a.seconds) {
      break;
    }
  }
  const double wall = median(walls);
  Metrics m;
  m.add("wall_s", wall, "s");
  m.add("setup_s", median(setups), "s");
  m.add("line_refs_per_s", static_cast<double>(refs_per_pass) / wall, "1/s");
  m.add("peak_rss_mb", peak_rss_mb(), "MB");
  std::printf("workload %s seed %llu passes %zu\n", w.name.c_str(),
              static_cast<unsigned long long>(a.seed), walls.size());
  std::fprintf(stderr, "pass wall_s:");
  for (const double x : walls) std::fprintf(stderr, " %.4f", x);
  std::fprintf(stderr, "\n");
  return checker.finish(m);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args a;
  std::string err;
  if (!parse(argc, argv, a, err)) return usage(err.c_str());
  if (a.race_slice > 0) return run_race_slice(a);
  if (a.workload.empty()) return usage("--workload is required");
  const std::vector<std::string>& names = workload_names();
  if (std::find(names.begin(), names.end(), a.workload) == names.end()) {
    return usage(("unknown workload '" + a.workload + "'").c_str());
  }
  try {
    if (a.emit_reference) return emit_reference(a);
    return a.trace ? run_traced(a) : run_end_to_end(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
