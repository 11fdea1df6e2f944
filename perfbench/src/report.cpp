#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void Metrics::add(const std::string& name, double value,
                  const std::string& unit) {
  m_.push_back({name, std::isfinite(value) ? value : 0.0, unit});
}

std::string Metrics::json() const {
  std::string s = "{";
  char buf[64];
  for (std::size_t i = 0; i < m_.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%.17g", m_[i].value);
    s += (i == 0 ? "\"" : ", \"") + m_[i].name + "\": {\"value\": " + buf +
         ", \"unit\": \"" + m_[i].unit + "\"}";
  }
  return s + "}";
}

OpChecker::OpChecker(const Workload& w, const Args& a)
    : w_(w), a_(a), refs_(a.tiny ? "" : a.refs), digests_(w.ops.size()) {}

bool OpChecker::run(std::size_t i, const std::vector<OpOutcome>& prior,
                    OpOutcome& out, OpTimes* times, OpHooks* hooks) {
  ++attempted_;
  const std::string& name = w_.ops[i].name;
  try {
    out = run_op(resolve(w_.ops[i], prior), times, hooks);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: op %zu (%s) failed: %s\n", i,
                 name.c_str(), e.what());
    ++failed_;
    out = OpOutcome{};
    return false;
  }
  std::string why;
  if (const Fields* want = refs_.find(w_.name, a_.seed, i)) {
    const std::string field = first_difference(*want, out.fields);
    if (!field.empty()) why = "differs from the stored reference at " + field;
  } else if (digests_[i].empty()) {
    // No stored reference for this seed: validation only, but print the
    // digest so two commits can be compared by eye.
    digests_[i] = out.digest;
    std::printf("digest %s seed %llu op %zu %s %s\n", w_.name.c_str(),
                static_cast<unsigned long long>(a_.seed), i, name.c_str(),
                out.digest.c_str());
  } else if (digests_[i] != out.digest) {
    why = "digest " + out.digest + " differs from the first pass's " +
          digests_[i];
  }
  if (why.empty()) return true;
  std::fprintf(stderr, "perfbench: op %zu (%s): %s\n", i, name.c_str(),
               why.c_str());
  ++failed_;
  out = OpOutcome{};
  return false;
}

void OpChecker::fail(const std::string& why) {
  std::fprintf(stderr, "perfbench: %s\n", why.c_str());
  gate_failed_ = true;
}

int OpChecker::finish(const Metrics& m) const {
  const bool correct = failed_ == 0 && !gate_failed_;
  std::printf("ops %llu\nops_failed %llu\n",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false", static_cast<unsigned long long>(attempted_),
      static_cast<unsigned long long>(failed_), m.json().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace perfbench
