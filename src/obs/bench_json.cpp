#include "obs/bench_json.hpp"

#include <cstdio>
#include <cstdlib>

namespace cool::obs {

namespace {

/// True when `s` parses fully as a finite double (so table cells like "1.74"
/// become JSON numbers while "Distr+Aff" stays a string).
bool parse_number(const std::string& s, double& out) {
  if (s.empty()) return false;
  char* end = nullptr;
  out = std::strtod(s.c_str(), &end);
  return end == s.c_str() + s.size();
}

}  // namespace

BenchRecord::BenchRecord(std::string bench_name) : name_(std::move(bench_name)) {
#ifdef COOL_GIT_SHA
  git_sha_ = COOL_GIT_SHA;
#else
  git_sha_ = "unknown";
#endif
}

void BenchRecord::set_config(const util::Options& opt) {
  for (const auto& nv : opt.snapshot_values()) {
    // Where the record goes is not an input of the run it describes.
    if (nv.name == "json-out") continue;
    config_.push_back(ConfigEntry{nv.name, nv.kind, nv.value});
  }
}

void BenchRecord::add_series(const util::Table& t) {
  const auto& cols = t.headers();
  for (const auto& row : t.rows_data()) {
    std::vector<std::pair<std::string, std::string>> r;
    r.reserve(row.size());
    for (std::size_t c = 0; c < row.size() && c < cols.size(); ++c) {
      r.emplace_back(cols[c], row[c]);
    }
    rows_.push_back(std::move(r));
  }
}

void BenchRecord::add_shape(const std::string& key, double value) {
  shape_.emplace_back(key, value);
}

void BenchRecord::set_obs(const Snapshot& snap) { obs_json_ = snap.to_json(); }

void BenchRecord::set_profile(std::string snapshot_json,
                              std::string advice_json_arr) {
  profile_json_ = std::move(snapshot_json);
  advice_json_ = std::move(advice_json_arr);
}

void BenchRecord::set_adaptation(std::string decisions_json_arr) {
  adaptation_json_ = std::move(decisions_json_arr);
}

std::string BenchRecord::to_json() const {
  json::Writer w;
  w.begin_object();
  w.key("schema").string(kBenchSchema);
  w.key("bench").string(name_);
  w.key("git_sha").string(git_sha_);
  w.key("config").begin_object();
  for (const auto& e : config_) {
    w.key(e.key);
    switch (e.kind) {
      case 'f':
        w.bool_value(e.value == "true");
        break;
      case 'i':
      case 'd': {
        double d = 0.0;
        if (parse_number(e.value, d)) {
          w.number_value(d);
        } else {
          w.string(e.value);
        }
        break;
      }
      default:
        w.string(e.value);
    }
  }
  w.end_object();
  w.key("series").begin_array();
  for (const auto& row : rows_) {
    w.begin_object();
    for (const auto& [col, cell] : row) {
      w.key(col);
      double d = 0.0;
      if (parse_number(cell, d)) {
        w.number_value(d);
      } else {
        w.string(cell);
      }
    }
    w.end_object();
  }
  w.end_array();
  w.key("shape").begin_object();
  for (const auto& [k, v] : shape_) w.key(k).number_value(v);
  w.end_object();
  if (!obs_json_.empty()) {
    w.key("obs").raw(obs_json_);
  }
  if (!profile_json_.empty()) {
    w.key("profile").begin_object();
    w.key("snapshot").raw(profile_json_);
    if (!advice_json_.empty()) w.key("advice").raw(advice_json_);
    w.end_object();
  }
  if (!adaptation_json_.empty()) {
    w.key("adaptation").raw(adaptation_json_);
  }
  w.end_object();
  return w.str();
}

std::string BenchRecord::file_name() const { return "BENCH_" + name_ + ".json"; }

bool BenchRecord::write_to(const std::string& dir) const {
  std::string path;
  if (dir.size() > 5 && dir.compare(dir.size() - 5, 5, ".json") == 0) {
    path = dir;
  } else {
    path = dir.empty() ? file_name() : dir + "/" + file_name();
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string text = to_json();
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size() &&
                  std::fputc('\n', f) != EOF;
  std::fclose(f);
  return ok;
}

// --- Validation --------------------------------------------------------------

std::string validate_bench_record(const json::Value& v) {
  if (!v.is_object()) return "record is not a JSON object";
  const json::Value* schema = v.find("schema");
  if (schema == nullptr || !schema->is_string()) {
    return "missing string field 'schema'";
  }
  if (schema->str != kBenchSchema) {
    return "unsupported schema '" + schema->str + "' (want '" +
           std::string(kBenchSchema) + "')";
  }
  const json::Value* bench = v.find("bench");
  if (bench == nullptr || !bench->is_string() || bench->str.empty()) {
    return "missing non-empty string field 'bench'";
  }
  const json::Value* sha = v.find("git_sha");
  if (sha == nullptr || !sha->is_string()) {
    return "missing string field 'git_sha'";
  }
  const json::Value* config = v.find("config");
  if (config == nullptr || !config->is_object()) {
    return "missing object field 'config'";
  }
  const json::Value* series = v.find("series");
  if (series == nullptr || !series->is_array()) {
    return "missing array field 'series'";
  }
  for (std::size_t i = 0; i < series->arr.size(); ++i) {
    if (!series->arr[i].is_object()) {
      return "series[" + std::to_string(i) + "] is not an object";
    }
  }
  const json::Value* shape = v.find("shape");
  if (shape == nullptr || !shape->is_object()) {
    return "missing object field 'shape'";
  }
  for (const auto& [k, sv] : shape->obj) {
    if (!sv.is_number() && !sv.is_null()) {
      return "shape." + k + " is not a number";
    }
  }
  const json::Value* obs = v.find("obs");
  if (obs != nullptr) {
    if (!obs->is_object()) return "'obs' is not an object";
    const json::Value* values = obs->find("values");
    if (values == nullptr || !values->is_object()) {
      return "obs.values missing or not an object";
    }
    const json::Value* hists = obs->find("hists");
    if (hists == nullptr || !hists->is_object()) {
      return "obs.hists missing or not an object";
    }
  }
  const json::Value* profile = v.find("profile");
  if (profile != nullptr) {
    if (!profile->is_object()) return "'profile' is not an object";
    const json::Value* snap = profile->find("snapshot");
    if (snap == nullptr || !snap->is_object()) {
      return "profile.snapshot missing or not an object";
    }
    const json::Value* objects = snap->find("objects");
    if (objects == nullptr || !objects->is_array()) {
      return "profile.snapshot.objects missing or not an array";
    }
    const json::Value* advice = profile->find("advice");
    if (advice != nullptr && !advice->is_array()) {
      return "profile.advice is not an array";
    }
  }
  const json::Value* adaptation = v.find("adaptation");
  if (adaptation != nullptr) {
    if (!adaptation->is_array()) return "'adaptation' is not an array";
    for (std::size_t i = 0; i < adaptation->arr.size(); ++i) {
      if (!adaptation->arr[i].is_object()) {
        return "adaptation[" + std::to_string(i) + "] is not an object";
      }
    }
  }
  return "";
}

std::string validate_bench_json(const std::string& text) {
  json::Value v;
  std::string err;
  if (!json::parse(text, v, &err)) return "invalid JSON: " + err;
  return validate_bench_record(v);
}

}  // namespace cool::obs
