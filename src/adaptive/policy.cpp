#include "adaptive/policy.hpp"

#include <fstream>
#include <limits>
#include <sstream>

#include "common/error.hpp"
#include "obs/json.hpp"

namespace cool::adaptive {

std::string AdaptPolicy::to_json() const {
  obs::json::Writer w;
  w.begin_object();
  w.key("epoch_tasks").uint_value(epoch_tasks);
  w.key("epoch_cycles").uint_value(epoch_cycles);
  w.key("confirm_epochs").uint_value(confirm_epochs);
  w.key("cooldown_epochs").uint_value(cooldown_epochs);
  w.key("max_actions_per_epoch").uint_value(max_actions_per_epoch);
  w.key("epoch_cost_cycles").uint_value(epoch_cost_cycles);
  w.key("enable_migrate").bool_value(enable_migrate);
  w.key("enable_distribute").bool_value(enable_distribute);
  w.key("enable_hints").bool_value(enable_hints);
  w.key("enable_steal_policy").bool_value(enable_steal_policy);
  w.key("enable_balancer").bool_value(enable_balancer);
  w.key("latency_target_cycles").uint_value(latency_target_cycles);
  w.key("latency_min_samples").uint_value(latency_min_samples);
  w.key("bandwidth_saturation_frac").number_value(bandwidth_saturation_frac);
  w.key("balancer_dwell_epochs").uint_value(balancer_dwell_epochs);
  w.key("balancer_max_switches").uint_value(balancer_max_switches);
  w.key("rules").begin_object();
  w.key("min_misses").uint_value(rules.min_misses);
  w.key("dominant_frac").number_value(rules.dominant_frac);
  w.key("remote_frac").number_value(rules.remote_frac);
  w.key("min_set_tasks").uint_value(rules.min_set_tasks);
  w.key("steal_fail_ratio").number_value(rules.steal_fail_ratio);
  w.key("min_failed_scans").uint_value(rules.min_failed_scans);
  w.key("idle_frac").number_value(rules.idle_frac);
  w.key("bandwidth_sat_frac").number_value(rules.bandwidth_sat_frac);
  w.end_object();
  w.end_object();
  return w.str();
}

namespace {

std::uint32_t as_u32(const obs::json::Value& v, const std::string& key) {
  return static_cast<std::uint32_t>(
      obs::json::as_uint(v, key, std::numeric_limits<std::uint32_t>::max()));
}

std::uint64_t as_u64(const obs::json::Value& v, const std::string& key) {
  return obs::json::as_uint(v, key, std::numeric_limits<std::uint64_t>::max());
}

double as_double(const obs::json::Value& v, const std::string& key) {
  if (!v.is_number()) {
    throw util::Error("adapt policy: '" + key + "' must be a number");
  }
  return v.num;
}

bool as_bool(const obs::json::Value& v, const std::string& key) {
  if (v.kind != obs::json::Value::Kind::kBool) {
    throw util::Error("adapt policy: '" + key + "' must be a boolean");
  }
  return v.boolean;
}

void apply_rules(const obs::json::Value& r, obs::AdvisorConfig& rules) {
  if (!r.is_object()) throw util::Error("adapt policy: 'rules' must be an object");
  for (const auto& [key, v] : r.obj) {
    if (key == "min_misses") rules.min_misses = as_u64(v, key);
    else if (key == "dominant_frac") rules.dominant_frac = as_double(v, key);
    else if (key == "remote_frac") rules.remote_frac = as_double(v, key);
    else if (key == "min_set_tasks") rules.min_set_tasks = as_u64(v, key);
    else if (key == "steal_fail_ratio") rules.steal_fail_ratio = as_double(v, key);
    else if (key == "min_failed_scans") rules.min_failed_scans = as_u64(v, key);
    else if (key == "idle_frac") rules.idle_frac = as_double(v, key);
    else if (key == "bandwidth_sat_frac") rules.bandwidth_sat_frac = as_double(v, key);
    else throw util::Error("adapt policy: unknown rules key '" + key + "'");
  }
}

}  // namespace

AdaptPolicy parse_adapt_policy(const std::string& json_text) {
  obs::json::Value root;
  std::string err;
  if (!obs::json::parse(json_text, root, &err)) {
    throw util::Error("adapt policy: bad JSON: " + err);
  }
  if (!root.is_object()) {
    throw util::Error("adapt policy: top level must be an object");
  }
  AdaptPolicy p;
  for (const auto& [key, v] : root.obj) {
    if (key == "epoch_tasks") p.epoch_tasks = as_u64(v, key);
    else if (key == "epoch_cycles") p.epoch_cycles = as_u64(v, key);
    else if (key == "confirm_epochs") {
      p.confirm_epochs = as_u32(v, key);
    } else if (key == "cooldown_epochs") {
      p.cooldown_epochs = as_u32(v, key);
    } else if (key == "max_actions_per_epoch") {
      p.max_actions_per_epoch = as_u32(v, key);
    } else if (key == "epoch_cost_cycles") {
      p.epoch_cost_cycles = as_u64(v, key);
    } else if (key == "enable_migrate") p.enable_migrate = as_bool(v, key);
    else if (key == "enable_distribute") p.enable_distribute = as_bool(v, key);
    else if (key == "enable_hints") p.enable_hints = as_bool(v, key);
    else if (key == "enable_steal_policy") p.enable_steal_policy = as_bool(v, key);
    else if (key == "enable_balancer") p.enable_balancer = as_bool(v, key);
    else if (key == "latency_target_cycles") {
      p.latency_target_cycles = as_u64(v, key);
    } else if (key == "latency_min_samples") {
      p.latency_min_samples = as_u64(v, key);
    } else if (key == "bandwidth_saturation_frac") {
      p.bandwidth_saturation_frac = as_double(v, key);
    } else if (key == "balancer_dwell_epochs") {
      p.balancer_dwell_epochs = as_u32(v, key);
    } else if (key == "balancer_max_switches") {
      p.balancer_max_switches = as_u32(v, key);
    } else if (key == "rules") apply_rules(v, p.rules);
    else throw util::Error("adapt policy: unknown key '" + key + "'");
  }
  if (p.epoch_tasks == 0 && p.epoch_cycles == 0) {
    throw util::Error(
        "adapt policy: epoch_tasks and epoch_cycles cannot both be 0 — the "
        "engine would never evaluate");
  }
  return p;
}

AdaptPolicy load_adapt_policy(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw util::Error("adapt policy: cannot read '" + path + "'");
  std::ostringstream ss;
  ss << in.rdbuf();
  return parse_adapt_policy(ss.str());
}

}  // namespace cool::adaptive
