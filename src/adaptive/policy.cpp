#include "adaptive/policy.hpp"

#include <fstream>
#include <limits>
#include <sstream>

#include "common/error.hpp"
#include "obs/json.hpp"

namespace cool::adaptive {
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
    if (key == "epoch_tasks") {
      p.epoch_tasks = as_u64(v, key);
    } else if (key == "epoch_cycles") {
      p.epoch_cycles = as_u64(v, key);
    } else if (key == "cooldown_epochs") {
      p.cooldown_epochs = as_u32(v, key);
    } else if (key == "max_actions_per_epoch") {
      p.max_actions_per_epoch = as_u32(v, key);
    } else if (key == "enable_balancer") {
      p.enable_balancer = as_bool(v, key);
    } else if (key == "latency_target_cycles") {
      p.latency_target_cycles = as_u64(v, key);
    } else if (key == "bandwidth_saturation_frac") {
      p.bandwidth_saturation_frac = as_double(v, key);
    } else if (key == "balancer_dwell_epochs") {
      p.balancer_dwell_epochs = as_u32(v, key);
    } else {
      throw util::Error("adapt policy: unknown key '" + key + "'");
    }
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
