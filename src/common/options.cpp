#include "common/options.hpp"

#include <cstdio>
#include <cstdlib>

#include "common/error.hpp"

namespace cool::util {

Options::Options(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

void Options::add_flag(const std::string& name, const std::string& help) {
  Spec s;
  s.kind = Kind::kFlag;
  s.help = help;
  s.default_text = "false";
  specs_.emplace(name, std::move(s));
}

void Options::add_int(const std::string& name, std::int64_t default_value,
                      const std::string& help, std::int64_t min,
                      std::int64_t max) {
  Spec s;
  s.kind = Kind::kInt;
  s.help = help;
  s.int_value = default_value;
  s.int_min = min;
  s.int_max = max;
  s.default_text = std::to_string(default_value);
  specs_.emplace(name, std::move(s));
}

void Options::add_double(const std::string& name, double default_value,
                         const std::string& help) {
  Spec s;
  s.kind = Kind::kDouble;
  s.help = help;
  s.double_value = default_value;
  s.default_text = std::to_string(default_value);
  specs_.emplace(name, std::move(s));
}

void Options::add_string(const std::string& name,
                         const std::string& default_value,
                         const std::string& help) {
  Spec s;
  s.kind = Kind::kString;
  s.help = help;
  s.string_value = default_value;
  s.default_text = default_value.empty() ? "\"\"" : default_value;
  specs_.emplace(name, std::move(s));
}

void Options::add_optional_string(const std::string& name,
                                  const std::string& help) {
  Spec s;
  s.kind = Kind::kOptString;
  s.help = help;
  s.default_text = "unset";
  specs_.emplace(name, std::move(s));
}

Options::Spec& Options::lookup(const std::string& name, Kind kind) {
  auto it = specs_.find(name);
  COOL_CHECK(it != specs_.end(), "unknown option --" + name);
  // get_string serves both string kinds.
  const bool ok = it->second.kind == kind ||
                  (kind == Kind::kString && it->second.kind == Kind::kOptString);
  COOL_CHECK(ok, "option --" + name + " has another type");
  return it->second;
}

const Options::Spec& Options::lookup(const std::string& name, Kind kind) const {
  return const_cast<Options*>(this)->lookup(name, kind);
}

void Options::assign(const std::string& name, const std::string& value) {
  auto it = specs_.find(name);
  COOL_CHECK(it != specs_.end(), "unknown option --" + name);
  Spec& s = it->second;
  s.set = true;
  char* end = nullptr;
  switch (s.kind) {
    case Kind::kFlag:
      COOL_CHECK(value == "true" || value == "false" || value.empty(),
                 "flag --" + name + " takes no value (or true/false)");
      s.flag_value = value != "false";
      break;
    case Kind::kInt:
      s.int_value = std::strtoll(value.c_str(), &end, 10);
      COOL_CHECK(end != nullptr && *end == '\0' && !value.empty(),
                 "option --" + name + " expects an integer, got '" + value + "'");
      COOL_CHECK(s.int_value >= s.int_min && s.int_value <= s.int_max,
                 "option --" + name + " must be in [" +
                     std::to_string(s.int_min) + ", " +
                     std::to_string(s.int_max) + "], got '" + value + "'");
      break;
    case Kind::kDouble:
      s.double_value = std::strtod(value.c_str(), &end);
      COOL_CHECK(end != nullptr && *end == '\0' && !value.empty(),
                 "option --" + name + " expects a number, got '" + value + "'");
      break;
    case Kind::kString:
    case Kind::kOptString:
      s.string_value = value;
      break;
  }
}

bool Options::parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(usage().c_str(), stdout);
      return false;
    }
    COOL_CHECK(arg.size() > 2 && arg[0] == '-' && arg[1] == '-',
               "expected --option, got '" + arg + "'");
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      assign(arg.substr(0, eq), arg.substr(eq + 1));
      continue;
    }
    auto it = specs_.find(arg);
    COOL_CHECK(it != specs_.end(), "unknown option --" + arg);
    if (it->second.kind == Kind::kFlag) {
      assign(arg, "true");
    } else if (it->second.kind == Kind::kOptString) {
      assign(arg, "");  // bare form: given, value empty; next argv untouched
    } else {
      COOL_CHECK(i + 1 < argc, "option --" + arg + " needs a value");
      assign(arg, argv[++i]);
    }
  }
  return true;
}

bool Options::flag(const std::string& name) const {
  return lookup(name, Kind::kFlag).flag_value;
}

std::int64_t Options::get_int(const std::string& name) const {
  return lookup(name, Kind::kInt).int_value;
}

double Options::get_double(const std::string& name) const {
  return lookup(name, Kind::kDouble).double_value;
}

const std::string& Options::get_string(const std::string& name) const {
  return lookup(name, Kind::kString).string_value;
}

bool Options::given(const std::string& name) const {
  auto it = specs_.find(name);
  COOL_CHECK(it != specs_.end(), "unknown option --" + name);
  return it->second.set;
}

std::vector<Options::NamedValue> Options::snapshot_values() const {
  std::vector<NamedValue> out;
  out.reserve(specs_.size());
  for (const auto& [name, spec] : specs_) {
    NamedValue v;
    v.name = name;
    switch (spec.kind) {
      case Kind::kFlag:
        v.kind = 'f';
        v.value = spec.flag_value ? "true" : "false";
        break;
      case Kind::kInt:
        v.kind = 'i';
        v.value = std::to_string(spec.int_value);
        break;
      case Kind::kDouble: {
        v.kind = 'd';
        char buf[40];
        std::snprintf(buf, sizeof buf, "%.17g", spec.double_value);
        v.value = buf;
        break;
      }
      case Kind::kString:
      case Kind::kOptString:
        v.kind = 's';
        v.value = spec.string_value;
        break;
    }
    out.push_back(std::move(v));
  }
  return out;
}

std::string Options::usage() const {
  std::string out = program_ + " — " + description_ + "\n\noptions:\n";
  for (const auto& [name, spec] : specs_) {
    out += "  --" + name;
    if (spec.kind == Kind::kOptString) {
      out += "[=<value>]";
    } else if (spec.kind != Kind::kFlag) {
      out += "=<value>";
    }
    out += "\n      " + spec.help + " (default: " + spec.default_text + ")\n";
  }
  return out;
}

}  // namespace cool::util
