// Minimal command-line option parser for the benchmark and example binaries.
//
// Supports `--name=value`, `--name value`, and boolean `--flag` forms, with
// typed accessors and automatic `--help` text. Unknown options are an error so
// typos in experiment sweeps fail loudly instead of silently running the
// default configuration.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace cool::util {

class Options {
 public:
  Options(std::string program, std::string description);

  /// Declare options before parse().
  void add_flag(const std::string& name, const std::string& help);
  /// An integer option; parse() rejects a value outside [min, max].
  void add_int(const std::string& name, std::int64_t default_value,
               const std::string& help,
               std::int64_t min = std::numeric_limits<std::int64_t>::min(),
               std::int64_t max = std::numeric_limits<std::int64_t>::max());
  void add_double(const std::string& name, double default_value,
                  const std::string& help);
  void add_string(const std::string& name, const std::string& default_value,
                  const std::string& help);
  /// A string option that may also be given bare: `--name` keeps the value
  /// empty (but marks the option as given — see given()), `--name=v` sets v.
  /// Unlike other non-flag options, a bare `--name` never consumes the next
  /// argv element.
  void add_optional_string(const std::string& name, const std::string& help);

  /// Parses argv. Returns false (after printing usage) if --help was given.
  /// Throws cool::util::Error on unknown options or malformed values.
  bool parse(int argc, char** argv);

  [[nodiscard]] bool flag(const std::string& name) const;
  [[nodiscard]] std::int64_t get_int(const std::string& name) const;
  [[nodiscard]] double get_double(const std::string& name) const;
  [[nodiscard]] const std::string& get_string(const std::string& name) const;
  /// Whether the option appeared on the command line at all (any kind).
  [[nodiscard]] bool given(const std::string& name) const;

  [[nodiscard]] std::string usage() const;

  /// The program name this option set was declared for.
  [[nodiscard]] const std::string& program() const noexcept { return program_; }

  /// One declared option's current (post-parse) value, for machine-readable
  /// config capture. `kind` is 'f'lag, 'i'nt, 'd'ouble, or 's'tring; `value`
  /// is the canonical text form ("true"/"false" for flags).
  struct NamedValue {
    std::string name;
    char kind;
    std::string value;
  };
  /// Every declared option with its effective value, in name order.
  [[nodiscard]] std::vector<NamedValue> snapshot_values() const;

 private:
  enum class Kind { kFlag, kInt, kDouble, kString, kOptString };
  struct Spec {
    Kind kind;
    std::string help;
    std::string default_text;
    bool set = false;
    bool flag_value = false;
    std::int64_t int_value = 0;
    std::int64_t int_min = 0;  ///< Inclusive range of an int option.
    std::int64_t int_max = 0;
    double double_value = 0.0;
    std::string string_value;
  };

  Spec& lookup(const std::string& name, Kind kind);
  const Spec& lookup(const std::string& name, Kind kind) const;
  void assign(const std::string& name, const std::string& value);

  std::string program_;
  std::string description_;
  std::map<std::string, Spec> specs_;
};

}  // namespace cool::util
