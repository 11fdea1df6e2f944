// Minimal JSON support for the observability subsystem.
//
// Two halves, both deliberately tiny: a streaming Writer that builds
// syntactically valid, deterministic JSON text (object keys are emitted in
// the order the caller writes them), and a recursive-descent Value parser for
// the consumers that must read records back (bench/runner --compare, the
// golden-file tests). Neither aims to be a general JSON library — no
// surrogate-pair handling beyond pass-through, no streaming reads — but both
// round-trip everything the obs layer emits.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace cool::obs::json {

/// Escape `s` for inclusion inside a JSON string literal (no quotes added).
std::string escape(const std::string& s);

/// Render a double the way JSON expects: finite numbers with enough digits
/// to round-trip, non-finite values as null.
std::string number(double v);

/// Incremental JSON text builder. The caller is responsible for structural
/// correctness (the writer only tracks whether a comma separator is due).
///
///   Writer w;
///   w.begin_object();
///   w.key("schema").string("cool-bench/1");
///   w.key("series").begin_array();
///   ...
///   w.end_array();
///   w.end_object();
///   std::string text = w.str();
class Writer {
 public:
  Writer& begin_object();
  Writer& end_object();
  Writer& begin_array();
  Writer& end_array();
  Writer& key(const std::string& k);
  Writer& string(const std::string& v);
  Writer& number_value(double v);
  Writer& uint_value(std::uint64_t v);
  Writer& int_value(std::int64_t v);
  Writer& bool_value(bool v);
  Writer& null_value();
  /// Splice pre-rendered JSON (must itself be a valid value).
  Writer& raw(const std::string& json_text);

  [[nodiscard]] const std::string& str() const noexcept { return out_; }

 private:
  void separator();
  std::string out_;
  bool need_comma_ = false;
};

/// Parsed JSON value. Numbers are kept as double (sufficient for the bench
/// records: counters up to 2^53 round-trip exactly).
class Value {
 public:
  enum class Kind : std::uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double num = 0.0;
  std::string str;
  std::vector<Value> arr;
  std::map<std::string, Value> obj;

  [[nodiscard]] bool is_null() const noexcept { return kind == Kind::kNull; }
  [[nodiscard]] bool is_number() const noexcept { return kind == Kind::kNumber; }
  [[nodiscard]] bool is_string() const noexcept { return kind == Kind::kString; }
  [[nodiscard]] bool is_array() const noexcept { return kind == Kind::kArray; }
  [[nodiscard]] bool is_object() const noexcept { return kind == Kind::kObject; }

  /// Object member lookup; returns nullptr when absent or not an object.
  [[nodiscard]] const Value* find(const std::string& k) const {
    if (kind != Kind::kObject) return nullptr;
    auto it = obj.find(k);
    return it == obj.end() ? nullptr : &it->second;
  }
};

/// Parse `text` into `out`. Returns true on success; on failure returns false
/// and, if `err` is non-null, stores a one-line diagnostic with the byte
/// offset of the problem.
bool parse(const std::string& text, Value& out, std::string* err = nullptr);

/// `v` as an unsigned integer no larger than `max`, for config fields read
/// from JSON. Throws util::Error naming `key` when `v` is not a number or is
/// negative, fractional or above `max`, which a cast would silently wrap,
/// truncate or (from 2^64 up) make undefined.
std::uint64_t as_uint(const Value& v, const std::string& key,
                      std::uint64_t max);

}  // namespace cool::obs::json
