#include "obs/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/error.hpp"

namespace cool::obs::json {

std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char ch : s) {
    const auto c = static_cast<unsigned char>(ch);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out;
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  // Integers up to 2^53 print without a fractional part so counters stay
  // grep-able; everything else uses %.17g for exact round-trips.
  if (v == std::floor(v) && std::fabs(v) < 9.007199254740992e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.0f", v);
    return buf;
  }
  // Shortest representation that round-trips, so "1.41" stays "1.41"
  // instead of the full 17-digit expansion.
  char buf[40];
  for (int prec = 15; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof buf, "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

// --- Writer ------------------------------------------------------------------

void Writer::separator() {
  if (need_comma_) out_ += ',';
  need_comma_ = false;
}

Writer& Writer::begin_object() {
  separator();
  out_ += '{';
  return *this;
}

Writer& Writer::end_object() {
  out_ += '}';
  need_comma_ = true;
  return *this;
}

Writer& Writer::begin_array() {
  separator();
  out_ += '[';
  return *this;
}

Writer& Writer::end_array() {
  out_ += ']';
  need_comma_ = true;
  return *this;
}

Writer& Writer::key(const std::string& k) {
  separator();
  out_ += '"';
  out_ += escape(k);
  out_ += "\":";
  return *this;
}

Writer& Writer::string(const std::string& v) {
  separator();
  out_ += '"';
  out_ += escape(v);
  out_ += '"';
  need_comma_ = true;
  return *this;
}

Writer& Writer::number_value(double v) {
  separator();
  out_ += number(v);
  need_comma_ = true;
  return *this;
}

Writer& Writer::uint_value(std::uint64_t v) {
  separator();
  out_ += std::to_string(v);
  need_comma_ = true;
  return *this;
}

Writer& Writer::int_value(std::int64_t v) {
  separator();
  out_ += std::to_string(v);
  need_comma_ = true;
  return *this;
}

Writer& Writer::bool_value(bool v) {
  separator();
  out_ += v ? "true" : "false";
  need_comma_ = true;
  return *this;
}

Writer& Writer::null_value() {
  separator();
  out_ += "null";
  need_comma_ = true;
  return *this;
}

Writer& Writer::raw(const std::string& json_text) {
  separator();
  out_ += json_text;
  need_comma_ = true;
  return *this;
}

// --- Parser ------------------------------------------------------------------

namespace {

struct Parser {
  const std::string& text;
  std::size_t pos = 0;
  std::string error;

  [[nodiscard]] bool done() const { return pos >= text.size(); }
  [[nodiscard]] char peek() const { return text[pos]; }

  void skip_ws() {
    while (!done() && (text[pos] == ' ' || text[pos] == '\t' ||
                       text[pos] == '\n' || text[pos] == '\r')) {
      ++pos;
    }
  }

  bool fail(const std::string& what) {
    if (error.empty()) {
      error = what + " at byte " + std::to_string(pos);
    }
    return false;
  }

  bool expect(char c) {
    if (done() || text[pos] != c) {
      return fail(std::string("expected '") + c + "'");
    }
    ++pos;
    return true;
  }

  bool literal(const char* lit) {
    for (const char* p = lit; *p != '\0'; ++p, ++pos) {
      if (done() || text[pos] != *p) return fail(std::string("bad literal"));
    }
    return true;
  }

  bool parse_string(std::string& out) {
    if (!expect('"')) return false;
    out.clear();
    while (!done() && text[pos] != '"') {
      char c = text[pos++];
      if (c != '\\') {
        out += c;
        continue;
      }
      if (done()) return fail("truncated escape");
      c = text[pos++];
      switch (c) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos + 4 > text.size()) return fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text[pos++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return fail("bad \\u escape");
          }
          // UTF-8 encode the code point (no surrogate-pair combining; the
          // obs layer never emits non-BMP text).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xc0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3f));
          } else {
            out += static_cast<char>(0xe0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (code & 0x3f));
          }
          break;
        }
        default:
          return fail("unknown escape");
      }
    }
    return expect('"');
  }

  bool parse_value(Value& out) {
    skip_ws();
    if (done()) return fail("unexpected end of input");
    const char c = peek();
    switch (c) {
      case '{': {
        out.kind = Value::Kind::kObject;
        ++pos;
        skip_ws();
        if (!done() && peek() == '}') {
          ++pos;
          return true;
        }
        for (;;) {
          skip_ws();
          std::string k;
          if (!parse_string(k)) return false;
          skip_ws();
          if (!expect(':')) return false;
          Value v;
          if (!parse_value(v)) return false;
          out.obj.emplace(std::move(k), std::move(v));
          skip_ws();
          if (done()) return fail("unterminated object");
          if (peek() == ',') {
            ++pos;
            continue;
          }
          return expect('}');
        }
      }
      case '[': {
        out.kind = Value::Kind::kArray;
        ++pos;
        skip_ws();
        if (!done() && peek() == ']') {
          ++pos;
          return true;
        }
        for (;;) {
          Value v;
          if (!parse_value(v)) return false;
          out.arr.push_back(std::move(v));
          skip_ws();
          if (done()) return fail("unterminated array");
          if (peek() == ',') {
            ++pos;
            continue;
          }
          return expect(']');
        }
      }
      case '"':
        out.kind = Value::Kind::kString;
        return parse_string(out.str);
      case 't':
        out.kind = Value::Kind::kBool;
        out.boolean = true;
        return literal("true");
      case 'f':
        out.kind = Value::Kind::kBool;
        out.boolean = false;
        return literal("false");
      case 'n':
        out.kind = Value::Kind::kNull;
        return literal("null");
      default: {
        if (c != '-' && !std::isdigit(static_cast<unsigned char>(c))) {
          return fail("unexpected character");
        }
        out.kind = Value::Kind::kNumber;
        char* end = nullptr;
        out.num = std::strtod(text.c_str() + pos, &end);
        if (end == text.c_str() + pos) return fail("bad number");
        pos = static_cast<std::size_t>(end - text.c_str());
        return true;
      }
    }
  }
};

}  // namespace

bool parse(const std::string& text, Value& out, std::string* err) {
  Parser p{text, 0, {}};
  out = Value{};
  if (!p.parse_value(out)) {
    if (err != nullptr) *err = p.error;
    return false;
  }
  p.skip_ws();
  if (!p.done()) {
    if (err != nullptr) {
      *err = "trailing content at byte " + std::to_string(p.pos);
    }
    return false;
  }
  return true;
}

std::uint64_t as_uint(const Value& v, const std::string& key,
                      std::uint64_t max) {
  if (!v.is_number() || !(v.num >= 0.0) || v.num != std::floor(v.num) ||
      v.num >= 0x1p64 || static_cast<std::uint64_t>(v.num) > max) {
    throw util::Error("'" + key + "' must be an integer in [0, " +
                      std::to_string(max) + "]");
  }
  return static_cast<std::uint64_t>(v.num);
}

}  // namespace cool::obs::json
