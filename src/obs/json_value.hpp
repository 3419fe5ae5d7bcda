// Minimal DOM JSON parser for the observability layer: bench_compare and
// the bench-report tests need to read values back out of BENCH_*.json
// files, and obs::json_parse_ok validates through it, so the repo has one
// JSON grammar (obs/json.hpp keeps the streaming writer). Insertion order
// of object members is preserved so round-trips are inspectable; numbers
// are stored as double (every value the bench schema emits fits). No
// external dependency.
#pragma once

#include <cctype>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace tilespmspv::obs {

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool b = false;
  double num = 0.0;
  std::string str;
  std::vector<JsonValue> arr;
  std::vector<std::pair<std::string, JsonValue>> obj;

  bool is_null() const { return kind == Kind::kNull; }
  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_string() const { return kind == Kind::kString; }
  bool is_number() const { return kind == Kind::kNumber; }

  /// Member lookup; returns nullptr when absent or not an object.
  const JsonValue* find(std::string_view key) const {
    if (kind != Kind::kObject) return nullptr;
    for (const auto& [k, v] : obj) {
      if (k == key) return &v;
    }
    return nullptr;
  }

  /// Convenience accessors with defaults for absent/mismatched members.
  double number_or(std::string_view key, double def) const {
    const JsonValue* v = find(key);
    return (v != nullptr && v->kind == Kind::kNumber) ? v->num : def;
  }
  std::string string_or(std::string_view key, const std::string& def) const {
    const JsonValue* v = find(key);
    return (v != nullptr && v->kind == Kind::kString) ? v->str : def;
  }
};

namespace detail {

class JsonDomParser {
 public:
  explicit JsonDomParser(std::string_view s) : s_(s) {}

  bool parse(JsonValue* out) {
    if (!value(out, 0)) return false;
    skip_ws();
    return i_ == s_.size();
  }

 private:
  void skip_ws() {
    while (i_ < s_.size() && (s_[i_] == ' ' || s_[i_] == '\t' ||
                              s_[i_] == '\n' || s_[i_] == '\r')) {
      ++i_;
    }
  }

  bool literal(std::string_view lit) {
    if (s_.compare(i_, lit.size(), lit) != 0) return false;
    i_ += lit.size();
    return true;
  }

  bool string(std::string* out) {
    if (i_ >= s_.size() || s_[i_] != '"') return false;
    ++i_;
    out->clear();
    while (i_ < s_.size() && s_[i_] != '"') {
      char c = s_[i_];
      if (c == '\\') {
        ++i_;
        if (i_ >= s_.size()) return false;
        switch (s_[i_]) {
          case '"':
            c = '"';
            break;
          case '\\':
            c = '\\';
            break;
          case '/':
            c = '/';
            break;
          case 'n':
            c = '\n';
            break;
          case 'r':
            c = '\r';
            break;
          case 't':
            c = '\t';
            break;
          case 'b':
            c = '\b';
            break;
          case 'f':
            c = '\f';
            break;
          case 'u': {
            unsigned code = 0;
            for (int k = 0; k < 4; ++k) {
              ++i_;
              if (i_ >= s_.size() ||
                  !std::isxdigit(static_cast<unsigned char>(s_[i_]))) {
                return false;
              }
              const char h = s_[i_];
              code = code * 16 +
                     static_cast<unsigned>(
                         h <= '9' ? h - '0' : (h | 0x20) - 'a' + 10);
            }
            // Escapes the schema emits are all < 0x80; anything larger is
            // replaced rather than UTF-8 encoded (names stay comparable).
            c = code < 0x80 ? static_cast<char>(code) : '?';
            break;
          }
          default:
            return false;
        }
      }
      out->push_back(c);
      ++i_;
    }
    if (i_ >= s_.size()) return false;
    ++i_;  // closing quote
    return true;
  }

  bool number(double* out) {
    const std::size_t start = i_;
    if (i_ < s_.size() && s_[i_] == '-') ++i_;
    std::size_t digits = 0;
    while (i_ < s_.size() && std::isdigit(static_cast<unsigned char>(s_[i_]))) {
      ++i_;
      ++digits;
    }
    if (digits == 0) return false;
    if (i_ < s_.size() && s_[i_] == '.') {
      ++i_;
      digits = 0;
      while (i_ < s_.size() &&
             std::isdigit(static_cast<unsigned char>(s_[i_]))) {
        ++i_;
        ++digits;
      }
      if (digits == 0) return false;
    }
    if (i_ < s_.size() && (s_[i_] == 'e' || s_[i_] == 'E')) {
      ++i_;
      if (i_ < s_.size() && (s_[i_] == '+' || s_[i_] == '-')) ++i_;
      digits = 0;
      while (i_ < s_.size() &&
             std::isdigit(static_cast<unsigned char>(s_[i_]))) {
        ++i_;
        ++digits;
      }
      if (digits == 0) return false;
    }
    const std::string text(s_.substr(start, i_ - start));
    *out = std::strtod(text.c_str(), nullptr);
    return true;
  }

  bool value(JsonValue* out, int depth) {
    if (depth > 128) return false;
    skip_ws();
    if (i_ >= s_.size()) return false;
    const char c = s_[i_];
    if (c == '{') {
      ++i_;
      out->kind = JsonValue::Kind::kObject;
      skip_ws();
      if (i_ < s_.size() && s_[i_] == '}') {
        ++i_;
        return true;
      }
      for (;;) {
        skip_ws();
        std::string key;
        if (!string(&key)) return false;
        skip_ws();
        if (i_ >= s_.size() || s_[i_] != ':') return false;
        ++i_;
        JsonValue member;
        if (!value(&member, depth + 1)) return false;
        out->obj.emplace_back(std::move(key), std::move(member));
        skip_ws();
        if (i_ < s_.size() && s_[i_] == ',') {
          ++i_;
          continue;
        }
        if (i_ < s_.size() && s_[i_] == '}') {
          ++i_;
          return true;
        }
        return false;
      }
    }
    if (c == '[') {
      ++i_;
      out->kind = JsonValue::Kind::kArray;
      skip_ws();
      if (i_ < s_.size() && s_[i_] == ']') {
        ++i_;
        return true;
      }
      for (;;) {
        JsonValue elem;
        if (!value(&elem, depth + 1)) return false;
        out->arr.push_back(std::move(elem));
        skip_ws();
        if (i_ < s_.size() && s_[i_] == ',') {
          ++i_;
          continue;
        }
        if (i_ < s_.size() && s_[i_] == ']') {
          ++i_;
          return true;
        }
        return false;
      }
    }
    if (c == '"') {
      out->kind = JsonValue::Kind::kString;
      return string(&out->str);
    }
    if (c == 't') {
      out->kind = JsonValue::Kind::kBool;
      out->b = true;
      return literal("true");
    }
    if (c == 'f') {
      out->kind = JsonValue::Kind::kBool;
      out->b = false;
      return literal("false");
    }
    if (c == 'n') {
      out->kind = JsonValue::Kind::kNull;
      return literal("null");
    }
    out->kind = JsonValue::Kind::kNumber;
    return number(&out->num);
  }

  std::string_view s_;
  std::size_t i_ = 0;
};

}  // namespace detail

/// Parses `s` into `*out`. Returns false (and leaves `*out` unspecified)
/// when `s` is not a single well-formed JSON value.
inline bool json_parse_value(std::string_view s, JsonValue* out) {
  detail::JsonDomParser p(s);
  return p.parse(out);
}

}  // namespace tilespmspv::obs
