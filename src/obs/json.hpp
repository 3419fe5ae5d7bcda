// Minimal JSON plumbing for the observability layer: a streaming writer
// (objects/arrays with automatic comma placement, used by the trace and
// metrics exporters and the CLI's --json mode) and json_parse_ok, a
// well-formedness check over the DOM parser in obs/json_value.hpp, so
// tests and smoke checks can validate emitted files without an external
// dependency.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json_value.hpp"

namespace tilespmspv::obs {

/// Escapes `s` for inclusion inside a JSON string literal (no quotes).
inline std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Streaming JSON writer. Callers pair begin_/end_ calls and alternate
/// key()/value inside objects; commas and quoting are handled here. The
/// writer never buffers, so exporters can stream arbitrarily many trace
/// events without holding a second copy in memory.
class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& os) : os_(os) {}

  JsonWriter& begin_object() {
    pre_value();
    os_ << '{';
    stack_.push_back({'o', 0});
    return *this;
  }
  JsonWriter& end_object() {
    stack_.pop_back();
    os_ << '}';
    return *this;
  }
  JsonWriter& begin_array() {
    pre_value();
    os_ << '[';
    stack_.push_back({'a', 0});
    return *this;
  }
  JsonWriter& end_array() {
    stack_.pop_back();
    os_ << ']';
    return *this;
  }

  JsonWriter& key(std::string_view k) {
    if (stack_.back().count++ > 0) os_ << ',';
    os_ << '"' << json_escape(k) << "\":";
    pending_value_ = true;
    return *this;
  }

  JsonWriter& value(std::string_view v) {
    pre_value();
    os_ << '"' << json_escape(v) << '"';
    return *this;
  }
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }
  JsonWriter& value(bool v) {
    pre_value();
    os_ << (v ? "true" : "false");
    return *this;
  }
  JsonWriter& value(std::int64_t v) {
    pre_value();
    os_ << v;
    return *this;
  }
  JsonWriter& value(std::uint64_t v) {
    pre_value();
    os_ << v;
    return *this;
  }
  JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }
  JsonWriter& value(double v) {
    pre_value();
    if (!std::isfinite(v)) {
      os_ << "null";  // JSON has no inf/nan
      return *this;
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    os_ << buf;
    return *this;
  }

 private:
  void pre_value() {
    if (pending_value_) {
      pending_value_ = false;  // comma was written by key()
      return;
    }
    if (!stack_.empty() && stack_.back().kind == 'a' &&
        stack_.back().count++ > 0) {
      os_ << ',';
    }
  }

  struct Frame {
    char kind;  // 'o' or 'a'
    int count;
  };
  std::ostream& os_;
  std::vector<Frame> stack_;
  bool pending_value_ = false;
};

/// True when `s` is a single well-formed JSON value (the whole input).
/// Runs the DOM parser (obs/json_value.hpp), so validation and reading
/// share one grammar: standard escapes only, nesting depth at most 128.
inline bool json_parse_ok(std::string_view s) {
  JsonValue v;
  return json_parse_value(s, &v);
}

}  // namespace tilespmspv::obs
