#include "common/json_writer.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <system_error>

#include "common/error.h"

namespace geomap {

JsonWriter::JsonWriter(std::ostream& os, bool pretty)
    : os_(&os), pretty_(pretty) {}

std::string JsonWriter::escape(std::string_view s) {
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
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
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
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string JsonWriter::format_double(double v) {
  // std::to_chars prints as printf does in the C locale: `fixed` with
  // precision 0 is "%.0f", `general` with precision p is "%.*g".
  char buf[32];
  char* end = buf;
  if (std::nearbyint(v) == v && std::fabs(v) < 1e15) {
    end = std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::fixed, 0)
              .ptr;
    *end++ = '.';
    *end++ = '0';
    return std::string(buf, end);
  }
  for (int precision = 15; precision <= 17; ++precision) {
    end = std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::general,
                        precision)
              .ptr;
    double back = 0;
    const std::from_chars_result read = std::from_chars(buf, end, back);
    if (read.ec == std::errc{} && back == v) break;
  }
  return std::string(buf, end);
}

void JsonWriter::newline_indent() {
  if (!pretty_) return;
  *os_ << '\n';
  for (std::size_t i = 0; i < stack_.size(); ++i) *os_ << "  ";
}

void JsonWriter::before_value() {
  if (stack_.empty()) {
    GEOMAP_CHECK_MSG(!root_written_,
                     "JsonWriter: more than one top-level value");
    root_written_ = true;
    return;
  }
  Level& level = stack_.back();
  if (level.scope == Scope::kObject) {
    GEOMAP_CHECK_MSG(pending_key_,
                     "JsonWriter: value inside an object needs a key() first");
    pending_key_ = false;
  } else {
    GEOMAP_CHECK_MSG(!pending_key_, "JsonWriter: key() inside an array");
    if (level.has_members) *os_ << ',';
    newline_indent();
  }
  level.has_members = true;
}

JsonWriter& JsonWriter::begin_object() {
  before_value();
  *os_ << '{';
  stack_.push_back({Scope::kObject});
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  GEOMAP_CHECK_MSG(!stack_.empty() && stack_.back().scope == Scope::kObject,
                   "JsonWriter: end_object without matching begin_object");
  GEOMAP_CHECK_MSG(!pending_key_, "JsonWriter: dangling key at end_object");
  const bool had_members = stack_.back().has_members;
  stack_.pop_back();
  if (had_members) newline_indent();
  *os_ << '}';
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  before_value();
  *os_ << '[';
  stack_.push_back({Scope::kArray});
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  GEOMAP_CHECK_MSG(!stack_.empty() && stack_.back().scope == Scope::kArray,
                   "JsonWriter: end_array without matching begin_array");
  const bool had_members = stack_.back().has_members;
  stack_.pop_back();
  if (had_members) newline_indent();
  *os_ << ']';
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  GEOMAP_CHECK_MSG(!stack_.empty() && stack_.back().scope == Scope::kObject,
                   "JsonWriter: key() outside an object");
  GEOMAP_CHECK_MSG(!pending_key_, "JsonWriter: two keys in a row");
  if (stack_.back().has_members) *os_ << ',';
  newline_indent();
  *os_ << '"' << escape(k) << (pretty_ ? "\": " : "\":");
  pending_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view v) {
  before_value();
  *os_ << '"' << escape(v) << '"';
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  before_value();
  if (!std::isfinite(v))
    *os_ << "null";  // JSON has no Infinity/NaN
  else
    *os_ << format_double(v);
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  before_value();
  *os_ << v;
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  before_value();
  *os_ << v;
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  before_value();
  *os_ << (v ? "true" : "false");
  return *this;
}

JsonWriter& JsonWriter::null() {
  before_value();
  *os_ << "null";
  return *this;
}

JsonWriter& JsonWriter::raw(std::string_view json) {
  before_value();
  *os_ << json;
  return *this;
}

bool JsonWriter::done() const { return root_written_ && stack_.empty(); }

}  // namespace geomap
