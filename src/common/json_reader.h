#pragma once
// Minimal recursive-descent JSON parser — the read side of
// common/json_writer. Parses exactly the RFC 8259 grammar the repo's
// exporters emit into an owning JsonValue tree. Used by the obsctl
// toolkit to load metrics / critpath artifacts back; it is not a
// general-purpose streaming parser (documents are a few MB at most).
//
// Malformed input throws geomap::JsonParseError (an InvalidArgument)
// carrying the byte offset plus 1-based line/column, so a truncated or
// corrupted artifact fails loudly at load time — with a pointable
// location — instead of producing a silently partial analysis. The
// parser is hardened against hostile input: nesting is capped (a
// deep-bracket bomb cannot overflow the stack), numbers must be finite
// (1e999 is rejected, not folded to infinity), and every escape and
// truncation path throws instead of reading past the buffer.

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/error.h"

namespace geomap {

/// Malformed JSON: InvalidArgument plus the parse position. `offset` is
/// the byte index into the document; `line`/`column` are 1-based.
class JsonParseError : public InvalidArgument {
 public:
  JsonParseError(const std::string& what, std::size_t offset, int line,
                 int column)
      : InvalidArgument(what), offset_(offset), line_(line), column_(column) {}

  std::size_t offset() const { return offset_; }
  int line() const { return line_; }
  int column() const { return column_; }

 private:
  std::size_t offset_;
  int line_;
  int column_;
};

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  /// Typed accessors; throw InvalidArgument on kind mismatch.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const std::vector<JsonValue>& items() const;
  /// Object members in document order (duplicate keys are kept as-is).
  const std::vector<std::pair<std::string, JsonValue>>& members() const;

  /// Member lookup (first match); nullptr when absent or not an object.
  const JsonValue* find(std::string_view key) const;
  /// Member lookup that throws InvalidArgument when the key is absent.
  const JsonValue& at(std::string_view key) const;

  /// `find(key)->as_number()` with a default when absent.
  double number_or(std::string_view key, double fallback) const;
  /// `find(key)->as_string()` with a default when absent.
  std::string string_or(std::string_view key,
                        const std::string& fallback) const;

  static JsonValue make_null() { return JsonValue(); }
  static JsonValue make_bool(bool v);
  static JsonValue make_number(double v);
  static JsonValue make_string(std::string v);
  static JsonValue make_array(std::vector<JsonValue> items);
  static JsonValue make_object(
      std::vector<std::pair<std::string, JsonValue>> members);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

/// Containers deeper than this throw JsonParseError ("nesting too
/// deep") instead of recursing toward a stack overflow.
inline constexpr int kJsonMaxDepth = 256;

/// Parse one complete JSON document (trailing whitespace allowed, any
/// other trailing content throws JsonParseError).
JsonValue parse_json(std::string_view text);

/// The double std::strtod reads from all of `token`; nullopt when strtod
/// would read nothing or stop before the end. Decimal tokens take the
/// std::from_chars path; whatever from_chars does not read whole to a
/// finite value (a '+' sign, hex, an exponent out of range, inf, nan
/// and its payload) goes to strtod, so the result is always strtod's.
std::optional<double> parse_double(std::string_view token);

/// Read and parse `path`; throws InvalidArgument when the file cannot be
/// opened and JsonParseError (prefixed with the path) when it does not
/// contain one valid JSON document.
JsonValue parse_json_file(const std::string& path);

}  // namespace geomap
