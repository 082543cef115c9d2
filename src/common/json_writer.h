#pragma once
// Streaming JSON emitter shared by the bench harnesses and the
// observability exporters: handles escaping, nesting, comma placement,
// and round-trip double formatting so no caller hand-rolls `{\"...\"`
// string concatenation. Misuse (value without a key inside an object,
// unbalanced end_*) throws geomap::Error at the offending call, not at
// parse time downstream.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace geomap {

class JsonWriter {
 public:
  /// Writes to `os` (not owned; must outlive the writer). `pretty`
  /// inserts newlines and two-space indentation.
  explicit JsonWriter(std::ostream& os, bool pretty = true);

  // -- Structure --
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Key of the next member (only valid directly inside an object).
  JsonWriter& key(std::string_view k);

  // -- Scalars --
  JsonWriter& value(std::string_view v);
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }
  JsonWriter& value(double v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }
  JsonWriter& value(bool v);
  JsonWriter& null();

  /// Splice a preformatted JSON value verbatim (caller guarantees it is
  /// itself valid JSON).
  JsonWriter& raw(std::string_view json);

  // -- key + scalar in one call --
  template <typename T>
  JsonWriter& field(std::string_view k, T v) {
    key(k);
    return value(v);
  }

  /// True once the single top-level value is complete and balanced.
  bool done() const;

  /// JSON string escaping of `s` (without the surrounding quotes).
  static std::string escape(std::string_view s);

  /// Decimal form of `v` that parses back to the same double. Integers
  /// below 1e15 in magnitude print as "%.0f" plus ".0" ("3.0", "-0.0");
  /// anything else prints as the first of "%.15g", "%.16g" and "%.17g"
  /// that reads back equal, which is not always the shortest form (the
  /// smallest subnormal prints as "4.94065645841247e-324", not "5e-324").
  /// WAL record CRCs, case digests and the blessed artifacts hold this
  /// exact text, so it must not change. Non-finite values print as
  /// printf prints them ("inf", "-nan"); value(double) writes "null",
  /// since JSON cannot represent them.
  static std::string format_double(double v);

 private:
  enum class Scope { kObject, kArray };

  void before_value();
  void newline_indent();

  std::ostream* os_;
  bool pretty_;
  struct Level {
    Scope scope;
    bool has_members = false;
  };
  std::vector<Level> stack_;
  bool pending_key_ = false;
  bool root_written_ = false;
};

}  // namespace geomap
