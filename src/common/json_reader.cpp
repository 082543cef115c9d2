#include "common/json_reader.h"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <system_error>

#include "common/error.h"

namespace geomap {

bool JsonValue::as_bool() const {
  GEOMAP_CHECK_ARG(is_bool(), "JSON value is not a bool");
  return bool_;
}

double JsonValue::as_number() const {
  GEOMAP_CHECK_ARG(is_number(), "JSON value is not a number");
  return number_;
}

const std::string& JsonValue::as_string() const {
  GEOMAP_CHECK_ARG(is_string(), "JSON value is not a string");
  return string_;
}

const std::vector<JsonValue>& JsonValue::items() const {
  GEOMAP_CHECK_ARG(is_array(), "JSON value is not an array");
  return items_;
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::members()
    const {
  GEOMAP_CHECK_ARG(is_object(), "JSON value is not an object");
  return members_;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (!is_object()) return nullptr;
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const JsonValue& JsonValue::at(std::string_view key) const {
  const JsonValue* v = find(key);
  GEOMAP_CHECK_ARG(v != nullptr,
                   "JSON object has no member '" << std::string(key) << "'");
  return *v;
}

double JsonValue::number_or(std::string_view key, double fallback) const {
  const JsonValue* v = find(key);
  return (v != nullptr && v->is_number()) ? v->as_number() : fallback;
}

std::string JsonValue::string_or(std::string_view key,
                                 const std::string& fallback) const {
  const JsonValue* v = find(key);
  return (v != nullptr && v->is_string()) ? v->as_string() : fallback;
}

JsonValue JsonValue::make_bool(bool v) {
  JsonValue out;
  out.kind_ = Kind::kBool;
  out.bool_ = v;
  return out;
}

JsonValue JsonValue::make_number(double v) {
  JsonValue out;
  out.kind_ = Kind::kNumber;
  out.number_ = v;
  return out;
}

JsonValue JsonValue::make_string(std::string v) {
  JsonValue out;
  out.kind_ = Kind::kString;
  out.string_ = std::move(v);
  return out;
}

JsonValue JsonValue::make_array(std::vector<JsonValue> items) {
  JsonValue out;
  out.kind_ = Kind::kArray;
  out.items_ = std::move(items);
  return out;
}

JsonValue JsonValue::make_object(
    std::vector<std::pair<std::string, JsonValue>> members) {
  JsonValue out;
  out.kind_ = Kind::kObject;
  out.members_ = std::move(members);
  return out;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue document() {
    const JsonValue v = value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing content");
    return v;
  }

 private:
  [[noreturn]] void fail(const char* what) const {
    // Line/column are recomputed only on the error path — the hot loop
    // stays a plain byte scan.
    int line = 1;
    int column = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        column = 1;
      } else {
        ++column;
      }
    }
    std::ostringstream os;
    os << "JSON: " << what << " at byte " << pos_ << " (line " << line
       << ", column " << column << ")";
    throw JsonParseError(os.str(), pos_, line, column);
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail("unexpected character");
    ++pos_;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  JsonValue value() {
    const char c = peek();
    switch (c) {
      case '{':
        if (depth_ >= kJsonMaxDepth) fail("nesting too deep");
        return object();
      case '[':
        if (depth_ >= kJsonMaxDepth) fail("nesting too deep");
        return array();
      case '"':
        return JsonValue::make_string(string());
      case 't':
        if (literal("true")) return JsonValue::make_bool(true);
        fail("invalid literal");
      case 'f':
        if (literal("false")) return JsonValue::make_bool(false);
        fail("invalid literal");
      case 'n':
        if (literal("null")) return JsonValue::make_null();
        fail("invalid literal");
      default:
        return JsonValue::make_number(number());
    }
  }

  JsonValue object() {
    expect('{');
    ++depth_;
    std::vector<std::pair<std::string, JsonValue>> members;
    if (peek() == '}') {
      ++pos_;
      --depth_;
      return JsonValue::make_object(std::move(members));
    }
    while (true) {
      if (peek() != '"') fail("expected object key");
      std::string key = string();
      expect(':');
      members.emplace_back(std::move(key), value());
      const char c = peek();
      ++pos_;
      if (c == '}') break;
      if (c != ',') fail("expected ',' or '}'");
    }
    --depth_;
    return JsonValue::make_object(std::move(members));
  }

  JsonValue array() {
    expect('[');
    ++depth_;
    std::vector<JsonValue> items;
    if (peek() == ']') {
      ++pos_;
      --depth_;
      return JsonValue::make_array(std::move(items));
    }
    while (true) {
      items.push_back(value());
      const char c = peek();
      ++pos_;
      if (c == ']') break;
      if (c != ',') fail("expected ',' or ']'");
    }
    --depth_;
    return JsonValue::make_array(std::move(items));
  }

  std::string string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') break;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code += static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code += static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code += static_cast<unsigned>(h - 'A' + 10);
            else
              fail("invalid \\u escape");
          }
          // UTF-8 encode the BMP code point (the writer only escapes
          // control characters, so surrogate pairs do not occur in our
          // own artifacts; lone surrogates are passed through encoded).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          fail("invalid escape");
      }
    }
    return out;
  }

  double number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
          c == '+' || c == '-') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) fail("expected value");
    const std::optional<double> v =
        parse_double(text_.substr(start, pos_ - start));
    if (!v) {
      pos_ = start;
      fail("invalid number");
    }
    if (!std::isfinite(*v)) {
      // Overflowing literals (1e999) fold to infinity under strtod;
      // downstream arithmetic would propagate it silently. Reject.
      pos_ = start;
      fail("number out of range");
    }
    return *v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

std::optional<double> parse_double(std::string_view token) {
  double v = 0;
  const char* const end = token.data() + token.size();
  const std::from_chars_result read = std::from_chars(token.data(), end, v);
  if (read.ec == std::errc{} && read.ptr == end && std::isfinite(v)) return v;
  const std::string copy(token);
  char* stop = nullptr;
  v = std::strtod(copy.c_str(), &stop);
  if (stop == copy.c_str() || stop != copy.c_str() + copy.size()) {
    return std::nullopt;
  }
  return v;
}

JsonValue parse_json(std::string_view text) {
  return Parser(text).document();
}

JsonValue parse_json_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  GEOMAP_CHECK_ARG(in.good(), "cannot open " << path << " for reading");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  try {
    return parse_json(buffer.str());
  } catch (const JsonParseError& e) {
    throw JsonParseError(path + ": " + e.what(), e.offset(), e.line(),
                         e.column());
  } catch (const InvalidArgument& e) {
    throw InvalidArgument(path + ": " + e.what());
  }
}

}  // namespace geomap
