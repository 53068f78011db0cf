#include "common/json.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

#include "common/check.hpp"

namespace aropuf {

bool JsonValue::as_bool() const {
  ARO_REQUIRE(is_bool(), "JSON value is not a boolean");
  return std::get<bool>(value_);
}

double JsonValue::as_number() const {
  ARO_REQUIRE(is_number(), "JSON value is not a number");
  return std::get<double>(value_);
}

const std::string& JsonValue::as_string() const {
  ARO_REQUIRE(is_string(), "JSON value is not a string");
  return std::get<std::string>(value_);
}

const JsonValue::Array& JsonValue::as_array() const {
  ARO_REQUIRE(is_array(), "JSON value is not an array");
  return std::get<Array>(value_);
}

const JsonValue::Object& JsonValue::as_object() const {
  ARO_REQUIRE(is_object(), "JSON value is not an object");
  return std::get<Object>(value_);
}

JsonValue::Array& JsonValue::as_array() {
  ARO_REQUIRE(is_array(), "JSON value is not an array");
  return std::get<Array>(value_);
}

JsonValue::Object& JsonValue::as_object() {
  ARO_REQUIRE(is_object(), "JSON value is not an object");
  return std::get<Object>(value_);
}

const JsonValue& JsonValue::at(const std::string& key) const {
  const auto& obj = as_object();
  const auto it = obj.find(key);
  ARO_REQUIRE(it != obj.end(), "missing JSON key: " + key);
  return it->second;
}

bool JsonValue::contains(const std::string& key) const {
  return is_object() && as_object().count(key) > 0;
}

double JsonValue::number_or(const std::string& key, double fallback) const {
  return contains(key) ? at(key).as_number() : fallback;
}

bool JsonValue::bool_or(const std::string& key, bool fallback) const {
  return contains(key) ? at(key).as_bool() : fallback;
}

std::string JsonValue::string_or(const std::string& key, std::string fallback) const {
  return contains(key) ? at(key).as_string() : std::move(fallback);
}

std::optional<std::int64_t> JsonValue::integer_in(std::int64_t lo, std::int64_t hi) const {
  const double d = is_number() ? std::get<double>(value_) : std::nan("");
  // NaN fails both comparisons; the clamped bounds convert to double exactly.
  const bool in_range = d >= static_cast<double>(std::max(lo, -kJsonMaxExactInteger)) &&
                        d <= static_cast<double>(std::min(hi, kJsonMaxExactInteger));
  if (!in_range || d != std::trunc(d)) return std::nullopt;
  return static_cast<std::int64_t>(d);
}

namespace {

void append_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void append_number(std::string& out, double d) {
  ARO_REQUIRE(std::isfinite(d), "JSON cannot represent NaN or infinity");
  if (d == std::floor(d) && std::fabs(d) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.0f", d);
    out += buf;
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", d);
  out += buf;
}

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  JsonValue parse_document() {
    skip_ws();
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after JSON document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    std::ostringstream os;
    os << "JSON parse error at offset " << pos_ << ": " << why;
    throw std::invalid_argument(os.str());
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() const {
    if (pos_ >= text_.size()) throw std::invalid_argument("JSON parse error: unexpected end");
    return text_[pos_];
  }

  char take() {
    const char c = peek();
    ++pos_;
    return c;
  }

  void expect(char c) {
    if (take() != c) {
      --pos_;
      fail(std::string("expected '") + c + "'");
    }
  }

  bool consume_literal(const char* literal) {
    std::size_t len = 0;
    while (literal[len] != '\0') ++len;
    if (text_.compare(pos_, len, literal) == 0) {
      pos_ += len;
      return true;
    }
    return false;
  }

  JsonValue parse_value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return JsonValue(parse_string());
      case 't':
        if (consume_literal("true")) return JsonValue(true);
        fail("invalid literal");
      case 'f':
        if (consume_literal("false")) return JsonValue(false);
        fail("invalid literal");
      case 'n':
        if (consume_literal("null")) return JsonValue(nullptr);
        fail("invalid literal");
      default:
        return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue::Object obj;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return JsonValue(std::move(obj));
    }
    while (true) {
      skip_ws();
      if (peek() != '"') fail("object keys must be strings");
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj[std::move(key)] = parse_value();
      skip_ws();
      const char c = take();
      if (c == '}') break;
      if (c != ',') {
        --pos_;
        fail("expected ',' or '}' in object");
      }
    }
    return JsonValue(std::move(obj));
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue::Array arr;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return JsonValue(std::move(arr));
    }
    while (true) {
      arr.push_back(parse_value());
      skip_ws();
      const char c = take();
      if (c == ']') break;
      if (c != ',') {
        --pos_;
        fail("expected ',' or ']' in array");
      }
    }
    return JsonValue(std::move(arr));
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      const char c = take();
      if (c == '"') break;
      if (c == '\\') {
        const char esc = take();
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = take();
              code <<= 4;
              if (h >= '0' && h <= '9') {
                code |= static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                code |= static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                code |= static_cast<unsigned>(h - 'A' + 10);
              } else {
                fail("invalid \\u escape");
              }
            }
            // UTF-8 encode (BMP only; surrogate pairs unsupported by scope).
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default:
            fail("invalid escape sequence");
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character in string");
      } else {
        out += c;
      }
    }
    return out;
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (pos_ >= text_.size() || !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      fail("invalid number");
    }
    while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (pos_ >= text_.size() || !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        fail("digits required after decimal point");
      }
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      if (pos_ >= text_.size() || !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        fail("digits required in exponent");
      }
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    }
    // strtod, not std::stod: the token is already syntax-checked, and stod
    // throws out_of_range on ERANGE — which glibc also sets for subnormal
    // results, so a legal "5e-324" would escape as the wrong exception type
    // (found by fuzzing).  strtod returns the subnormal quietly; genuine
    // overflow comes back as ±infinity, which JSON cannot represent, so that
    // stays a parse error.
    const std::string token = text_.substr(start, pos_ - start);
    const double v = std::strtod(token.c_str(), nullptr);
    if (std::isinf(v)) fail("number out of double range");
    return JsonValue(v);
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

void JsonValue::dump_to(std::string& out, int indent, int depth) const {
  const std::string pad = indent > 0 ? std::string(static_cast<std::size_t>(indent) *
                                                       static_cast<std::size_t>(depth + 1),
                                                   ' ')
                                     : std::string{};
  const std::string close_pad =
      indent > 0 ? std::string(static_cast<std::size_t>(indent) *
                                   static_cast<std::size_t>(depth),
                               ' ')
                 : std::string{};
  const char* nl = indent > 0 ? "\n" : "";
  const char* kv_sep = indent > 0 ? ": " : ":";

  if (is_null()) {
    out += "null";
  } else if (is_bool()) {
    out += as_bool() ? "true" : "false";
  } else if (is_number()) {
    append_number(out, as_number());
  } else if (is_string()) {
    append_escaped(out, as_string());
  } else if (is_array()) {
    const auto& arr = as_array();
    if (arr.empty()) {
      out += "[]";
      return;
    }
    out += '[';
    out += nl;
    for (std::size_t i = 0; i < arr.size(); ++i) {
      out += pad;
      arr[i].dump_to(out, indent, depth + 1);
      if (i + 1 < arr.size()) out += ',';
      out += nl;
    }
    out += close_pad;
    out += ']';
  } else {
    const auto& obj = as_object();
    if (obj.empty()) {
      out += "{}";
      return;
    }
    out += '{';
    out += nl;
    std::size_t i = 0;
    for (const auto& [key, value] : obj) {
      out += pad;
      append_escaped(out, key);
      out += kv_sep;
      value.dump_to(out, indent, depth + 1);
      if (++i < obj.size()) out += ',';
      out += nl;
    }
    out += close_pad;
    out += '}';
  }
}

std::string JsonValue::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

JsonValue JsonValue::parse(const std::string& text) {
  Parser parser(text);
  return parser.parse_document();
}

}  // namespace aropuf
