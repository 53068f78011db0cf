// Minimal JSON value, parser, and serializer (RFC 8259 subset).
//
// Experiment configurations (technology corners, PUF configs, population
// setups) are serialized through this module so studies are reproducible
// from checked-in config files, not just from code.  Scope: UTF-8 text,
// objects/arrays/strings/numbers/bools/null, \uXXXX escapes for the BMP;
// no comments, no trailing commas (strict by design — configs are data).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

namespace aropuf {

/// Numbers are IEEE doubles: 2^53 - 1 is the largest integer every JSON number
/// holds exactly, and the limit for integers that travel as JSON (seeds).
inline constexpr std::int64_t kJsonMaxExactInteger = (std::int64_t{1} << 53) - 1;

class JsonValue {
 public:
  using Array = std::vector<JsonValue>;
  /// std::map keeps keys sorted: serialization is canonical, diffs stable.
  using Object = std::map<std::string, JsonValue>;

  JsonValue() : value_(nullptr) {}
  JsonValue(std::nullptr_t) : value_(nullptr) {}
  JsonValue(bool b) : value_(b) {}
  JsonValue(double d) : value_(d) {}
  JsonValue(int i) : value_(static_cast<double>(i)) {}
  JsonValue(std::uint64_t u) : value_(static_cast<double>(u)) {}
  JsonValue(const char* s) : value_(std::string(s)) {}
  JsonValue(std::string s) : value_(std::move(s)) {}
  JsonValue(Array a) : value_(std::move(a)) {}
  JsonValue(Object o) : value_(std::move(o)) {}

  [[nodiscard]] bool is_null() const { return std::holds_alternative<std::nullptr_t>(value_); }
  [[nodiscard]] bool is_bool() const { return std::holds_alternative<bool>(value_); }
  [[nodiscard]] bool is_number() const { return std::holds_alternative<double>(value_); }
  [[nodiscard]] bool is_string() const { return std::holds_alternative<std::string>(value_); }
  [[nodiscard]] bool is_array() const { return std::holds_alternative<Array>(value_); }
  [[nodiscard]] bool is_object() const { return std::holds_alternative<Object>(value_); }

  /// Checked accessors: throw std::invalid_argument on type mismatch.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const Array& as_array() const;
  [[nodiscard]] const Object& as_object() const;
  [[nodiscard]] Array& as_array();
  [[nodiscard]] Object& as_object();

  /// Object member access; throws if not an object or key missing.
  [[nodiscard]] const JsonValue& at(const std::string& key) const;
  /// True when this is an object containing `key`.
  [[nodiscard]] bool contains(const std::string& key) const;
  /// Member access with a default when the key is absent.
  [[nodiscard]] double number_or(const std::string& key, double fallback) const;
  [[nodiscard]] bool bool_or(const std::string& key, bool fallback) const;
  [[nodiscard]] std::string string_or(const std::string& key, std::string fallback) const;

  /// This value as an integer when it is an integral number within [lo, hi]
  /// (clamped to ±kJsonMaxExactInteger, so the check and the conversion are
  /// exact); nullopt otherwise.  Never a float-to-int overflow.
  [[nodiscard]] std::optional<std::int64_t> integer_in(std::int64_t lo, std::int64_t hi) const;

  /// Serializes; `indent` > 0 pretty-prints with that many spaces per level.
  [[nodiscard]] std::string dump(int indent = 0) const;

  /// Parses a complete JSON document; throws std::invalid_argument with a
  /// position-annotated message on malformed input or trailing garbage.
  [[nodiscard]] static JsonValue parse(const std::string& text);

  [[nodiscard]] bool operator==(const JsonValue& other) const { return value_ == other.value_; }

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  std::variant<std::nullptr_t, bool, double, std::string, Array, Object> value_;
};

}  // namespace aropuf
