// Minimal JSON document model + recursive-descent parser.
//
// Test support: lets the tests validate the exporters' output in-process
// (schema round-trip tests and the Perfetto trace checks) without an
// external JSON dependency. Supports the full JSON value
// grammar; numbers are held as double plus an exact int64 when the token
// is integral (virtual-time counters exceed double's 2^53 mantissa only in
// pathological runs, but exactness is free to keep).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace obs {

class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;

  [[nodiscard]] Type type() const noexcept { return type_; }
  [[nodiscard]] bool is_null() const noexcept { return type_ == Type::kNull; }

  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_double() const;
  [[nodiscard]] std::int64_t as_int() const;
  [[nodiscard]] std::uint64_t as_uint() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const std::vector<JsonValue>& as_array() const;
  [[nodiscard]] const std::map<std::string, JsonValue>& as_object() const;

  /// Object member access; throws std::out_of_range when missing.
  [[nodiscard]] const JsonValue& at(const std::string& key) const;
  [[nodiscard]] bool contains(const std::string& key) const;
  /// Array element access.
  [[nodiscard]] const JsonValue& at(std::size_t index) const;
  [[nodiscard]] std::size_t size() const;

  /// Parses a complete JSON document (trailing garbage is an error).
  /// Throws std::invalid_argument with position info on malformed input.
  static JsonValue parse(std::string_view text);

 private:
  friend class JsonParser;

  Type type_ = Type::kNull;
  bool bool_ = false;
  double num_ = 0.0;
  std::int64_t int_ = 0;
  bool int_exact_ = false;  ///< token was integral and fits int64/uint64
  std::uint64_t uint_ = 0;
  bool uint_exact_ = false;
  std::string str_;
  std::vector<JsonValue> arr_;
  std::map<std::string, JsonValue> obj_;
};

}  // namespace obs
