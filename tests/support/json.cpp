#include "support/json.hpp"

#include <cctype>
#include <charconv>
#include <cstdlib>
#include <stdexcept>

namespace obs {

bool JsonValue::as_bool() const {
  if (type_ != Type::kBool) throw std::logic_error("JSON value is not a bool");
  return bool_;
}

double JsonValue::as_double() const {
  if (type_ != Type::kNumber) {
    throw std::logic_error("JSON value is not a number");
  }
  return num_;
}

std::int64_t JsonValue::as_int() const {
  if (type_ != Type::kNumber) {
    throw std::logic_error("JSON value is not a number");
  }
  if (int_exact_) return int_;
  return static_cast<std::int64_t>(num_);
}

std::uint64_t JsonValue::as_uint() const {
  if (type_ != Type::kNumber) {
    throw std::logic_error("JSON value is not a number");
  }
  if (uint_exact_) return uint_;
  if (num_ < 0) throw std::logic_error("JSON number is negative");
  return static_cast<std::uint64_t>(num_);
}

const std::string& JsonValue::as_string() const {
  if (type_ != Type::kString) {
    throw std::logic_error("JSON value is not a string");
  }
  return str_;
}

const std::vector<JsonValue>& JsonValue::as_array() const {
  if (type_ != Type::kArray) {
    throw std::logic_error("JSON value is not an array");
  }
  return arr_;
}

const std::map<std::string, JsonValue>& JsonValue::as_object() const {
  if (type_ != Type::kObject) {
    throw std::logic_error("JSON value is not an object");
  }
  return obj_;
}

const JsonValue& JsonValue::at(const std::string& key) const {
  const auto& obj = as_object();
  const auto it = obj.find(key);
  if (it == obj.end()) {
    throw std::out_of_range("JSON object has no member '" + key + "'");
  }
  return it->second;
}

bool JsonValue::contains(const std::string& key) const {
  return type_ == Type::kObject && obj_.count(key) != 0;
}

const JsonValue& JsonValue::at(std::size_t index) const {
  const auto& arr = as_array();
  if (index >= arr.size()) {
    throw std::out_of_range("JSON array index out of range");
  }
  return arr[index];
}

std::size_t JsonValue::size() const {
  if (type_ == Type::kArray) return arr_.size();
  if (type_ == Type::kObject) return obj_.size();
  throw std::logic_error("JSON value has no size");
}

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after JSON document");
    return v;
  }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;

  [[noreturn]] void fail(const std::string& why) const {
    throw std::invalid_argument("JSON parse error at offset " +
                                std::to_string(pos_) + ": " + why);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': {
        JsonValue v;
        v.type_ = JsonValue::Type::kString;
        v.str_ = parse_string();
        return v;
      }
      case 't': {
        if (!consume_literal("true")) fail("bad literal");
        JsonValue v;
        v.type_ = JsonValue::Type::kBool;
        v.bool_ = true;
        return v;
      }
      case 'f': {
        if (!consume_literal("false")) fail("bad literal");
        JsonValue v;
        v.type_ = JsonValue::Type::kBool;
        return v;
      }
      case 'n': {
        if (!consume_literal("null")) fail("bad literal");
        return JsonValue{};
      }
      default: return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue v;
    v.type_ = JsonValue::Type::kObject;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.obj_.emplace(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue v;
    v.type_ = JsonValue::Type::kArray;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.arr_.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
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
          if (pos_ + 4 > text_.size()) fail("bad \\u escape");
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') cp |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') cp |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad hex digit in \\u escape");
          }
          // UTF-8 encode the code point (surrogate pairs are passed through
          // as separate code points — the exporters never emit them).
          if (cp < 0x80) {
            out.push_back(static_cast<char>(cp));
          } else if (cp < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          }
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    const std::string_view tok = text_.substr(start, pos_ - start);
    if (tok.empty() || tok == "-") fail("malformed number");
    JsonValue v;
    v.type_ = JsonValue::Type::kNumber;
    const std::string owned(tok);
    char* end = nullptr;
    v.num_ = std::strtod(owned.c_str(), &end);
    if (end != owned.c_str() + owned.size()) fail("malformed number");
    if (tok.find_first_of(".eE") == std::string_view::npos) {
      std::int64_t i = 0;
      if (std::from_chars(tok.data(), tok.data() + tok.size(), i).ec ==
          std::errc{}) {
        v.int_ = i;
        v.int_exact_ = true;
      }
      std::uint64_t u = 0;
      if (std::from_chars(tok.data(), tok.data() + tok.size(), u).ec ==
          std::errc{}) {
        v.uint_ = u;
        v.uint_exact_ = true;
      }
    }
    return v;
  }
};

JsonValue JsonValue::parse(std::string_view text) {
  return JsonParser(text).parse_document();
}

}  // namespace obs
