#include "ftmc/serve/json_parse.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <limits>

namespace ftmc::serve {

const JsonValue* JsonValue::get(std::string_view key) const noexcept {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [name, value] : object)
    if (name == key) return &value;
  return nullptr;
}

std::string JsonValue::str_or(std::string_view key,
                              const std::string& fallback) const {
  const JsonValue* value = get(key);
  return value != nullptr && value->kind == Kind::kString ? value->string
                                                          : fallback;
}

double JsonValue::num_or(std::string_view key, double fallback) const {
  const JsonValue* value = get(key);
  return value != nullptr && value->kind == Kind::kNumber ? value->number
                                                          : fallback;
}

std::optional<std::uint64_t> JsonValue::as_u64() const noexcept {
  if (!integer || negative) return std::nullopt;
  return magnitude;
}

std::optional<std::int64_t> JsonValue::as_i64() const noexcept {
  constexpr auto kMax =
      static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max());
  if (!integer || magnitude > kMax + (negative ? 1 : 0)) return std::nullopt;
  // Two's-complement negation in unsigned arithmetic covers -2^63 too.
  return negative ? static_cast<std::int64_t>(~magnitude + 1)
                  : static_cast<std::int64_t>(magnitude);
}

std::uint64_t JsonValue::u64_or(std::string_view key,
                                std::uint64_t fallback) const {
  const JsonValue* value = get(key);
  if (value == nullptr) return fallback;
  return value->as_u64().value_or(fallback);
}

bool JsonValue::bool_or(std::string_view key, bool fallback) const {
  const JsonValue* value = get(key);
  return value != nullptr && value->kind == Kind::kBool ? value->boolean
                                                        : fallback;
}

namespace {

constexpr std::size_t kMaxDepth = 64;

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue run() {
    JsonValue value = parse_value(0);
    skip_whitespace();
    if (pos_ != text_.size())
      fail("trailing bytes after the JSON document");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw JsonParseError("JSON parse error at byte " + std::to_string(pos_) +
                         ": " + what);
  }

  void skip_whitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c)
      fail(std::string("expected '") + c + "', found '" + peek() + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  JsonValue parse_value(std::size_t depth) {
    if (depth > kMaxDepth) fail("nesting deeper than 64 levels");
    skip_whitespace();
    const char c = peek();
    if (c == '{') return parse_object(depth);
    if (c == '[') return parse_array(depth);
    if (c == '"') {
      JsonValue value;
      value.kind = JsonValue::Kind::kString;
      value.string = parse_string();
      return value;
    }
    if (consume_literal("null")) return JsonValue{};
    if (consume_literal("true")) {
      JsonValue value;
      value.kind = JsonValue::Kind::kBool;
      value.boolean = true;
      return value;
    }
    if (consume_literal("false")) {
      JsonValue value;
      value.kind = JsonValue::Kind::kBool;
      value.boolean = false;
      return value;
    }
    return parse_number();
  }

  JsonValue parse_object(std::size_t depth) {
    JsonValue value;
    value.kind = JsonValue::Kind::kObject;
    expect('{');
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
      return value;
    }
    for (;;) {
      skip_whitespace();
      std::string key = parse_string();
      skip_whitespace();
      expect(':');
      value.object.emplace_back(std::move(key), parse_value(depth + 1));
      skip_whitespace();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return value;
    }
  }

  JsonValue parse_array(std::size_t depth) {
    JsonValue value;
    value.kind = JsonValue::Kind::kArray;
    expect('[');
    skip_whitespace();
    if (peek() == ']') {
      ++pos_;
      return value;
    }
    for (;;) {
      value.array.push_back(parse_value(depth + 1));
      skip_whitespace();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return value;
    }
  }

  unsigned parse_hex4() {
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = peek();
      ++pos_;
      code <<= 4;
      if (c >= '0' && c <= '9')
        code |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f')
        code |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F')
        code |= static_cast<unsigned>(c - 'A' + 10);
      else
        fail("invalid \\u escape digit");
    }
    return code;
  }

  void append_utf8(std::string& out, unsigned code) {
    if (code < 0x80) {
      out.push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (code >> 6)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else if (code < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (code >> 12)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (code >> 18)));
      out.push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20)
        fail("raw control character in string");
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char escape = text_[pos_++];
      switch (escape) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          unsigned code = parse_hex4();
          if (code >= 0xD800 && code <= 0xDBFF) {
            // Surrogate pair: require the matching low half.
            if (!consume_literal("\\u")) fail("unpaired UTF-16 surrogate");
            const unsigned low = parse_hex4();
            if (low < 0xDC00 || low > 0xDFFF)
              fail("invalid UTF-16 low surrogate");
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
          } else if (code >= 0xDC00 && code <= 0xDFFF) {
            fail("unpaired UTF-16 surrogate");
          }
          append_utf8(out, code);
          break;
        }
        default: fail("invalid escape character");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-'))
      ++pos_;
    if (pos_ == start || (pos_ == start + 1 && text_[start] == '-'))
      fail("invalid value");
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0' || !std::isfinite(value)) {
      pos_ = start;
      fail("invalid number");
    }
    JsonValue result;
    result.kind = JsonValue::Kind::kNumber;
    result.number = value;
    if (token.find_first_of(".eE") == std::string::npos) {
      const bool negative = token.front() == '-';
      const char* const last = token.data() + token.size();
      const auto [ptr, ec] = std::from_chars(
          token.data() + (negative ? 1 : 0), last, result.magnitude);
      result.integer = ec == std::errc() && ptr == last;
      result.negative = result.integer && negative && result.magnitude != 0;
    }
    return result;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

JsonValue parse_json(std::string_view text) { return Parser(text).run(); }

}  // namespace ftmc::serve
