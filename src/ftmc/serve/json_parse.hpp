// Minimal JSON parser for the `ftmc serve` request protocol — the read-side
// counterpart of the obs::Json writer (which stays the only *serializer* in
// the tree).  Strict RFC 8259 subset: objects, arrays, strings (with \uXXXX
// escapes), numbers, booleans, null; trailing garbage and over-deep nesting
// are rejected with JsonParseError so a malformed request fails the one
// request, never the server.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ftmc::serve {

class JsonParseError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  /// Integer tokens (no fraction or exponent part) whose magnitude fits 64
  /// bits also keep their exact value, which `number` rounds above 2^53.
  bool integer = false;
  bool negative = false;
  std::uint64_t magnitude = 0;
  std::string string;
  std::vector<JsonValue> array;
  /// Insertion order preserved; lookups take the first match.
  std::vector<std::pair<std::string, JsonValue>> object;

  bool is_null() const noexcept { return kind == Kind::kNull; }
  bool is_object() const noexcept { return kind == Kind::kObject; }
  bool is_string() const noexcept { return kind == Kind::kString; }

  /// Exact value of an integer token in range; nullopt for every other
  /// value (fractions, exponents, out-of-range integers, non-numbers).
  std::optional<std::uint64_t> as_u64() const noexcept;
  std::optional<std::int64_t> as_i64() const noexcept;

  /// Object member by key, or nullptr (also for non-objects).
  const JsonValue* get(std::string_view key) const noexcept;

  /// Typed accessors with defaults; wrong-kind members yield the default,
  /// and so does any number u64_or cannot represent exactly (see as_u64).
  std::string str_or(std::string_view key,
                     const std::string& fallback) const;
  double num_or(std::string_view key, double fallback) const;
  std::uint64_t u64_or(std::string_view key, std::uint64_t fallback) const;
  bool bool_or(std::string_view key, bool fallback) const;
};

/// Parses exactly one JSON document (surrounding whitespace allowed).
/// Throws JsonParseError with a byte offset on malformed input.
JsonValue parse_json(std::string_view text);

}  // namespace ftmc::serve
