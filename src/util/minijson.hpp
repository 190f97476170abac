// The one JSON module: a minimal DOM parser plus the two emitter helpers.
//
// Every JSON document in this library goes through here. The emitters
// (obs/report.cpp BENCH reports, prof/trend.cpp ledger lines,
// trace/trace_recorder.cpp JSONL traces) build their byte-exact documents
// by hand with json_escape and json_number; the readers (report
// validation, the trend engine, nucon_bench, trace_reader) parse them back
// with parse_json. Objects keep insertion order (the emitters write
// deterministically ordered documents and the trend tables preserve that
// order). A number keeps its literal token next to its double, so the
// integer accessors are exact: a double cannot hold a 64-bit state hash.
// Nesting is capped at kMaxJsonDepth, so hostile input gets a diagnostic
// instead of a stack overflow. Errors carry the 1-based line number of the
// offending byte.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace nucon::util {

/// Arrays and objects nested deeper than this are a parse error. Every
/// document the emitters write nests fewer than ten levels.
inline constexpr int kMaxJsonDepth = 64;

struct JsonValue;

/// Insertion-ordered object entries; lookups are linear (documents here
/// are small: a handful of keys per object).
using JsonMembers = std::vector<std::pair<std::string, JsonValue>>;

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  /// kString: the unescaped text. kNumber: the literal token as written,
  /// which as_int/as_uint read exactly.
  std::string string;
  std::vector<JsonValue> array;
  JsonMembers members;

  [[nodiscard]] bool is_object() const { return kind == Kind::kObject; }
  [[nodiscard]] bool is_array() const { return kind == Kind::kArray; }
  [[nodiscard]] bool is_number() const { return kind == Kind::kNumber; }
  [[nodiscard]] bool is_string() const { return kind == Kind::kString; }

  /// The number as an exact integer: nullopt unless this is a number whose
  /// token is a plain integer within the type's range ("1.0", "1e3" and
  /// out-of-range tokens are rejected, never rounded or clamped).
  [[nodiscard]] std::optional<std::int64_t> as_int() const;
  [[nodiscard]] std::optional<std::uint64_t> as_uint() const;

  /// Member lookup on an object (nullptr when absent or not an object).
  [[nodiscard]] const JsonValue* find(const std::string& key) const;

  /// Convenience accessors returning nullopt on kind mismatch / absence.
  [[nodiscard]] std::optional<double> number_at(const std::string& key) const;
  [[nodiscard]] std::optional<std::string> string_at(
      const std::string& key) const;
  /// The elements of an array member; empty when absent or not an array.
  [[nodiscard]] const std::vector<JsonValue>& array_at(
      const std::string& key) const;
};

/// Parse failure: message plus the 1-based line of the offending byte, or
/// 0 when no one line is at fault. trace::ParseError is this type, so the
/// CLIs print uniform "line N: message" diagnostics.
struct JsonParseError {
  std::string message;
  std::size_t line = 0;

  [[nodiscard]] std::string to_string() const {
    return line == 0 ? message
                     : "line " + std::to_string(line) + ": " + message;
  }
};

/// Parses exactly one JSON document (trailing whitespace allowed, trailing
/// bytes rejected). Returns nullopt on failure; `error`, when non-null,
/// receives the diagnostic.
[[nodiscard]] std::optional<JsonValue> parse_json(const std::string& text,
                                                  JsonParseError* error);

/// The body of a JSON string literal for `s` (no surrounding quotes):
/// escapes quote, backslash, newline and the other control bytes.
[[nodiscard]] std::string json_escape(const std::string& s);

/// The shortest decimal rendering of `v` that parses back to the same
/// double, so every emitted number round-trips bit for bit.
[[nodiscard]] std::string json_number(double v);

}  // namespace nucon::util
