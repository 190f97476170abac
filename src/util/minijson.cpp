#include "util/minijson.hpp"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <string_view>

namespace nucon::util {
namespace {

struct Parser {
  const char* s;
  const char* begin;
  const char* end;
  JsonParseError* error;
  int depth = 0;

  [[nodiscard]] std::size_t line_of(const char* at) const {
    std::size_t line = 1;
    for (const char* p = begin; p < at; ++p) {
      if (*p == '\n') ++line;
    }
    return line;
  }

  bool fail(const std::string& msg) {
    if (error != nullptr && error->message.empty()) {
      error->message = msg;
      error->line = line_of(s);
    }
    return false;
  }

  void skip_ws() {
    while (s < end && (*s == ' ' || *s == '\t' || *s == '\n' || *s == '\r')) {
      ++s;
    }
  }

  bool parse_value(JsonValue& out);

  bool parse_string(std::string& out) {
    if (s >= end || *s != '"') return fail("expected string");
    ++s;
    out.clear();
    while (s < end && *s != '"') {
      if (*s == '\\') {
        ++s;
        if (s >= end) break;
        switch (*s) {
          case '"':
            out += '"';
            break;
          case '\\':
            out += '\\';
            break;
          case '/':
            out += '/';
            break;
          case 'n':
            out += '\n';
            break;
          case 't':
            out += '\t';
            break;
          case 'r':
            out += '\r';
            break;
          case 'b':
            out += '\b';
            break;
          case 'f':
            out += '\f';
            break;
          case 'u': {
            // The emitters only escape control bytes (< 0x20); decode the
            // low byte and ignore the (always-zero) high byte.
            if (end - s < 5) return fail("truncated \\u escape");
            char hex[5] = {s[1], s[2], s[3], s[4], 0};
            char* hex_end = nullptr;
            const long code = std::strtol(hex, &hex_end, 16);
            if (hex_end != hex + 4) return fail("bad \\u escape");
            out += static_cast<char>(code & 0xff);
            s += 4;
            break;
          }
          default:
            return fail("unknown escape");
        }
        ++s;
        continue;
      }
      out += *s;
      ++s;
    }
    if (s >= end) return fail("unterminated string");
    ++s;  // closing quote
    return true;
  }

  /// The comma-separated items of an array or object, from the opening
  /// bracket at `s` through `close`; `item` parses one.
  template <typename Item>
  bool sequence(char close, const char* what, Item item) {
    ++s;  // opening bracket
    skip_ws();
    if (s < end && *s == close) {
      ++s;
      return true;
    }
    while (true) {
      if (!item()) return false;
      skip_ws();
      if (s < end && *s == ',') {
        ++s;
        continue;
      }
      if (s < end && *s == close) {
        ++s;
        return true;
      }
      return fail(std::string("expected ',' or '") + close + "' in " + what);
    }
  }

  bool parse_object(JsonValue& out) {
    out.kind = JsonValue::Kind::kObject;
    return sequence('}', "object", [this, &out] {
      skip_ws();
      std::string key;
      if (!parse_string(key)) return false;
      skip_ws();
      if (s >= end || *s != ':') return fail("expected ':' in object");
      ++s;
      JsonValue value;
      if (!parse_value(value)) return false;
      out.members.emplace_back(std::move(key), std::move(value));
      return true;
    });
  }

  bool parse_array(JsonValue& out) {
    out.kind = JsonValue::Kind::kArray;
    return sequence(']', "array", [this, &out] {
      JsonValue value;
      if (!parse_value(value)) return false;
      out.array.push_back(std::move(value));
      return true;
    });
  }

  /// One of true/false/null.
  bool literal(std::string_view word, JsonValue& out,
               JsonValue::Kind kind, bool boolean) {
    if (static_cast<std::size_t>(end - s) < word.size() ||
        word.compare(0, word.size(), s, word.size()) != 0) {
      return fail("bad literal");
    }
    out.kind = kind;
    out.boolean = boolean;
    s += word.size();
    return true;
  }
};

bool Parser::parse_value(JsonValue& out) {
  skip_ws();
  if (s >= end) return fail("unexpected end of document");
  switch (*s) {
    case '{':
    case '[': {
      if (depth == kMaxJsonDepth) {
        return fail("nesting deeper than " + std::to_string(kMaxJsonDepth) +
                    " levels");
      }
      ++depth;
      const bool ok = *s == '{' ? parse_object(out) : parse_array(out);
      --depth;
      return ok;
    }
    case '"':
      out.kind = JsonValue::Kind::kString;
      return parse_string(out.string);
    case 't':
      return literal("true", out, JsonValue::Kind::kBool, true);
    case 'f':
      return literal("false", out, JsonValue::Kind::kBool, false);
    case 'n':
      return literal("null", out, JsonValue::Kind::kNull, false);
    default: {
      char* num_end = nullptr;
      const double v = std::strtod(s, &num_end);
      if (num_end == s) return fail("unexpected character");
      out.kind = JsonValue::Kind::kNumber;
      out.number = v;
      out.string.assign(s, static_cast<std::size_t>(num_end - s));
      s = num_end;
      return true;
    }
  }
}

template <typename Int>
std::optional<Int> exact_integer(const JsonValue& v) {
  if (!v.is_number()) return std::nullopt;
  const char* first = v.string.data();
  const char* last = first + v.string.size();
  Int out{};
  const auto [ptr, ec] = std::from_chars(first, last, out);
  if (ec != std::errc() || ptr != last) return std::nullopt;
  return out;
}

}  // namespace

std::optional<std::int64_t> JsonValue::as_int() const {
  return exact_integer<std::int64_t>(*this);
}

std::optional<std::uint64_t> JsonValue::as_uint() const {
  return exact_integer<std::uint64_t>(*this);
}

const JsonValue* JsonValue::find(const std::string& key) const {
  if (!is_object()) return nullptr;
  for (const auto& [k, v] : members) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::optional<double> JsonValue::number_at(const std::string& key) const {
  const JsonValue* v = find(key);
  if (v == nullptr || !v->is_number()) return std::nullopt;
  return v->number;
}

std::optional<std::string> JsonValue::string_at(const std::string& key) const {
  const JsonValue* v = find(key);
  if (v == nullptr || !v->is_string()) return std::nullopt;
  return v->string;
}

const std::vector<JsonValue>& JsonValue::array_at(
    const std::string& key) const {
  static const std::vector<JsonValue> kNone;
  const JsonValue* v = find(key);
  return v != nullptr && v->is_array() ? v->array : kNone;
}

std::optional<JsonValue> parse_json(const std::string& text,
                                    JsonParseError* error) {
  Parser p{text.data(), text.data(), text.data() + text.size(), error};
  JsonValue out;
  if (!p.parse_value(out)) return std::nullopt;
  p.skip_ws();
  if (p.s != p.end) {
    p.fail("trailing bytes after the JSON document");
    return std::nullopt;
  }
  return out;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
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
  return out;
}

std::string json_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  for (int prec = 1; prec < 17; ++prec) {
    char shorter[32];
    std::snprintf(shorter, sizeof shorter, "%.*g", prec, v);
    if (std::strtod(shorter, nullptr) == v) return shorter;
  }
  return buf;
}

}  // namespace nucon::util
