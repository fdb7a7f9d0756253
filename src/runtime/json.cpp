#include "runtime/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace keybin2::runtime {

namespace {

void append_u_escape(std::string& out, std::uint32_t cp) {
  char buf[16];
  if (cp >= 0x10000) {
    // Encode as a UTF-16 surrogate pair, as JSON requires.
    cp -= 0x10000;
    std::snprintf(buf, sizeof(buf), "\\u%04x\\u%04x",
                  0xd800u + (cp >> 10), 0xdc00u + (cp & 0x3ffu));
  } else {
    std::snprintf(buf, sizeof(buf), "\\u%04x", cp);
  }
  out += buf;
}

/// Decode one UTF-8 sequence starting at s[i]; advances i past it and
/// returns the code point, or U+FFFD (advancing one byte) on a malformed
/// sequence.
std::uint32_t decode_utf8(std::string_view s, std::size_t& i) {
  const auto byte = [&](std::size_t k) {
    return static_cast<unsigned char>(s[k]);
  };
  const unsigned char b0 = byte(i);
  int len = 0;
  std::uint32_t cp = 0;
  if (b0 < 0x80) {
    ++i;
    return b0;
  } else if (b0 < 0xc0) {
    ++i;  // continuation byte on its own
    return 0xfffd;
  } else if (b0 < 0xe0) {
    len = 2;
    cp = b0 & 0x1fu;
  } else if (b0 < 0xf0) {
    len = 3;
    cp = b0 & 0x0fu;
  } else if (b0 < 0xf8) {
    len = 4;
    cp = b0 & 0x07u;
  } else {
    ++i;
    return 0xfffd;
  }
  if (i + static_cast<std::size_t>(len) > s.size()) {
    ++i;
    return 0xfffd;
  }
  for (int k = 1; k < len; ++k) {
    const unsigned char b = byte(i + static_cast<std::size_t>(k));
    if ((b & 0xc0u) != 0x80u) {
      ++i;
      return 0xfffd;
    }
    cp = (cp << 6) | (b & 0x3fu);
  }
  i += static_cast<std::size_t>(len);
  // Overlong encodings, surrogates, and out-of-range points are invalid.
  constexpr std::uint32_t kMinByLen[5] = {0, 0, 0x80, 0x800, 0x10000};
  if (cp < kMinByLen[len] || cp > 0x10ffff || (cp >= 0xd800 && cp <= 0xdfff)) {
    return 0xfffd;
  }
  return cp;
}

void append_utf8(std::string& out, std::uint32_t cp) {
  if (cp < 0x80) {
    out += static_cast<char>(cp);
  } else if (cp < 0x800) {
    out += static_cast<char>(0xc0u | (cp >> 6));
    out += static_cast<char>(0x80u | (cp & 0x3fu));
  } else if (cp < 0x10000) {
    out += static_cast<char>(0xe0u | (cp >> 12));
    out += static_cast<char>(0x80u | ((cp >> 6) & 0x3fu));
    out += static_cast<char>(0x80u | (cp & 0x3fu));
  } else {
    out += static_cast<char>(0xf0u | (cp >> 18));
    out += static_cast<char>(0x80u | ((cp >> 12) & 0x3fu));
    out += static_cast<char>(0x80u | ((cp >> 6) & 0x3fu));
    out += static_cast<char>(0x80u | (cp & 0x3fu));
  }
}

}  // namespace

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size();) {
    const char c = s[i];
    switch (c) {
      case '"': out += "\\\""; ++i; continue;
      case '\\': out += "\\\\"; ++i; continue;
      case '\n': out += "\\n"; ++i; continue;
      case '\r': out += "\\r"; ++i; continue;
      case '\t': out += "\\t"; ++i; continue;
      default: break;
    }
    const auto u = static_cast<unsigned char>(c);
    if (u < 0x20) {
      append_u_escape(out, u);
      ++i;
    } else if (u < 0x7f) {
      out += c;
      ++i;
    } else {
      // Non-ASCII: escape by code point so the emitted document is pure
      // ASCII regardless of the input encoding (span names may carry
      // arbitrary bytes; Perfetto rejects broken UTF-8).
      append_u_escape(out, decode_utf8(s, i));
    }
  }
  return out;
}

void JsonWriter::comma() {
  if (after_key_) {
    after_key_ = false;
    return;  // value completes a "key": pair; no comma between them
  }
  if (!counts_.empty() && counts_.back() > 0) out_ += ',';
  if (!counts_.empty()) ++counts_.back();
}

JsonWriter& JsonWriter::begin_object() {
  comma();
  out_ += '{';
  counts_.push_back(0);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  counts_.pop_back();
  out_ += '}';
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  comma();
  out_ += '[';
  counts_.push_back(0);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  counts_.pop_back();
  out_ += ']';
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view name) {
  if (!counts_.empty() && counts_.back() > 0) out_ += ',';
  if (!counts_.empty()) ++counts_.back();
  out_ += '"';
  out_ += json_escape(name);
  out_ += "\":";
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view s) {
  comma();
  out_ += '"';
  out_ += json_escape(s);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::value(double d) {
  comma();
  if (!std::isfinite(d)) {
    out_ += "null";  // JSON has no Inf/NaN
    return *this;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", d);
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  comma();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  comma();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::value(bool b) {
  comma();
  out_ += b ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::raw(std::string_view json) {
  comma();
  out_ += json;
  return *this;
}

// ---- Validator / parser ----
//
// One recursive descent serves both: json_validate() walks with a null
// output and builds nothing; json_parse() passes a JsonValue to fill.

struct JsonParser {
  std::string_view text;
  std::size_t pos = 0;

  void skip_ws() {
    while (pos < text.size() &&
           std::isspace(static_cast<unsigned char>(text[pos]))) {
      ++pos;
    }
  }

  bool eat(char c) {
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }

  bool literal(std::string_view word) {
    if (text.substr(pos, word.size()) != word) return false;
    pos += word.size();
    return true;
  }

  /// Read one \uXXXX quad (pos already past the 'u'); 0xffffffff on error.
  std::uint32_t hex_quad() {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      if (pos >= text.size() ||
          !std::isxdigit(static_cast<unsigned char>(text[pos]))) {
        return 0xffffffffu;
      }
      const char c = text[pos++];
      v = (v << 4) | static_cast<std::uint32_t>(
                         c <= '9' ? c - '0' : (c | 0x20) - 'a' + 10);
    }
    return v;
  }

  /// `into` == nullptr validates only.
  bool string(std::string* into) {
    if (!eat('"')) return false;
    while (pos < text.size()) {
      char c = text[pos++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (c != '\\') {
        if (into != nullptr) *into += c;
        continue;
      }
      if (pos >= text.size()) return false;
      char e = text[pos++];
      if (e == 'u') {
        std::uint32_t cp = hex_quad();
        if (cp == 0xffffffffu) return false;
        if (cp >= 0xd800 && cp <= 0xdbff) {
          // High surrogate: consume the matching low half when present,
          // else decode to U+FFFD.
          if (pos + 1 < text.size() && text[pos] == '\\' &&
              text[pos + 1] == 'u') {
            pos += 2;
            const std::uint32_t lo = hex_quad();
            if (lo == 0xffffffffu) return false;
            cp = lo >= 0xdc00 && lo <= 0xdfff
                     ? 0x10000 + ((cp - 0xd800) << 10) + (lo - 0xdc00)
                     : 0xfffd;
          } else {
            cp = 0xfffd;
          }
        } else if (cp >= 0xdc00 && cp <= 0xdfff) {
          cp = 0xfffd;  // lone low surrogate
        }
        if (into != nullptr) append_utf8(*into, cp);
      } else {
        const auto idx = std::string_view("\"\\/bfnrt").find(e);
        if (idx == std::string_view::npos) return false;
        if (into != nullptr) *into += "\"\\/\b\f\n\r\t"[idx];
      }
    }
    return false;  // unterminated
  }

  bool number(double* into) {
    const std::size_t start = pos;
    eat('-');
    while (pos < text.size() &&
           (std::isdigit(static_cast<unsigned char>(text[pos])) ||
            text[pos] == '.' || text[pos] == 'e' || text[pos] == 'E' ||
            text[pos] == '+' || text[pos] == '-')) {
      ++pos;
    }
    if (pos == start) return false;
    char* end = nullptr;
    const std::string token(text.substr(start, pos - start));
    const double d = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) return false;
    if (into != nullptr) *into = d;
    return true;
  }

  /// `into` == nullptr validates only. `depth` counts the containers
  /// around this value.
  bool value(JsonValue* into, int depth = 0) {
    skip_ws();
    if (pos >= text.size()) return false;
    if ((text[pos] == '{' || text[pos] == '[') && depth == kJsonMaxDepth) {
      return false;
    }
    switch (text[pos]) {
      case '{': {
        ++pos;
        if (into != nullptr) into->kind_ = JsonValue::Kind::kObject;
        skip_ws();
        if (eat('}')) return true;
        for (;;) {
          skip_ws();
          std::string key;
          if (!string(into != nullptr ? &key : nullptr)) return false;
          skip_ws();
          if (!eat(':')) return false;
          JsonValue* slot = nullptr;
          if (into != nullptr) {
            slot = &into->members_.emplace_back(std::move(key), JsonValue())
                        .second;
          }
          if (!value(slot, depth + 1)) return false;
          skip_ws();
          if (eat('}')) return true;
          if (!eat(',')) return false;
        }
      }
      case '[': {
        ++pos;
        if (into != nullptr) into->kind_ = JsonValue::Kind::kArray;
        skip_ws();
        if (eat(']')) return true;
        for (;;) {
          JsonValue* slot =
              into != nullptr ? &into->array_.emplace_back() : nullptr;
          if (!value(slot, depth + 1)) return false;
          skip_ws();
          if (eat(']')) return true;
          if (!eat(',')) return false;
        }
      }
      case '"':
        if (into != nullptr) {
          into->kind_ = JsonValue::Kind::kString;
          return string(&into->string_);
        }
        return string(nullptr);
      case 't':
        if (into != nullptr) {
          into->kind_ = JsonValue::Kind::kBool;
          into->bool_ = true;
        }
        return literal("true");
      case 'f':
        if (into != nullptr) into->kind_ = JsonValue::Kind::kBool;
        return literal("false");
      case 'n':
        return literal("null");
      default:
        if (into != nullptr) into->kind_ = JsonValue::Kind::kNumber;
        return number(into != nullptr ? &into->number_ : nullptr);
    }
  }
};

bool json_validate(std::string_view text) {
  JsonParser p{text};
  if (!p.value(nullptr)) return false;
  p.skip_ws();
  return p.pos == text.size();
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::optional<JsonValue> json_parse(std::string_view text) {
  JsonParser p{text};
  JsonValue root;
  if (!p.value(&root)) return std::nullopt;
  p.skip_ws();
  if (p.pos != text.size()) return std::nullopt;
  return root;
}

}  // namespace keybin2::runtime
