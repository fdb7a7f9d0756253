// Minimal JSON emission, validation, and parsing for the observability
// layer.
//
// The repo deliberately has no third-party JSON dependency, so the trace
// exporter, the event log, and the bench reporters share this tiny writer:
// a streaming emitter that tracks container nesting and inserts commas, plus
// a recursive-descent syntax validator used by tests and tools/trace_check
// to assert that everything we emit is well-formed. The trace-analysis side
// (kb2_analyze, the perf-regression gate) additionally needs to read those
// documents back, so the same descent also builds a JsonValue tree on
// demand.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace keybin2::runtime {

/// Escape a string for inclusion inside JSON quotes (adds no quotes itself).
/// Output is pure ASCII: control characters and everything >= 0x7F are
/// \u-escaped (valid UTF-8 sequences by code point, stray bytes as U+FFFD),
/// so Perfetto and other strict consumers never see a broken byte sequence.
std::string json_escape(std::string_view s);

/// Streaming JSON writer. Call begin_object()/begin_array() to open
/// containers, key() before each object member, and the value overloads to
/// emit scalars; commas are inserted automatically. str() returns the
/// document. The writer does not validate that keys/values alternate
/// correctly — json_validate() in tests keeps it honest.
class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Emit `"name":` for the next object member.
  JsonWriter& key(std::string_view name);

  JsonWriter& value(std::string_view s);
  JsonWriter& value(const char* s) { return value(std::string_view(s)); }
  JsonWriter& value(double d);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }
  JsonWriter& value(bool b);

  /// Splice a pre-rendered JSON fragment in as a value (no escaping).
  JsonWriter& raw(std::string_view json);

  const std::string& str() const { return out_; }

 private:
  void comma();

  std::string out_;
  // One entry per open container: the number of values emitted so far.
  std::vector<std::size_t> counts_;
  bool after_key_ = false;
};

/// Deepest container nesting json_validate() and json_parse() accept: far
/// above what bench reports, traces and analysis documents use, and low
/// enough that a hostile file cannot exhaust the parser's stack.
inline constexpr int kJsonMaxDepth = 256;

/// True iff `text` is a single well-formed JSON value (object, array,
/// string, number, bool, or null), nested at most kJsonMaxDepth deep, with
/// nothing but whitespace after it.
bool json_validate(std::string_view text);

/// Parsed JSON document node. Numbers are held as double (every number this
/// repo emits round-trips: timestamps are microsecond doubles, counters stay
/// below 2^53); object members preserve document order.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind() const { return kind_; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_number() const { return kind_ == Kind::kNumber; }

  bool boolean() const { return bool_; }
  double number() const { return number_; }
  const std::string& string() const { return string_; }
  const std::vector<JsonValue>& array() const { return array_; }
  const std::vector<std::pair<std::string, JsonValue>>& members() const {
    return members_;
  }

  /// Object member by key, or nullptr (also nullptr on non-objects).
  const JsonValue* find(std::string_view key) const;

  /// Walk nested objects: find("a", "b") == find("a")->find("b"), with
  /// nullptr short-circuiting.
  template <typename... Keys>
  const JsonValue* find(std::string_view key, Keys... rest) const {
    const JsonValue* v = find(key);
    return v == nullptr ? nullptr : v->find(rest...);
  }

  /// This value as a number, or `fallback` when absent/not numeric. Static
  /// so it composes with find(): JsonValue::number_or(v->find("mean"), 0).
  static double number_or(const JsonValue* v, double fallback) {
    return v != nullptr && v->is_number() ? v->number() : fallback;
  }

 private:
  friend std::optional<JsonValue> json_parse(std::string_view);
  friend struct JsonParser;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

/// Parse a complete JSON document; nullopt on any syntax error. Accepts
/// exactly what json_validate() accepts. \u escapes decode to UTF-8
/// (surrogate pairs included; lone surrogates become U+FFFD).
std::optional<JsonValue> json_parse(std::string_view text);

}  // namespace keybin2::runtime
