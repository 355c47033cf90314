// json.hpp — a minimal, dependency-free JSON document model.
//
// Supports the full JSON grammar (null, bool, number, string with escapes,
// array, object), parse errors with line/column diagnostics, and pretty
// printing. Object member order is preserved (designs round-trip in a
// stable, reviewable layout). This is the storage format for designs,
// workloads and scenarios (design_io.hpp), and the wire format of the
// service.
//
// Numbers: dump() prints whole numbers below 1e15 as printf's "%.0f" and
// every other finite value as "%.17g" (C locale, via std::to_chars), and
// non-finite values as null. parse() accepts exactly RFC 8259's number
// grammar (no "01", "-.5", "1." or "1.e3") and reads every finite value
// dump() writes back to the same bits, subnormals included; values beyond
// the double range are rejected.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <variant>
#include <vector>

namespace stordep::config {

class JsonError : public std::runtime_error {
 public:
  JsonError(const std::string& message, size_t line, size_t column);
  [[nodiscard]] size_t line() const noexcept { return line_; }
  [[nodiscard]] size_t column() const noexcept { return column_; }

 private:
  size_t line_;
  size_t column_;
};

class Json;
using JsonArray = std::vector<Json>;
/// Order-preserving object representation.
using JsonObject = std::vector<std::pair<std::string, Json>>;

class Json {
 public:
  Json() : value_(nullptr) {}
  Json(std::nullptr_t) : value_(nullptr) {}
  Json(bool b) : value_(b) {}
  Json(double n) : value_(n) {}
  Json(int n) : value_(static_cast<double>(n)) {}
  Json(std::int64_t n) : value_(static_cast<double>(n)) {}
  Json(const char* s) : value_(std::string(s)) {}
  Json(std::string s) : value_(std::move(s)) {}
  Json(JsonArray a) : value_(std::move(a)) {}
  Json(JsonObject o) : value_(std::move(o)) {}

  [[nodiscard]] bool isNull() const noexcept;
  [[nodiscard]] bool isBool() const noexcept;
  [[nodiscard]] bool isNumber() const noexcept;
  [[nodiscard]] bool isString() const noexcept;
  [[nodiscard]] bool isArray() const noexcept;
  [[nodiscard]] bool isObject() const noexcept;

  /// Typed accessors; throw std::runtime_error on type mismatch.
  [[nodiscard]] bool asBool() const;
  [[nodiscard]] double asNumber() const;
  [[nodiscard]] const std::string& asString() const;
  [[nodiscard]] const JsonArray& asArray() const;
  [[nodiscard]] const JsonObject& asObject() const;
  [[nodiscard]] JsonArray& asArray();
  [[nodiscard]] JsonObject& asObject();

  /// Object member lookup; returns nullptr when absent or not an object.
  [[nodiscard]] const Json* find(const std::string& key) const;
  /// Object member lookup; throws when absent.
  [[nodiscard]] const Json& at(const std::string& key) const;
  /// Appends/overwrites an object member.
  void set(const std::string& key, Json value);

  /// Compact single-line rendering.
  [[nodiscard]] std::string dump() const;
  /// Pretty rendering with 2-space indentation.
  [[nodiscard]] std::string pretty() const;

  /// Parses a complete JSON document (trailing garbage is an error).
  [[nodiscard]] static Json parse(const std::string& text);

  friend bool operator==(const Json& a, const Json& b);

 private:
  void write(std::string& out, int indent, int depth) const;

  std::variant<std::nullptr_t, bool, double, std::string, JsonArray,
               JsonObject>
      value_;
};

}  // namespace stordep::config
