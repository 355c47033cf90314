#include "config/json.hpp"

#include <array>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <system_error>

namespace stordep::config {

JsonError::JsonError(const std::string& message, size_t line, size_t column)
    : std::runtime_error("JSON error at " + std::to_string(line) + ":" +
                         std::to_string(column) + ": " + message),
      line_(line),
      column_(column) {}

bool Json::isNull() const noexcept {
  return std::holds_alternative<std::nullptr_t>(value_);
}
bool Json::isBool() const noexcept {
  return std::holds_alternative<bool>(value_);
}
bool Json::isNumber() const noexcept {
  return std::holds_alternative<double>(value_);
}
bool Json::isString() const noexcept {
  return std::holds_alternative<std::string>(value_);
}
bool Json::isArray() const noexcept {
  return std::holds_alternative<JsonArray>(value_);
}
bool Json::isObject() const noexcept {
  return std::holds_alternative<JsonObject>(value_);
}

bool Json::asBool() const {
  if (!isBool()) throw std::runtime_error("JSON value is not a bool");
  return std::get<bool>(value_);
}
double Json::asNumber() const {
  if (!isNumber()) throw std::runtime_error("JSON value is not a number");
  return std::get<double>(value_);
}
const std::string& Json::asString() const {
  if (!isString()) throw std::runtime_error("JSON value is not a string");
  return std::get<std::string>(value_);
}
const JsonArray& Json::asArray() const {
  if (!isArray()) throw std::runtime_error("JSON value is not an array");
  return std::get<JsonArray>(value_);
}
const JsonObject& Json::asObject() const {
  if (!isObject()) throw std::runtime_error("JSON value is not an object");
  return std::get<JsonObject>(value_);
}
JsonArray& Json::asArray() {
  if (!isArray()) throw std::runtime_error("JSON value is not an array");
  return std::get<JsonArray>(value_);
}
JsonObject& Json::asObject() {
  if (!isObject()) throw std::runtime_error("JSON value is not an object");
  return std::get<JsonObject>(value_);
}

const Json* Json::find(const std::string& key) const {
  if (!isObject()) return nullptr;
  for (const auto& [k, v] : std::get<JsonObject>(value_)) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Json& Json::at(const std::string& key) const {
  const Json* found = find(key);
  if (found == nullptr) {
    throw std::runtime_error("missing JSON member '" + key + "'");
  }
  return *found;
}

void Json::set(const std::string& key, Json value) {
  if (isNull()) value_ = JsonObject{};
  if (!isObject()) throw std::runtime_error("JSON value is not an object");
  for (auto& [k, v] : std::get<JsonObject>(value_)) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  std::get<JsonObject>(value_).emplace_back(key, std::move(value));
}

bool operator==(const Json& a, const Json& b) { return a.value_ == b.value_; }

namespace {

void escapeString(std::string& out, const std::string& s) {
  static constexpr char kHex[] = "0123456789abcdef";
  out += '"';
  // Plain characters are copied a run at a time, up to the next byte that
  // needs an escape.
  std::size_t runStart = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s, runStart, i - runStart);
    runStart = i + 1;
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
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      default:
        out += "\\u00";
        out += kHex[c >> 4];
        out += kHex[c & 0xF];
    }
  }
  out.append(s, runStart);
  out += '"';
}

/// Prints the bytes printf gives in the C locale: "%.0f" for whole numbers
/// below 1e15 (negative zero stays "-0"), "%.17g" otherwise, which
/// std::to_chars with general format and precision 17 is defined to match.
void writeNumber(std::string& out, double n) {
  if (!std::isfinite(n)) {
    // JSON has no infinity; serialize as null (readers treat it as absent).
    out += "null";
    return;
  }
  std::array<char, 32> buf{};
  char* const first = buf.data();
  char* const last = buf.data() + buf.size();
  std::to_chars_result printed{};
  if (n == std::floor(n) && std::fabs(n) < 1e15) {
    if (n == 0.0 && std::signbit(n)) {
      out += "-0";
      return;
    }
    printed = std::to_chars(first, last, static_cast<std::int64_t>(n));
  } else {
    printed = std::to_chars(first, last, n, std::chars_format::general, 17);
  }
  out.append(first, printed.ptr);
}

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Json parseDocument() {
    Json value = parseValue();
    skipWhitespace();
    if (pos_ != text_.size()) fail("trailing characters after JSON value");
    return value;
  }

 private:
  /// Deepest container nesting accepted. Generous for real design documents
  /// (a handful of levels) while keeping worst-case parser stack use small
  /// enough for sanitizer builds and constrained threads.
  static constexpr int kMaxDepth = 256;

  [[noreturn]] void fail(const std::string& message) const {
    throw JsonError(message, line_, pos_ - lineStart_ + 1);
  }

  [[nodiscard]] char peek() const {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  char advance() {
    const char c = peek();
    ++pos_;
    if (c == '\n') {
      ++line_;
      lineStart_ = pos_;
    }
    return c;
  }

  void skipWhitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        advance();
      } else {
        break;
      }
    }
  }

  void expect(char c) {
    if (advance() != c) fail(std::string("expected '") + c + "'");
  }

  void expectLiteral(const char* literal) {
    for (const char* p = literal; *p != '\0'; ++p) {
      if (pos_ >= text_.size() || text_[pos_] != *p) {
        fail(std::string("invalid literal, expected '") + literal + "'");
      }
      ++pos_;
    }
  }

  Json parseValue() {
    skipWhitespace();
    switch (peek()) {
      case '{':
      case '[': {
        // Recursive descent: bound the nesting depth so hostile documents
        // ("[[[[...") fail with a JsonError instead of smashing the stack.
        if (depth_ >= kMaxDepth) fail("nesting too deep");
        ++depth_;
        Json value = peek() == '{' ? parseObject() : parseArray();
        --depth_;
        return value;
      }
      case '"':
        return Json(parseString());
      case 't':
        expectLiteral("true");
        return Json(true);
      case 'f':
        expectLiteral("false");
        return Json(false);
      case 'n':
        expectLiteral("null");
        return Json(nullptr);
      default:
        return parseNumber();
    }
  }

  Json parseObject() {
    expect('{');
    JsonObject object;
    skipWhitespace();
    if (peek() == '}') {
      advance();
      return Json(std::move(object));
    }
    for (;;) {
      skipWhitespace();
      if (peek() != '"') fail("object keys must be strings");
      std::string key = parseString();
      skipWhitespace();
      expect(':');
      object.emplace_back(std::move(key), parseValue());
      skipWhitespace();
      const char c = advance();
      if (c == '}') break;
      if (c != ',') fail("expected ',' or '}' in object");
    }
    return Json(std::move(object));
  }

  Json parseArray() {
    expect('[');
    JsonArray array;
    skipWhitespace();
    if (peek() == ']') {
      advance();
      return Json(std::move(array));
    }
    for (;;) {
      array.push_back(parseValue());
      skipWhitespace();
      const char c = advance();
      if (c == ']') break;
      if (c != ',') fail("expected ',' or ']' in array");
    }
    return Json(std::move(array));
  }

  std::string parseString() {
    expect('"');
    std::string out;
    for (;;) {
      // Copy the run of plain characters up to the next quote, backslash
      // or control character in one append.
      const std::size_t runStart = pos_;
      while (pos_ < text_.size()) {
        const auto c = static_cast<unsigned char>(text_[pos_]);
        if (c < 0x20 || c == '"' || c == '\\') break;
        ++pos_;
      }
      out.append(text_, runStart, pos_ - runStart);
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') break;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("raw control character in string (use \\u escapes)");
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
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
        case 'r':
          out += '\r';
          break;
        case 't':
          out += '\t';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("invalid \\u escape digit");
            }
          }
          // Encode as UTF-8 (basic multilingual plane; surrogate pairs in
          // design files are not expected, treated as two code points).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          fail("unknown escape sequence");
      }
    }
    return out;
  }

  [[nodiscard]] bool digitAt(std::size_t i) const {
    return i < text_.size() && text_[i] >= '0' && text_[i] <= '9';
  }

  /// RFC 8259 number: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?,
  /// checked while scanning, then converted in place by std::from_chars
  /// (exact, subnormals included, independent of the process locale).
  /// Values beyond the double range are rejected.
  Json parseNumber() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    if (!digitAt(pos_)) {
      fail(pos_ == start ? "invalid start of value"
                         : "expected a digit after '-'");
    }
    if (text_[pos_++] == '0') {
      if (digitAt(pos_)) fail("leading zero in number");
    } else {
      while (digitAt(pos_)) ++pos_;
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (!digitAt(pos_)) fail("expected a digit after '.'");
      while (digitAt(pos_)) ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (!digitAt(pos_)) fail("expected a digit in exponent");
      while (digitAt(pos_)) ++pos_;
    }
    const char* const first = text_.data() + start;
    const char* const last = text_.data() + pos_;
    double value = 0.0;
    const std::from_chars_result read = std::from_chars(first, last, value);
    if (read.ec != std::errc{} || read.ptr != last) {
      fail("invalid number '" + std::string(first, last) + "'");
    }
    return Json(value);
  }

  const std::string& text_;
  size_t pos_ = 0;
  size_t line_ = 1;
  size_t lineStart_ = 0;
  int depth_ = 0;
};

}  // namespace

void Json::write(std::string& out, int indent, int depth) const {
  const std::size_t pad = static_cast<std::size_t>(indent) * depth;
  const std::size_t childPad = pad + static_cast<std::size_t>(indent);
  const char* nl = indent > 0 ? "\n" : "";
  const char* space = indent > 0 ? "" : " ";

  if (isNull()) {
    out += "null";
  } else if (isBool()) {
    out += asBool() ? "true" : "false";
  } else if (isNumber()) {
    writeNumber(out, asNumber());
  } else if (isString()) {
    escapeString(out, asString());
  } else if (isArray()) {
    const JsonArray& array = asArray();
    if (array.empty()) {
      out += "[]";
      return;
    }
    out += '[';
    out += nl;
    for (size_t i = 0; i < array.size(); ++i) {
      out.append(childPad, ' ');
      array[i].write(out, indent, depth + 1);
      if (i + 1 < array.size()) {
        out += ',';
        out += space;
      }
      out += nl;
    }
    out.append(pad, ' ');
    out += ']';
  } else {
    const JsonObject& object = asObject();
    if (object.empty()) {
      out += "{}";
      return;
    }
    out += '{';
    out += nl;
    for (size_t i = 0; i < object.size(); ++i) {
      out.append(childPad, ' ');
      escapeString(out, object[i].first);
      out += indent > 0 ? ": " : ":";
      object[i].second.write(out, indent, depth + 1);
      if (i + 1 < object.size()) {
        out += ',';
        out += space;
      }
      out += nl;
    }
    out.append(pad, ' ');
    out += '}';
  }
}

std::string Json::dump() const {
  std::string out;
  write(out, 0, 0);
  return out;
}

std::string Json::pretty() const {
  std::string out;
  write(out, 2, 0);
  return out;
}

Json Json::parse(const std::string& text) {
  return Parser(text).parseDocument();
}

}  // namespace stordep::config
