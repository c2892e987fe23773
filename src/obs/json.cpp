#include "obs/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

namespace fs::obs::json {

namespace {

[[noreturn]] void type_error(const char* wanted, Type got) {
  static const char* const kNames[] = {"null",   "bool",  "number",
                                       "string", "array", "object"};
  throw ParseError(std::string("json: expected ") + wanted + ", got " +
                   kNames[static_cast<int>(got)]);
}

}  // namespace

bool Value::as_bool() const {
  if (type_ != Type::kBool) type_error("bool", type_);
  return bool_;
}

double Value::as_number() const {
  if (type_ != Type::kNumber) type_error("number", type_);
  return number_;
}

const std::string& Value::as_string() const {
  if (type_ != Type::kString) type_error("string", type_);
  return string_;
}

const Array& Value::as_array() const {
  if (type_ != Type::kArray) type_error("array", type_);
  return array_;
}

const Object& Value::as_object() const {
  if (type_ != Type::kObject) type_error("object", type_);
  return object_;
}

Array& Value::as_array() {
  if (type_ != Type::kArray) type_error("array", type_);
  return array_;
}

Object& Value::as_object() {
  if (type_ != Type::kObject) type_error("object", type_);
  return object_;
}

const Value& Value::at(const std::string& key) const {
  const Object& obj = as_object();
  const auto it = obj.find(key);
  if (it == obj.end())
    throw ParseError("json: missing key '" + key + "'");
  return it->second;
}

bool Value::contains(const std::string& key) const {
  return is_object() && object_.count(key) > 0;
}

std::string escape(const std::string& raw) {
  std::string out;
  out.reserve(raw.size() + 8);
  for (const char ch : raw) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(ch)));
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out;
}

namespace {

void append_number(std::string& out, double v) {
  // JSON has no NaN/Inf; they surface as null so a consumer sees "missing"
  // instead of a parse failure.
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  // Integers (counters, counts) print exactly; everything else round-trips
  // through %.17g.
  if (v == std::floor(v) && std::abs(v) < 9.007199254740992e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    out += buf;
  } else {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += buf;
  }
}

void append_indent(std::string& out, int indent, int depth) {
  if (indent <= 0) return;
  out += '\n';
  out.append(static_cast<std::size_t>(indent) * depth, ' ');
}

}  // namespace

void Value::dump_to(std::string& out, int indent, int depth) const {
  switch (type_) {
    case Type::kNull: out += "null"; break;
    case Type::kBool: out += bool_ ? "true" : "false"; break;
    case Type::kNumber: append_number(out, number_); break;
    case Type::kString:
      out += '"';
      out += escape(string_);
      out += '"';
      break;
    case Type::kArray: {
      if (array_.empty()) {
        out += "[]";
        break;
      }
      out += '[';
      bool first = true;
      for (const Value& v : array_) {
        if (!first) out += ',';
        first = false;
        append_indent(out, indent, depth + 1);
        v.dump_to(out, indent, depth + 1);
      }
      append_indent(out, indent, depth);
      out += ']';
      break;
    }
    case Type::kObject: {
      if (object_.empty()) {
        out += "{}";
        break;
      }
      out += '{';
      bool first = true;
      for (const auto& [key, v] : object_) {
        if (!first) out += ',';
        first = false;
        append_indent(out, indent, depth + 1);
        out += '"';
        out += escape(key);
        out += "\":";
        if (indent > 0) out += ' ';
        v.dump_to(out, indent, depth + 1);
      }
      append_indent(out, indent, depth);
      out += '}';
      break;
    }
  }
}

std::string Value::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

// ---- parser ------------------------------------------------------------

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Value parse_document() {
    Value v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing garbage");
    return v;
  }

 private:
  // Containers nest by recursion: a fixed depth bound keeps hostile input
  // from exhausting the stack.
  static constexpr int kMaxDepth = 256;

  [[noreturn]] void fail(const std::string& why) const {
    throw ParseError("json: " + why + " at offset " + std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char ch) {
    if (peek() != ch) fail(std::string("expected '") + ch + "'");
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    const std::size_t len = std::char_traits<char>::length(lit);
    if (text_.compare(pos_, len, lit) != 0) return false;
    pos_ += len;
    return true;
  }

  Value parse_value() {
    skip_ws();
    const char ch = peek();
    if (ch == '{' || ch == '[') {
      if (++depth_ > kMaxDepth)
        fail("nesting deeper than " + std::to_string(kMaxDepth));
      Value v = ch == '{' ? parse_object() : parse_array();
      --depth_;
      return v;
    }
    if (ch == '"') return Value(parse_string());
    if (ch == 't') {
      if (!consume_literal("true")) fail("bad literal");
      return Value(true);
    }
    if (ch == 'f') {
      if (!consume_literal("false")) fail("bad literal");
      return Value(false);
    }
    if (ch == 'n') {
      if (!consume_literal("null")) fail("bad literal");
      return Value(nullptr);
    }
    return parse_number();
  }

  Value parse_object() {
    expect('{');
    Object obj;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Value(std::move(obj));
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj[std::move(key)] = parse_value();
      skip_ws();
      const char ch = peek();
      if (ch == ',') {
        ++pos_;
        continue;
      }
      if (ch == '}') {
        ++pos_;
        return Value(std::move(obj));
      }
      fail("expected ',' or '}'");
    }
  }

  Value parse_array() {
    expect('[');
    Array arr;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Value(std::move(arr));
    }
    while (true) {
      arr.push_back(parse_value());
      skip_ws();
      const char ch = peek();
      if (ch == ',') {
        ++pos_;
        continue;
      }
      if (ch == ']') {
        ++pos_;
        return Value(std::move(arr));
      }
      fail("expected ',' or ']'");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char ch = text_[pos_++];
      if (ch == '"') return out;
      if (static_cast<unsigned char>(ch) < 0x20)
        fail("raw control character in string");
      if (ch != '\\') {
        out += ch;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("short \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char hex = text_[pos_++];
            code <<= 4;
            if (hex >= '0' && hex <= '9') code |= hex - '0';
            else if (hex >= 'a' && hex <= 'f') code |= hex - 'a' + 10;
            else if (hex >= 'A' && hex <= 'F') code |= hex - 'A' + 10;
            else fail("bad \\u escape digit");
          }
          // UTF-8 encode the code point (BMP only; the writer never emits
          // surrogate pairs).
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
        default: fail("bad escape character");
      }
    }
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-'))
      ++pos_;
    if (pos_ == start) fail("expected a value");
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') fail("bad number '" + token + "'");
    return Value(v);
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

Value parse(const std::string& text) { return Parser(text).parse_document(); }

void write_file(const std::string& path, const Value& value, int indent) {
  std::ofstream out(path);
  if (!out) throw IoError("json::write_file: cannot open " + path);
  out << value.dump(indent) << '\n';
  if (!out.flush()) throw IoError("json::write_file: write failed for " + path);
}

}  // namespace fs::obs::json
