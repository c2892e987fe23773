// Minimal JSON document model for the observability exporters.
//
// Every machine-readable artifact this repo emits (metrics snapshots,
// Chrome trace files, BENCH_*.json trajectories, bench_report summaries)
// goes through one writer with correct string escaping, and the test suite
// re-parses those artifacts with the same parser to pin well-formedness.
// This is a document model, not a streaming parser: artifacts here are
// megabytes at most.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util/error.h"

namespace fs::obs::json {

class Value;
using Array = std::vector<Value>;
/// std::map keeps exports deterministic (sorted keys) across runs.
using Object = std::map<std::string, Value>;

enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

class Value {
 public:
  Value() : type_(Type::kNull) {}
  Value(std::nullptr_t) : type_(Type::kNull) {}
  Value(bool b) : type_(Type::kBool), bool_(b) {}
  Value(double n) : type_(Type::kNumber), number_(n) {}
  Value(int n) : type_(Type::kNumber), number_(n) {}
  Value(long n) : type_(Type::kNumber), number_(static_cast<double>(n)) {}
  Value(long long n) : type_(Type::kNumber), number_(static_cast<double>(n)) {}
  Value(unsigned n) : type_(Type::kNumber), number_(n) {}
  Value(unsigned long n)
      : type_(Type::kNumber), number_(static_cast<double>(n)) {}
  Value(unsigned long long n)
      : type_(Type::kNumber), number_(static_cast<double>(n)) {}
  Value(const char* s) : type_(Type::kString), string_(s) {}
  Value(std::string s) : type_(Type::kString), string_(std::move(s)) {}
  Value(Array a) : type_(Type::kArray), array_(std::move(a)) {}
  Value(Object o) : type_(Type::kObject), object_(std::move(o)) {}

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  /// Typed accessors throw ParseError on a type mismatch so schema
  /// validators report what was wrong instead of crashing.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const Array& as_array() const;
  const Object& as_object() const;
  Array& as_array();
  Object& as_object();

  /// Object member lookup; throws ParseError when absent or not an object.
  const Value& at(const std::string& key) const;
  bool contains(const std::string& key) const;

  /// Serializes with full string escaping. indent 0 = compact single line;
  /// indent > 0 pretty-prints with that many spaces per level.
  std::string dump(int indent = 0) const;

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  Type type_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

/// Escapes a string body for embedding between JSON quotes (", \, control
/// characters). Exposed for the exporters that stream text directly.
std::string escape(const std::string& raw);

/// Parses a complete JSON document; throws fs::ParseError with an offset on
/// malformed input or arrays/objects nested more than 256 deep. Accepts the
/// JSON subset this repo emits (no \u surrogate pairs are *generated*, but
/// \uXXXX escapes are decoded).
Value parse(const std::string& text);

/// Writes `value` to `path` (pretty-printed), fsync-free; throws IoError on
/// failure. A trailing newline is appended.
void write_file(const std::string& path, const Value& value, int indent = 2);

}  // namespace fs::obs::json
