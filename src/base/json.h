#ifndef CALM_BASE_JSON_H_
#define CALM_BASE_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "base/status.h"

namespace calm {

// A minimal JSON document model for the record/replay trace format
// (transducer/confluence.h) and other tool-facing artifacts. Deliberately
// tiny: objects keep insertion order (so serialized traces diff cleanly),
// integers are kept exact as int64 (seeds and ticks are 64-bit; doubles
// would silently round past 2^53), and parsing is a strict recursive
// descent with no extensions.
class Json {
 public:
  enum class Kind { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  Json() : kind_(Kind::kNull) {}
  static Json Null() { return Json(); }
  static Json Bool(bool b);
  static Json Int(int64_t i);
  static Json Uint(uint64_t u) { return Int(static_cast<int64_t>(u)); }
  static Json Double(double d);
  static Json Str(std::string s);
  static Json Array();
  static Json Object();

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_int() const { return kind_ == Kind::kInt; }
  bool is_number() const {
    return kind_ == Kind::kInt || kind_ == Kind::kDouble;
  }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  bool bool_value() const { return bool_; }
  int64_t int_value() const;
  uint64_t uint_value() const { return static_cast<uint64_t>(int_value()); }
  double double_value() const;
  const std::string& string_value() const { return string_; }
  const std::vector<Json>& items() const { return items_; }
  const std::vector<std::pair<std::string, Json>>& members() const {
    return members_;
  }

  // Array append / object insert (no key de-duplication; callers build
  // fresh documents).
  void Append(Json value);
  void Set(std::string key, Json value);

  // Object lookup: nullptr when absent or not an object.
  const Json* Find(std::string_view key) const;

  // Typed object accessors returning InvalidArgument with the key name on
  // missing/mistyped members — parse errors in replayed traces must say
  // which field is bad.
  Result<int64_t> GetInt(std::string_view key) const;
  Result<uint64_t> GetUint(std::string_view key) const;
  Result<double> GetDouble(std::string_view key) const;
  Result<std::string> GetString(std::string_view key) const;
  Result<bool> GetBool(std::string_view key) const;
  // The array member `key` (InvalidArgument when absent/mistyped).
  Result<const Json*> GetArray(std::string_view key) const;

  // Serializes with 2-space indentation (indent < 0: single line).
  std::string Dump(int indent = 2) const;

  // Strict parse of a complete document (trailing whitespace allowed).
  // Total: any input yields a Json or InvalidArgument, including arrays and
  // objects nested deeper than kMaxDepth.
  static constexpr size_t kMaxDepth = 256;
  static Result<Json> Parse(std::string_view text);

 private:
  void DumpTo(std::string* out, int indent, int depth) const;

  Kind kind_;
  bool bool_ = false;
  int64_t int_ = 0;
  double double_ = 0;
  std::string string_;
  std::vector<Json> items_;
  std::vector<std::pair<std::string, Json>> members_;
};

}  // namespace calm

#endif  // CALM_BASE_JSON_H_
