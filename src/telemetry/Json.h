//===-- telemetry/Json.h - Minimal strict JSON DOM --------------*- C++ -*-==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small, strict JSON parser producing an immutable DOM. Used to read
/// back the tool's own machine-readable outputs (--stats-json files for
/// --report, schema-validation tests) without external dependencies.
/// It also holds the string escaper the ostream-based JSON writers share.
///
/// Strictness: the full input must be exactly one JSON value (trailing
/// non-whitespace rejected), escapes must be legal, strings must be
/// valid UTF-8 (no overlong forms, surrogates, or stray continuation
/// bytes), object keys must be unique, and numbers must match the JSON
/// grammar and fit a finite double. Numbers are stored as double —
/// adequate for every field the tool emits (all below 2^53). Nesting
/// is capped at 200 levels.
///
//===----------------------------------------------------------------------===//

#ifndef DMM_TELEMETRY_JSON_H
#define DMM_TELEMETRY_JSON_H

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dmm {
namespace json {

/// One JSON value. Object member order is preserved.
class Value {
public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Kind kind() const { return K; }
  bool isNull() const { return K == Kind::Null; }
  bool isBool() const { return K == Kind::Bool; }
  bool isNumber() const { return K == Kind::Number; }
  bool isString() const { return K == Kind::String; }
  bool isArray() const { return K == Kind::Array; }
  bool isObject() const { return K == Kind::Object; }

  bool boolean() const { return B; }
  double number() const { return Num; }
  int64_t asInt() const { return static_cast<int64_t>(Num); }
  uint64_t asUInt() const { return static_cast<uint64_t>(Num); }
  const std::string &str() const { return Str; }
  const std::vector<Value> &array() const { return Arr; }
  const std::vector<std::pair<std::string, Value>> &members() const {
    return Obj;
  }

  /// Object member lookup; null when absent or not an object.
  const Value *get(std::string_view Key) const;
  /// Typed lookups returning \p Default when the member is absent or of
  /// the wrong kind.
  double getNumber(std::string_view Key, double Default = 0) const;
  std::string getString(std::string_view Key,
                        std::string Default = std::string()) const;

private:
  friend class Parser;
  Kind K = Kind::Null;
  bool B = false;
  double Num = 0;
  std::string Str;
  std::vector<Value> Arr;
  std::vector<std::pair<std::string, Value>> Obj;
};

/// Parses \p Text into \p Out. On failure returns false and sets
/// \p Error to "offset N: message".
bool parse(std::string_view Text, Value &Out, std::string &Error);

/// Writes \p S as a JSON string literal: quotes and backslashes are
/// escaped, newline and tab as \n and \t, other control characters as
/// \u00XX; all other bytes pass through.
void writeString(std::ostream &OS, std::string_view S);

} // namespace json
} // namespace dmm

#endif // DMM_TELEMETRY_JSON_H
