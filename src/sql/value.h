/// \file value.h
/// \brief The dynamic value type flowing through the relational, graph,
/// time-series and spatial engines. FI-MPPDB stores all models over an
/// extended relational core (paper §II-B), so a single Value type is the
/// interchange currency between engines.
#pragma once

#include <cstdint>
#include <string>
#include <variant>

#include "common/result.h"

namespace ofi::sql {

/// Column/value types supported by the engine.
enum class TypeId : uint8_t {
  kNull = 0,
  kBool,
  kInt64,
  kDouble,
  kString,
  kTimestamp,  // microseconds since epoch, stored as int64 payload
};

/// Renders the type as its SQL-ish keyword ("BIGINT", "VARCHAR", ...).
std::string TypeToString(TypeId type);

/// \brief A dynamically typed SQL value. NULL compares as the smallest value
/// in sort order and never equals anything under SQL comparison semantics
/// (use Equals() for grouping/join keys, which treats NULL = NULL as true).
class Value {
 public:
  Value() : type_(TypeId::kNull) {}
  explicit Value(bool v) : type_(TypeId::kBool), payload_(v) {}
  explicit Value(int64_t v) : type_(TypeId::kInt64), payload_(v) {}
  explicit Value(int v) : type_(TypeId::kInt64), payload_(static_cast<int64_t>(v)) {}
  explicit Value(double v) : type_(TypeId::kDouble), payload_(v) {}
  explicit Value(std::string v) : type_(TypeId::kString), payload_(std::move(v)) {}
  explicit Value(const char* v) : type_(TypeId::kString), payload_(std::string(v)) {}

  /// Tagged constructor for timestamps (payload = microseconds).
  static Value Timestamp(int64_t micros) {
    Value v;
    v.type_ = TypeId::kTimestamp;
    v.payload_ = micros;
    return v;
  }
  static Value Null() { return Value(); }

  TypeId type() const { return type_; }
  bool is_null() const { return type_ == TypeId::kNull; }

  bool AsBool() const { return std::get<bool>(payload_); }
  int64_t AsInt() const { return std::get<int64_t>(payload_); }
  double AsDouble() const {
    if (type_ == TypeId::kInt64 || type_ == TypeId::kTimestamp) {
      return static_cast<double>(std::get<int64_t>(payload_));
    }
    return std::get<double>(payload_);
  }
  const std::string& AsString() const { return std::get<std::string>(payload_); }

  /// Three-way comparison for sorting: NULL first, numeric types compare
  /// across int/double/timestamp, strings lexicographically.
  /// Returns <0, 0, >0. Comparing string with numeric is an ordering by type.
  int Compare(const Value& other) const;

  /// Grouping/join equality: NULL == NULL here (unlike SQL `=`).
  bool Equals(const Value& other) const { return Compare(other) == 0; }

  /// Hash consistent with Equals for hash joins / aggregation.
  size_t Hash() const;

  /// Literal rendering ("42", "'abc'", "NULL") used by canonical step text.
  std::string ToString() const;

  /// Size in bytes for bandwidth accounting (GMDB delta sync, edge sync).
  size_t ByteSize() const;

  bool operator==(const Value& other) const { return Equals(other); }
  bool operator<(const Value& other) const { return Compare(other) < 0; }

 private:
  TypeId type_;
  std::variant<std::monostate, bool, int64_t, double, std::string> payload_;
};

/// Two's-complement wrapping int64 addition, the one integer SUM rule:
/// the row executor, the column kernels and the delta-tail merges all wrap
/// modularly, so partials combine associatively, every path agrees bit for
/// bit, and overflow is defined behaviour.
inline int64_t WrapAdd(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) +
                              static_cast<uint64_t>(b));
}

/// Wrapping int64 multiplication: `WrapMul(x, n)` equals n wrapped
/// additions of x (run-length-encoded sums).
inline int64_t WrapMul(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) *
                              static_cast<uint64_t>(b));
}

}  // namespace ofi::sql

namespace std {
template <>
struct hash<ofi::sql::Value> {
  size_t operator()(const ofi::sql::Value& v) const { return v.Hash(); }
};
}  // namespace std
