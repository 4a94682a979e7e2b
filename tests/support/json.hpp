// Minimal JSON value type for tests: the chrome-trace checks parse
// obs::TraceWriter's output with it instead of matching substrings.
// Deliberately tiny — no external dependency, no streaming, objects keep
// insertion order so serialized text is deterministic.
//
// Supported: null, booleans, numbers (int64 when the text is integral,
// double otherwise), strings (with \uXXXX escapes, UTF-8 output), arrays,
// objects. Parse depth is bounded; duplicate object keys keep the last
// value, like most parsers.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <variant>
#include <vector>

namespace hmcc::json {

class Value;
using Array = std::vector<Value>;
/// Insertion-ordered object: members keep their document order.
using Object = std::vector<std::pair<std::string, Value>>;

class Value {
 public:
  Value() : v_(nullptr) {}
  Value(std::nullptr_t) : v_(nullptr) {}  // NOLINT(google-explicit-constructor)
  Value(bool b) : v_(b) {}                // NOLINT(google-explicit-constructor)
  Value(int i) : v_(std::int64_t{i}) {}   // NOLINT(google-explicit-constructor)
  Value(std::int64_t i) : v_(i) {}        // NOLINT(google-explicit-constructor)
  Value(double d) : v_(d) {}              // NOLINT(google-explicit-constructor)
  Value(const char* s) : v_(std::string(s)) {}  // NOLINT
  Value(std::string s) : v_(std::move(s)) {}    // NOLINT
  Value(Array a) : v_(std::move(a)) {}          // NOLINT
  Value(Object o) : v_(std::move(o)) {}         // NOLINT

  [[nodiscard]] bool is_null() const { return holds<std::nullptr_t>(); }
  [[nodiscard]] bool is_bool() const { return holds<bool>(); }
  [[nodiscard]] bool is_int() const { return holds<std::int64_t>(); }
  [[nodiscard]] bool is_double() const { return holds<double>(); }
  [[nodiscard]] bool is_number() const { return is_int() || is_double(); }
  [[nodiscard]] bool is_string() const { return holds<std::string>(); }
  [[nodiscard]] bool is_array() const { return holds<Array>(); }
  [[nodiscard]] bool is_object() const { return holds<Object>(); }

  [[nodiscard]] bool as_bool() const { return std::get<bool>(v_); }
  [[nodiscard]] std::int64_t as_int() const {
    return is_double() ? static_cast<std::int64_t>(std::get<double>(v_))
                       : std::get<std::int64_t>(v_);
  }
  [[nodiscard]] double as_double() const {
    return is_int() ? static_cast<double>(std::get<std::int64_t>(v_))
                    : std::get<double>(v_);
  }
  [[nodiscard]] const std::string& as_string() const {
    return std::get<std::string>(v_);
  }
  [[nodiscard]] const Array& as_array() const { return std::get<Array>(v_); }
  [[nodiscard]] const Object& as_object() const {
    return std::get<Object>(v_);
  }

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const Value* find(const std::string& key) const;

  /// Serialize (compact, no whitespace). Non-finite doubles emit null —
  /// JSON has no representation for them.
  [[nodiscard]] std::string dump() const;

 private:
  template <typename T>
  [[nodiscard]] bool holds() const {
    return std::holds_alternative<T>(v_);
  }

  std::variant<std::nullptr_t, bool, std::int64_t, double, std::string,
               Array, Object>
      v_;
};

/// Parse @p text as a single JSON document (trailing whitespace allowed,
/// trailing garbage is an error). On failure returns std::nullopt and, when
/// @p error is non-null, stores a short human-readable reason.
std::optional<Value> parse(const std::string& text,
                           std::string* error = nullptr);

/// Escape @p s as a JSON string literal including the quotes.
std::string quote(const std::string& s);

}  // namespace hmcc::json
