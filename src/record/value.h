// Attribute values. ROADS records are bags of attribute/value pairs
// (§III-B of the paper); attributes are either numeric (integer, double
// and timestamp all behave the same for range search and histogram
// summarization) or categorical (strings, equality search, set/Bloom
// summarization).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <variant>

namespace roads::record {

enum class AttributeType : std::uint8_t { kNumeric, kCategorical };

const char* to_string(AttributeType type);

/// One attribute's value: a double for numeric attributes, a string for
/// categorical ones. The kind must agree with the schema's declared
/// type for that attribute; Schema::validate enforces this.
///
/// In memory a value is 16 bytes (DESIGN.md §5l): the number, and a
/// pointer that owns the category string and is null for a numeric
/// value, so only a categorical value pays a heap string. Copying a
/// categorical value copies its string. Moving leaves the source
/// numeric: a moved-from categorical value reads number() 0.0, and a
/// moved-from numeric value keeps its number.
class AttributeValue {
 public:
  AttributeValue() = default;  // numeric 0.0
  explicit AttributeValue(double v) : number_(v) {}
  explicit AttributeValue(std::string v)
      : category_(std::make_unique<std::string>(std::move(v))) {}

  AttributeValue(const AttributeValue& other)
      : number_(other.number_),
        category_(other.category_
                      ? std::make_unique<std::string>(*other.category_)
                      : nullptr) {}
  AttributeValue& operator=(const AttributeValue& other) {
    if (this != &other) *this = AttributeValue(other);
    return *this;
  }
  AttributeValue(AttributeValue&&) noexcept = default;
  AttributeValue& operator=(AttributeValue&&) noexcept = default;

  AttributeType type() const {
    return category_ ? AttributeType::kCategorical : AttributeType::kNumeric;
  }

  bool is_numeric() const { return !category_; }

  /// Numeric payload; throws std::bad_variant_access if categorical.
  double number() const {
    if (category_) throw std::bad_variant_access();
    return number_;
  }
  /// Categorical payload; throws std::bad_variant_access if numeric.
  const std::string& category() const {
    if (!category_) throw std::bad_variant_access();
    return *category_;
  }

  /// Bytes this value occupies in a wire message: 8 for a numeric value,
  /// string length + 1-byte length prefix for a categorical one.
  std::uint64_t wire_size() const;

  /// Equal kinds and equal payloads; a numeric value never equals a
  /// categorical one.
  bool operator==(const AttributeValue& other) const {
    if (category_ || other.category_) {
      return category_ && other.category_ && *category_ == *other.category_;
    }
    return number_ == other.number_;
  }

  std::string to_string() const;

 private:
  double number_ = 0.0;
  std::unique_ptr<std::string> category_;  // null for a numeric value
};

static_assert(sizeof(AttributeValue) == 16,
              "an attribute value is a double and one owning pointer");

}  // namespace roads::record
