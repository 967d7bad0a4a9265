// Resource records: the unit of data a resource owner contributes to
// the federation. A record is one resource (a camera feed, a compute
// node, a storage volume) described by one value per schema attribute.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "record/schema.h"
#include "record/value.h"

namespace roads::record {

using RecordId = std::uint64_t;
using OwnerId = std::uint32_t;

class ResourceRecord {
 public:
  ResourceRecord() = default;
  ResourceRecord(RecordId id, OwnerId owner, std::vector<AttributeValue> values)
      : id_(id), owner_(owner), values_(std::move(values)) {}

  RecordId id() const { return id_; }
  OwnerId owner() const { return owner_; }

  const std::vector<AttributeValue>& values() const { return values_; }
  const AttributeValue& value(std::size_t attribute) const;
  void set_value(std::size_t attribute, AttributeValue value);

  /// True when the value count and every value's type agree with the
  /// schema and no numeric value is NaN (infinities are allowed).
  bool conforms_to(const Schema& schema) const;

  /// Wire footprint: 16-byte header (id + owner + length) plus per-value
  /// attribute tag (2 bytes) and payload.
  std::uint64_t wire_size() const;

  std::string to_string(const Schema& schema) const;

 private:
  RecordId id_ = 0;
  OwnerId owner_ = 0;
  std::vector<AttributeValue> values_;
};

}  // namespace roads::record
